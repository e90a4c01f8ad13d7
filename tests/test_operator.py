import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import arrowm
from arrowm import (
    DenseOperator,
    GaussianPacketParams,
    apply_m_direct,
    apply_m_fast,
    build_dense_m,
    dense_spectrum,
    hermiticity_residual,
    inner_product,
    make_log_grid,
    make_state,
    random_smooth_state,
    state_norm,
    to_energy_state,
    tukey_window,
    windowed_eigenfunction,
)
from arrowm import operator
from arrowm.grid import _fft_length, _support

from conftest import (
    WIDE_BOUNDS,
    _endpoint_scale,
    cauchy_kernel,
    dense_assembly,
    full_apply_m,
    interior_residual,
    pv_cauchy_quadrature,
    reversal_singular_values,
    subtraction_selfterm,
    toeplitz_matrix,
    zero_state,
)


TOEPLITZ_CASES = [
    (bounds, n, quadrature)
    for bounds in ((1e-3, 1e3), WIDE_BOUNDS)
    for n in (257, 1024)
    for quadrature in ("parity", "subtraction")
]

SPECTRUM_CASES = [
    (bounds, n, quadrature)
    for bounds in ((1e-3, 1e3), WIDE_BOUNDS)
    for n in (2, 3, 17, 256, 257, 1024)
    for quadrature in ("parity", "subtraction")
]


def test_cauchy_kernel_value():
    # -(2 pi i)^{-1} / (2 - 1) = i / (2 pi)
    assert cauchy_kernel(2.0, 1.0) == pytest.approx(0.15915494309189535j, abs=1e-15)


@pytest.mark.parametrize("quadrature", ["parity", "subtraction"])
def test_hermitian_for_random_bounds(rng, quadrature):
    for _ in range(4):
        lo = 10.0 ** rng.uniform(-6, -1)
        hi = 10.0 ** rng.uniform(1, 6)
        op = build_dense_m(make_log_grid(lo, hi, 64), quadrature=quadrature)
        A = toeplitz_matrix(op)
        assert np.max(np.abs(A - A.conj().T)) <= 1e-12
        assert hermiticity_residual(op) <= 1e-12


def test_hermiticity_residual_flags_unconjugated_row():
    # T's first row is the column's conjugate past T_00, so the one
    # non-Hermitian T a column holds has an imaginary diagonal
    op = build_dense_m(make_log_grid(1e-3, 1e3, 256), "subtraction")
    bad = DenseOperator(op.grid, op.quadrature, op.column + 1e-3j * (np.arange(256) == 0))
    assert hermiticity_residual(bad) > 1e-12


@pytest.mark.parametrize("quadrature", ["parity", "subtraction"])
def test_diagonal_is_one_half(quadrature):
    op = build_dense_m(make_log_grid(1e-2, 1e2, 32), quadrature=quadrature)
    assert np.allclose(np.diag(toeplitz_matrix(op)), 0.5, rtol=0.0, atol=0.0)


def test_build_takes_no_fft_and_the_kernel_no_inverse_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no FFT expected")

    g = make_log_grid(1e-2, 1e2, 64)
    # d off the grid's weights is the table bit for bit on the fig1, wide,
    # spectrum and eigenfunction windows
    windows = ((5e-15, 50.0), WIDE_BOUNDS, (1e-3, 1e3), (1e-8, 1e8))
    grids = [g, *(make_log_grid(*bounds, n) for bounds in windows for n in (2, 3, 257, 4096))]
    with monkeypatch.context() as m:
        m.setattr(np.fft, "fft", refuse)
        m.setattr(np.fft, "ifft", refuse)
        ops = [build_dense_m(grid) for grid in grids]
    for op in ops:
        s, d = np.sqrt(op.grid.weights), _endpoint_scale(op.grid.n)
        np.testing.assert_array_equal(op.to_t, s * d)
        np.testing.assert_array_equal(op.from_t, d / s)
    op = ops[0]
    assert not op.to_t.flags.writeable and not op.from_t.flags.writeable
    monkeypatch.setattr(np.fft, "ifft", refuse)
    operator._support_kernel.cache_clear()
    assert operator._support_kernel(op, 5, 40).size == _fft_length(g.n + 34)


def test_unknown_quadrature_rejected():
    with pytest.raises(ValueError):
        build_dense_m(make_log_grid(1e-2, 1e2, 16), quadrature="midpoint")


def test_operator_checks_its_quadrature_and_column_length():
    # unchecked, "nonsense" was accepted and a 32-entry column failed deep
    # inside apply_m_direct with numpy's "non-broadcastable output operand"
    op = build_dense_m(make_log_grid(1e-3, 1e3, 64))
    with pytest.raises(ValueError, match="'nonsense'"):
        DenseOperator(op.grid, "nonsense", op.column)
    for column in (op.column[:32], op.column[None], np.append(op.column, 0.0)):
        with pytest.raises(ValueError, match="64 entries"):
            DenseOperator(op.grid, op.quadrature, column)


def test_circulant_fft_is_taken_once_and_kept_read_only():
    op = build_dense_m(make_log_grid(1e-3, 1e3, 64))
    first = op.circulant_fft
    assert op.circulant_fft is first and not first.flags.writeable


def test_apply_zero_state_is_zero(monkeypatch):
    g = make_log_grid(1e-2, 1e2, 64)
    op = build_dense_m(g)

    def no_fft(*args, **kwargs):
        raise AssertionError("the zero state needs no FFT")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(np.fft, "ifft", no_fft)
    out = apply_m_direct(zero_state(g), op)
    assert np.all(out.amplitudes == 0.0)


def _support_cases(g, rng):
    """A state of each support shape on ``g``: name -> state."""
    noise = rng.normal(size=(2, g.n)) + 1j * rng.normal(size=(2, g.n))
    leading = noise.copy()
    leading[:, : g.n // 3] = 0.0
    column = np.zeros((2, g.n), dtype=complex)
    column[1, g.n // 2] = 1.0 - 2.0j
    return {
        "full": make_state(g, ("+", "-"), noise),
        "leading_zeros": make_state(g, ("+", "-"), leading),
        # the fig1 packet is exactly 0.0 above E of about 74
        "trailing_zeros": to_energy_state(GaussianPacketParams(1.0, 0.64, 0.3), g),
        "interior": windowed_eigenfunction(g, 0.3, "+", tukey_window(g, 20.0, 5.0)),
        "one_column": make_state(g, ("+", "-"), column),
    }


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fft_length_is_the_smallest_5_smooth_length():
    for size in range(1, 2500):
        assert _fft_length(size) == next(
            m for m in itertools.count(size) if _is_5_smooth(m)), size
    assert _fft_length(4096 + 2274 - 1) == 6400
    assert _fft_length(2 * 4096 - 1) == 8192
    assert _fft_length(4096 + 801 - 1) == 5000


@pytest.mark.parametrize("n", [257, 1024])
@pytest.mark.parametrize("quadrature", ["parity", "subtraction"])
def test_support_sized_convolution_equals_the_2n_convolution(rng, n, quadrature):
    # the oracle convolves every column with the 2n circulant embedding
    g = make_log_grid(*WIDE_BOUNDS, n)
    op = build_dense_m(g, quadrature)
    cases = _support_cases(g, rng)
    supports = {name: _support(f) for name, f in cases.items()}
    assert supports["full"] == slice(0, n)
    assert supports["leading_zeros"] == slice(n // 3, n)
    assert supports["trailing_zeros"].start == 0 and supports["trailing_zeros"].stop < n
    assert 0 < supports["interior"].start and supports["interior"].stop < n
    assert supports["one_column"] == slice(n // 2, n // 2 + 1)
    for name, f in cases.items():
        reference = full_apply_m(f, op)
        diff = apply_m_direct(f, op).amplitudes - reference
        err = state_norm(make_state(g, f.channels, diff))
        assert err <= 1e-14 * state_norm(make_state(g, f.channels, reference)), name
        length = supports[name].stop - supports[name].start
        kernel = operator._support_kernel(op, supports[name].start, supports[name].stop)
        assert kernel.size == next(m for m in itertools.count(n + length - 1) if _is_5_smooth(m))


def test_support_kernels_are_kept_per_operator(rng):
    g = make_log_grid(*WIDE_BOUNDS, 257)
    op = build_dense_m(g)
    f = to_energy_state(GaussianPacketParams(1.0, 0.64, 0.3), g)
    s = _support(f)
    first = operator._support_kernel(op, s.start, s.stop)
    assert not first.flags.writeable
    apply_m_direct(f, op)
    assert operator._support_kernel(op, s.start, s.stop) is first
    assert operator._support_kernel.cache_info().currsize == 1
    # another operator, or the same one on another support, builds afresh
    # and takes the one place
    other = operator._support_kernel(build_dense_m(g), s.start, s.stop)
    assert other is not first
    np.testing.assert_array_equal(other, first)
    assert operator._support_kernel(op, s.start, s.stop) is not first
    kept = operator._support_kernel(op, s.start, s.stop - 1)
    assert operator._support_kernel.cache_info().currsize == 1
    assert operator._support_kernel(op, s.start, s.stop - 1) is kept
    assert operator._support_kernel(op, s.start, s.stop) is not kept


def test_operators_compare_and_hash_by_identity():
    g = make_log_grid(1e-2, 1e2, 64)
    a, b = build_dense_m(g), build_dense_m(g)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_apply_grid_mismatch_raises(rng):
    op = build_dense_m(make_log_grid(1e-2, 1e2, 64))
    f = random_smooth_state(make_log_grid(1e-2, 1e2, 65), rng)
    with pytest.raises(ValueError):
        apply_m_direct(f, op)


@pytest.mark.parametrize("quadrature", ["parity", "subtraction"])
def test_quadratic_form_positive_contractive_real(rng, quadrature):
    g = make_log_grid(1e-2, 1e2, 256)
    op = build_dense_m(g, quadrature=quadrature)
    for _ in range(5):
        f = random_smooth_state(g, rng)
        q = inner_product(f, apply_m_direct(f, op))
        assert abs(q.imag) <= 1e-10
        assert -1e-10 <= q.real <= 1.0 + 1e-10


@pytest.mark.parametrize("quadrature", ["parity", "subtraction"])
def test_dense_spectrum_range_n512(quadrature):
    op = build_dense_m(make_log_grid(1e-3, 1e3, 512), quadrature=quadrature)
    ev = dense_spectrum(op)
    assert ev[0] >= -1e-6
    assert ev[-1] <= 1.0 + 1e-6
    assert np.all(np.diff(ev) >= 0.0)


@pytest.mark.parametrize("bounds,n,quadrature", SPECTRUM_CASES)
def test_dense_spectrum_matches_eigvalsh(bounds, n, quadrature):
    op = build_dense_m(make_log_grid(*bounds, n), quadrature)
    reference = np.linalg.eigvalsh(toeplitz_matrix(op))
    assert np.max(np.abs(dense_spectrum(op) - reference)) <= 1e-12


@pytest.mark.parametrize("bounds", [(1e-3, 1e3), WIDE_BOUNDS])
@pytest.mark.parametrize("n", [2048, 2049])
@pytest.mark.parametrize("quadrature", ["parity", "subtraction"])
def test_dense_spectrum_matches_svd_oracle(bounds, n, quadrature):
    # the Gram route squares the block's condition number; its error is
    # largest at the smallest singular value, the eigenvalue nearest 1/2
    op = build_dense_m(make_log_grid(*bounds, n), quadrature)
    s = reversal_singular_values(op)
    reference = np.sort(np.concatenate((0.5 - s, np.full(n - 2 * s.size, 0.5), 0.5 + s)))
    ev = dense_spectrum(op)
    assert np.max(np.abs(ev - reference)) <= 1e-12
    assert abs(ev[(n + 1) // 2] - (0.5 + s[-1])) <= 1e-12


@pytest.mark.parametrize("bounds,n,quadrature", SPECTRUM_CASES)
def test_dense_spectrum_symmetric_about_one_half(bounds, n, quadrature):
    # J A J = I - A: the discrete form of m(nu) + m(-nu) = 1
    ev = dense_spectrum(build_dense_m(make_log_grid(*bounds, n), quadrature))
    assert ev.size == n
    assert np.max(np.abs(ev + ev[::-1] - 1.0)) <= 1e-13


def test_dense_spectrum_rejects_column_with_real_part():
    op = build_dense_m(make_log_grid(1e-3, 1e3, 64))
    bad = DenseOperator(op.grid, op.quadrature, op.column + 1e-3)
    with pytest.raises(ValueError, match="purely imaginary"):
        dense_spectrum(bad)


def test_dense_spectrum_refuses_more_than_physical_memory():
    # n = 2**20 needs 2 (n/2)^2 float64 = 4.4 TB; the operator itself is 48 MB
    op = build_dense_m(make_log_grid(1e-3, 1e3, 2**20), "subtraction")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"needs {2 * 8 * (2**19)**2} bytes"):
            dense_spectrum(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# dense_spectrum at n = 2048 in a fresh process that imports the library
# alone, printing how far ru_maxrss (KiB) grew over three calls after the first.
_REPEATED_SPECTRUM = """
import resource
import arrowm
op = arrowm.build_dense_m(arrowm.make_log_grid(1e-3, 1e3, 2048), "subtraction")
arrowm.dense_spectrum(op)
first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for _ in range(3):
    arrowm.dense_spectrum(op)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - first)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc thresholds")
def test_repeated_dense_spectrum_does_not_grow_the_heap():
    # With B allocated before its Gram matrix, each later call grew the
    # heap by one more 8 MB array (+8.1 MB); Gram first, +0.5 MB.  The heap
    # layout shifts with the size of the environment, so the run repeats at
    # three paddings.
    src = str(Path(arrowm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for pad in (0, 256, 4096):
        done = subprocess.run([sys.executable, "-c", _REPEATED_SPECTRUM],
                              env={**env, "ARROWM_TEST_PAD": "x" * pad},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.splitlines()[-1]) < 4 * 1024, pad


def test_dense_spectrum_avoids_exact_endpoints():
    # the subtraction variant keeps a clear margin from 0 and 1 at n = 512
    ev = dense_spectrum(build_dense_m(make_log_grid(1e-3, 1e3, 512), "subtraction"))
    assert ev[0] > 1e-4
    assert ev[-1] < 1.0 - 1e-4


def test_spectrum_fills_unit_interval_n1024():
    # the subtraction rule's first-order multiplier error sweeps the discrete
    # eigenvalues across (0, 1); every 0.05 bin must be occupied
    ev = dense_spectrum(build_dense_m(make_log_grid(1e-3, 1e3, 1024), "subtraction"))
    counts, _ = np.histogram(ev, bins=20, range=(0.0, 1.0))
    assert np.all(counts > 0)


def test_parity_matrix_is_exact_rearrangement_of_pv_rule(rng):
    g = make_log_grid(1e-3, 1e3, 256)
    op = build_dense_m(g, "parity")
    f = random_smooth_state(g, rng)
    applied = apply_m_direct(f, op)
    for k in range(len(f.channels)):
        pv = pv_cauchy_quadrature(g, f.amplitudes[k], "parity")
        reference = 0.5 * f.amplitudes[k] + (1j / (2.0 * np.pi)) * pv
        assert np.max(np.abs(applied.amplitudes[k] - reference)) <= 1e-13


def test_subtraction_matrix_plus_selfterm_matches_pv_rule(rng):
    # the Hermitian matrix drops the purely imaginary self-term; restoring it
    # must reproduce the raw singularity-subtraction quadrature exactly
    g = make_log_grid(1e-3, 1e3, 256)
    op = build_dense_m(g, "subtraction")
    resid = subtraction_selfterm(g)
    f = random_smooth_state(g, rng)
    applied = apply_m_direct(f, op)
    for k in range(len(f.channels)):
        pv = pv_cauchy_quadrature(g, f.amplitudes[k], "subtraction")
        reference = 0.5 * f.amplitudes[k] + (1j / (2.0 * np.pi)) * pv
        restored = applied.amplitudes[k] + (1j / (2.0 * np.pi)) * resid * f.amplitudes[k]
        assert np.max(np.abs(restored - reference)) <= 1e-13


def test_subtraction_selfterm_is_order_du():
    # the dropped term is O(du): large enough that keeping it would break
    # Hermiticity and expectation reality by orders of magnitude
    g = make_log_grid(1e-3, 1e3, 512)
    resid = subtraction_selfterm(g)
    scale = np.abs(resid[8:-8]) / (2.0 * np.pi)
    assert np.max(scale) > 1e-4
    assert np.max(scale) < 10.0 * g.du


def test_pv_quadrature_rule_validation():
    g = make_log_grid(1e-2, 1e2, 16)
    with pytest.raises(ValueError):
        pv_cauchy_quadrature(g, np.zeros(16), "simpson")


def test_windowed_eigenfunction_reproduced_by_direct_path(residual_setup):
    # interior residual of M g = m g for a windowed eigenfunction sample
    grid, window, interior = residual_setup
    op = build_dense_m(grid, "parity")
    g_half = windowed_eigenfunction(grid, 0.5, "+", window)
    res = interior_residual(grid, interior, g_half, apply_m_direct(g_half, op), 0.5)
    assert res <= 1e-3


@pytest.mark.parametrize("n", [1024, 1000])
def test_direct_agrees_with_fast_on_wide_grid(rng, n):
    # the fast path's FFT takes any length, powers of two or not
    g = make_log_grid(*WIDE_BOUNDS, n)
    op = build_dense_m(g, "parity")
    for _ in range(3):
        f = random_smooth_state(g, rng)
        diff = apply_m_fast(f).amplitudes - apply_m_direct(f, op).amplitudes
        err = state_norm(make_state(g, f.channels, diff)) / state_norm(f)
        assert err <= 1e-6


@pytest.mark.parametrize("bounds,n,quadrature", TOEPLITZ_CASES)
def test_toeplitz_matrix_matches_dense_assembly(bounds, n, quadrature):
    g = make_log_grid(*bounds, n)
    op = build_dense_m(g, quadrature)
    A = dense_assembly(g, quadrature)
    assert np.max(np.abs(toeplitz_matrix(op) - A)) <= 1e-12 * np.max(np.abs(A))


@pytest.mark.parametrize("bounds,n,quadrature", TOEPLITZ_CASES)
def test_apply_matches_dense_assembly(rng, bounds, n, quadrature):
    # compared in the weighted norm: the convolution's roundoff is global, and
    # unweighting by 1/sqrt(w) magnifies it pointwise where E is tiny
    g = make_log_grid(*bounds, n)
    op = build_dense_m(g, quadrature)
    s = np.sqrt(g.weights)
    A = dense_assembly(g, quadrature)
    for _ in range(3):
        f = random_smooth_state(g, rng)
        reference = (A @ (s * f.amplitudes).T).T / s
        diff = apply_m_direct(f, op).amplitudes - reference
        assert state_norm(make_state(g, f.channels, diff)) <= 1e-12 * state_norm(f)


def test_direct_path_memory_far_below_one_matrix(rng):
    # at n = 8192 one complex n x n matrix is 16 n^2 bytes = 1.07 GB
    g = make_log_grid(*WIDE_BOUNDS, 8192)
    f = random_smooth_state(g, rng)
    tracemalloc.start()
    try:
        apply_m_direct(f, build_dense_m(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * 16 * g.n**2
