import tracemalloc

import numpy as np
import pytest

from arrowm import (
    DenseOperator,
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
    subtraction_selfterm,
    windowed_eigenfunction,
)
from arrowm.grid import zero_state
from arrowm.operator import _circulant_fft, cauchy_kernel, pv_cauchy_quadrature

from conftest import WIDE_BOUNDS, dense_assembly, interior_residual, toeplitz_matrix


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
    # a circulant built from (column, column) embeds a non-Hermitian Toeplitz T
    op = build_dense_m(make_log_grid(1e-3, 1e3, 256), "subtraction")
    bad = DenseOperator(grid=op.grid, quadrature=op.quadrature, column=op.column,
                        circulant_fft=_circulant_fft(op.column, op.column))
    assert hermiticity_residual(bad) > 1e-12


@pytest.mark.parametrize("quadrature", ["parity", "subtraction"])
def test_diagonal_is_one_half(quadrature):
    op = build_dense_m(make_log_grid(1e-2, 1e2, 32), quadrature=quadrature)
    assert np.allclose(np.diag(toeplitz_matrix(op)), 0.5, rtol=0.0, atol=0.0)


def test_unknown_quadrature_rejected():
    with pytest.raises(ValueError):
        build_dense_m(make_log_grid(1e-2, 1e2, 16), quadrature="midpoint")


def test_apply_zero_state_is_zero():
    g = make_log_grid(1e-2, 1e2, 64)
    op = build_dense_m(g)
    out = apply_m_direct(zero_state(g), op)
    assert np.all(out.amplitudes == 0.0)


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


@pytest.mark.parametrize("bounds,n,quadrature", SPECTRUM_CASES)
def test_dense_spectrum_symmetric_about_one_half(bounds, n, quadrature):
    # J A J = I - A: the discrete form of m(nu) + m(-nu) = 1
    ev = dense_spectrum(build_dense_m(make_log_grid(*bounds, n), quadrature))
    assert ev.size == n
    assert np.max(np.abs(ev + ev[::-1] - 1.0)) <= 1e-13


def test_dense_spectrum_rejects_column_with_real_part():
    op = build_dense_m(make_log_grid(1e-3, 1e3, 64))
    column = op.column + 1e-3
    bad = DenseOperator(grid=op.grid, quadrature=op.quadrature, column=column,
                        circulant_fft=_circulant_fft(column, column.conj()))
    with pytest.raises(ValueError, match="purely imaginary"):
        dense_spectrum(bad)


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
