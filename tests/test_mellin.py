import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from arrowm import (
    GaussianPacketParams,
    LogEnergyGrid,
    MellinSpectrum,
    apply_m_direct,
    apply_m_fast,
    build_dense_m,
    completeness_kernel_check,
    eigen_density,
    eigen_density_moments,
    eigenvalue_of_frequency,
    evolve,
    expectation_m,
    forward_mellin,
    frequency_grid,
    frequency_jacobian,
    frequency_of_eigenvalue,
    inverse_mellin,
    make_log_grid,
    make_state,
    normalize_state,
    random_smooth_state,
    sample_eigenfunction,
    spectral_weight,
    state_norm,
    to_energy_state,
    windowed_eigenfunction,
)
from arrowm.grid import CHANNELS
from arrowm.mellin import _grid_factors
from conftest import (
    WIDE_BOUNDS,
    apply_m_fast_oracle,
    completeness_kernel_quadrature,
    eigen_density_moments_oracle,
    forward_mellin_oracle,
    gaussian_window,
    interior_residual,
    inverse_mellin_oracle,
    mellin_ndft,
    spectral_weight_oracle,
)


# ---------------------------------------------------------------------------
# transform pair


def test_roundtrip_is_identity(rng, wide_grid):
    f = random_smooth_state(wide_grid, rng)
    back = inverse_mellin(forward_mellin(f))
    err = state_norm(make_state(wide_grid, f.channels, back.amplitudes - f.amplitudes))
    assert err <= 1e-12 * state_norm(f)


def test_zero_spectrum_inverts_to_zero(wide_grid):
    spec = MellinSpectrum(
        grid=wide_grid,
        channels=("+", "-"),
        coefficients=np.zeros((2, wide_grid.n), dtype=complex),
    )
    out = inverse_mellin(spec)
    assert np.all(out.amplitudes == 0.0)


def test_forward_is_linear(rng, wide_grid):
    f = random_smooth_state(wide_grid, rng)
    h = random_smooth_state(wide_grid, rng)
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    combo = make_state(wide_grid, f.channels, a * f.amplitudes + b * h.amplitudes)
    lhs = forward_mellin(combo).coefficients
    rhs = a * forward_mellin(f).coefficients + b * forward_mellin(h).coefficients
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_parseval_for_tail_safe_states(rng, wide_grid):
    dnu = 2.0 * np.pi / (wide_grid.n * wide_grid.du)
    for _ in range(5):
        f = random_smooth_state(wide_grid, rng)
        spec = forward_mellin(f)
        mass = dnu * np.sum(np.abs(spec.coefficients) ** 2)
        assert abs(mass - 1.0) <= 1e-8


def test_frequency_grid_layout():
    g = make_log_grid(1e-3, 1e3, 64)
    nu = frequency_grid(g)
    dnu = 2.0 * np.pi / (g.n * g.du)
    assert nu[0] == pytest.approx(-np.pi / g.du, rel=1e-12)
    assert np.allclose(np.diff(nu), dnu, rtol=1e-12)
    assert nu[-1] == pytest.approx(np.pi / g.du - dnu, rel=1e-12)


def test_inverse_power_law_window_concentrates_at_zero_frequency():
    # an E^{-1/2}-shaped state is the nu = 0 eigenfunction shape
    g = make_log_grid(1e-6, 1e6, 1024)
    window = gaussian_window(g, 4.0)
    f = make_state(g, ("+",), (np.exp(-0.5 * g.log_points) * window)[None, :])
    spec = forward_mellin(f)
    peak = spec.frequencies[np.argmax(np.abs(spec.coefficients[0]))]
    assert abs(peak) <= 2.0 * np.pi / (g.n * g.du)


def test_spike_inverts_to_power_law_mode():
    g = make_log_grid(1e-6, 1e6, 512)
    nu = frequency_grid(g)
    k = 310
    coeff = np.zeros((1, g.n), dtype=complex)
    coeff[0, k] = 1.0
    out = inverse_mellin(
        MellinSpectrum(grid=g, channels=("+",), coefficients=coeff)
    )
    mode = np.exp((-0.5 - 1j * nu[k]) * g.log_points)
    ratio = out.amplitudes[0] / mode
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-12 * abs(ratio[0])


def test_forward_rejects_non_uniform_grid():
    # the grid arrays derive from (e_min, e_max, n), so a crooked grid cannot
    # reach forward_mellin: supplying arrays fails and the derived grid is uniform
    g = make_log_grid(1e-2, 1e2, 32)
    pts = g.points.copy()
    pts[5] *= 1.01
    with pytest.raises(TypeError):
        LogEnergyGrid(
            e_min=g.e_min, e_max=g.e_max, n=g.n,
            points=pts, log_points=np.log(pts), weights=g.weights, du=g.du,
        )
    assert np.allclose(np.diff(g.log_points), g.du, rtol=1e-12, atol=0.0)


def test_inverse_rejects_mismatched_frequencies(rng, wide_grid):
    # the frequency lattice derives from the grid, so a spectrum cannot carry
    # a mismatched one into inverse_mellin
    spec = forward_mellin(random_smooth_state(wide_grid, rng))
    with pytest.raises(TypeError):
        MellinSpectrum(
            grid=wide_grid,
            channels=spec.channels,
            frequencies=spec.frequencies * 1.5,
            coefficients=spec.coefficients,
        )
    assert np.array_equal(np.sort(spec.frequencies), frequency_grid(wide_grid))


# ---------------------------------------------------------------------------
# per-grid factor cache


@pytest.mark.parametrize("n", [2, 257, 4096])
@pytest.mark.parametrize("bounds", [(5e-15, 50.0), WIDE_BOUNDS], ids=["fig1", "wide"])
@pytest.mark.parametrize("kind", ["random", "packet"])
def test_cached_factors_reproduce_uncached_transforms_bit_for_bit(n, bounds, kind, rng):
    grid = make_log_grid(*bounds, n)
    if kind == "packet":
        f = normalize_state(to_energy_state(GaussianPacketParams(1.0, 0.64, 0.3), grid))
    else:
        # bumps wide enough to reach the edges: at n = 2 on the wide window
        # the default widths leave only the zero state
        f = random_smooth_state(grid, rng, sigma_range=(0.1 * grid.span, 0.2 * grid.span))
    spec = forward_mellin(f)
    assert np.array_equal(spec.coefficients, forward_mellin_oracle(f))
    assert np.array_equal(inverse_mellin(spec).amplitudes,
                          inverse_mellin_oracle(grid, spec.coefficients))
    assert np.array_equal(apply_m_fast(f).amplitudes, apply_m_fast_oracle(f))
    assert eigen_density_moments(f) == eigen_density_moments_oracle(f)


@pytest.mark.parametrize("n", [2, 257, 4096])
@pytest.mark.parametrize("bounds", [(5e-15, 50.0), WIDE_BOUNDS], ids=["fig1", "wide"])
def test_spectral_weight_is_re_squared_plus_im_squared_bit_for_bit(n, bounds, rng):
    grid = make_log_grid(*bounds, n)
    f = random_smooth_state(grid, rng, sigma_range=(0.1 * grid.span, 0.2 * grid.span))
    spec = forward_mellin(f)
    assert np.array_equal(spectral_weight(spec), spectral_weight_oracle(spec))
    # a spectrum built from strided coefficients weighs the same
    strided = np.repeat(spec.coefficients, 2, axis=-1)[:, ::2]
    assert np.array_equal(spectral_weight(MellinSpectrum(grid, spec.channels, strided)),
                          spectral_weight_oracle(spec))


def test_cached_factors_are_read_only():
    grid = make_log_grid(1e-3, 1e3, 64)
    for a in (*_grid_factors(grid), frequency_grid(grid)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_factor_cache_evicts_and_recomputes_exactly():
    # more distinct grids than the cache holds, so entries are evicted and rebuilt
    grids = set()
    misses = _grid_factors.cache_info().misses

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        log_e_min=st.floats(-22.0, 2.0),
        decades=st.floats(0.5, 43.0),
        n=st.integers(3, 4096),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(log_e_min, decades, n, seed):
        grid = make_log_grid(10.0**log_e_min, 10.0 ** (log_e_min + decades), n)
        grids.add(grid)
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        # the FFT's Parseval sum gives full weight to the points the
        # trapezoidal norm halves, so the state vanishes there
        amps[:, [0, -1]] = 0.0
        f = make_state(grid, CHANNELS, amps)
        assert np.array_equal(forward_mellin(f).coefficients, forward_mellin_oracle(f))
        mass, _ = eigen_density_moments(f)
        assert mass == pytest.approx(state_norm(f) ** 2, rel=1e-12, abs=0.0)

    check()
    assert len(grids) > _grid_factors.cache_info().maxsize
    assert _grid_factors.cache_info().misses - misses >= len(grids)


# ---------------------------------------------------------------------------
# eigenvalue <-> frequency maps


def test_multiplier_at_zero_frequency():
    assert eigenvalue_of_frequency(0.0) == 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_multiplier_limits_and_monotonicity():
    assert eigenvalue_of_frequency(40.0) < 1e-50
    assert eigenvalue_of_frequency(-40.0) > 1.0 - 1e-15
    nus = np.linspace(-5.5, 30.0, 401)
    ms = eigenvalue_of_frequency(nus)
    assert np.all((ms > 0.0) & (ms < 1.0))
    assert np.all(np.diff(ms) < 0.0)
    # against scipy's logistic function, past the overflow of e^{2 pi nu} at nu ~ 113
    wide = np.linspace(-200.0, 200.0, 40001)
    ms = eigenvalue_of_frequency(wide)
    ref = expit(-2.0 * np.pi * wide)
    big = ref > 1e-300
    assert np.max(np.abs(ms[big] - ref[big]) / ref[big]) <= 1e-15
    assert np.all((ms[~big] >= 0.0) & (ms[~big] <= 1e-300))


def test_frequency_of_eigenvalue_closed_form():
    # nu(0.8) = ln(1/4) / (2 pi)
    assert frequency_of_eigenvalue(0.8) == pytest.approx(-0.22063560015265605, abs=1e-12)
    # against scipy's logit, into both tails
    tail = np.geomspace(1e-12, 0.5, 2001)
    m = np.concatenate((tail, np.linspace(1e-12, 1.0 - 1e-12, 2001), 1.0 - tail))
    assert np.max(np.abs(frequency_of_eigenvalue(m) + logit(m) / (2.0 * np.pi))) <= 1e-15


def test_eigenvalue_frequency_roundtrip():
    m = np.linspace(1e-6, 1.0 - 1e-6, 501)
    back = eigenvalue_of_frequency(frequency_of_eigenvalue(m))
    assert np.max(np.abs(back - m)) <= 1e-14


def test_frequency_of_eigenvalue_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.7, np.nan, np.inf, -np.inf, [0.5, np.nan]):
        with pytest.raises(ValueError):
            frequency_of_eigenvalue(bad)


def test_eigenvalue_coordinate_consistency():
    assert frequency_jacobian(0.3) == pytest.approx(2.0 * np.pi * 0.3 * 0.7, rel=1e-14)
    nu = frequency_of_eigenvalue(0.3)
    assert eigenvalue_of_frequency(nu) == pytest.approx(0.3, abs=1e-15)
    assert frequency_jacobian(0.5) == pytest.approx(np.pi / 2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# operator application and densities


def test_apply_m_fast_eigenfunction_residual(residual_setup):
    grid, window, interior = residual_setup
    g_state = windowed_eigenfunction(grid, 0.3, "+", window)
    res = interior_residual(grid, interior, g_state, apply_m_fast(g_state), 0.3)
    assert res <= 1e-3


def test_multiplier_applied_twice_is_squared_multiplier(rng, wide_grid):
    spec = forward_mellin(random_smooth_state(wide_grid, rng))
    m = eigenvalue_of_frequency(spec.frequencies)
    twice = (spec.coefficients * m) * m
    squared = spec.coefficients * m**2
    assert np.max(np.abs(twice - squared)) <= 1e-16


def test_apply_m_fast_matches_direct(rng, wide_grid):
    op = build_dense_m(wide_grid, "parity")
    for _ in range(5):
        f = random_smooth_state(wide_grid, rng)
        diff = apply_m_fast(f).amplitudes - apply_m_direct(f, op).amplitudes
        err = state_norm(make_state(wide_grid, f.channels, diff))
        assert err <= 1e-6


def test_eigen_density_total_mass(rng, wide_grid):
    f = random_smooth_state(wide_grid, rng)
    mass, _ = eigen_density_moments(f)
    assert abs(mass - 1.0) <= 1e-6


def test_eigen_density_peaks_at_construction_eigenvalue():
    g = make_log_grid(np.exp(-60.0), np.exp(60.0), 4096)
    state = normalize_state(windowed_eigenfunction(g, 0.5, "+", gaussian_window(g, 12.0)))
    nu_grid, rho = eigen_density(state, -2.0, 2.0, 401)
    m_grid = eigenvalue_of_frequency(nu_grid)
    peak_m = m_grid[np.argmax(rho[0])]
    cell = np.max(np.abs(np.diff(m_grid)))
    assert abs(peak_m - 0.5) <= cell


def _density_states(n):
    """The fig2 packet at t = 2 and t = 32 on the fig2 window, and a random smooth state."""
    g = make_log_grid(5e-15, 50.0, n)
    packet = normalize_state(to_energy_state(GaussianPacketParams(1.0, 0.64, 0.3), g))
    rng = np.random.default_rng(n)
    return {"packet_t2": evolve(packet, 2.0), "packet_t32": evolve(packet, 32.0),
            "random": random_smooth_state(make_log_grid(1e-3, 1e3, n), rng)}


@pytest.mark.parametrize("n", [257, 1000, 4096])
@pytest.mark.parametrize("which", ["packet_t2", "packet_t32", "random"])
def test_eigen_density_matches_ndft(n, which):
    # rho * |dm/dnu| = |chat|^2 against the defining sum at the same nu.  Two
    # or three points may all lie in the tails, where the frame's own peak is
    # roundoff-sized, so the scale is the state's peak |chat|^2 on the FFT
    # lattice.  rho itself is not compared pointwise: 1/(2 pi m (1 - m))
    # amplifies roundoff at the m -> 0 tail.
    state = _density_states(n)[which]
    peak = np.max(np.abs(forward_mellin(state).coefficients) ** 2)
    for points in (2, 3, 801):
        for nu_max in (12.0, 100.0):
            nu, rho = eigen_density(state, -5.5, nu_max, points)
            assert nu.shape == (points,) and rho.shape == (2, points)
            assert nu[0] == -5.5 and nu[-1] == nu_max
            weight = rho * frequency_jacobian(eigenvalue_of_frequency(nu))
            exact = np.abs(mellin_ndft(state, nu)) ** 2
            assert np.max(np.abs(weight - exact)) <= 1e-12 * peak, (points, nu_max)


def test_eigen_density_frame_memory_far_below_ndft():
    # the NDFT oracle builds 512 x n complex kernel chunks: 33.5 MB at n = 4096
    state = _density_states(4096)["packet_t2"]
    tracemalloc.start()
    try:
        eigen_density(state, -5.5, 100.0, 801)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_eigen_density_pads_to_the_smallest_5_smooth_length(monkeypatch):
    # n + points - 1 = 4896 points pad to 5000, where a power of two is 8192
    state = _density_states(4096)["packet_t2"]
    lengths = []
    fft = np.fft.fft

    def recorded(a, n=None, *args, **kwargs):
        lengths.append(n)
        return fft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recorded)
    eigen_density(state, -5.5, 100.0, 801)
    assert lengths == [5000, 5000]


def test_eigen_density_first_moment_matches_dense_path(rng, wide_grid):
    op = build_dense_m(wide_grid, "parity")
    for _ in range(3):
        f = random_smooth_state(wide_grid, rng)
        _, first = eigen_density_moments(f)
        dense = expectation_m(f, path="direct", operator=op)
        assert abs(first - dense) <= 1e-6


def test_eigen_density_rejects_eigenvalues_outside_unit_interval(rng, wide_grid):
    # m(nu) rounds to 1 below nu of about -5.9 and to 0 above about 113
    f = random_smooth_state(wide_grid, rng)
    for bad in ((-7.0, 0.0), (0.0, 120.0), (-7.0, 120.0)):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            eigen_density(f, *bad, 11)


def test_eigen_density_rejects_non_finite_bounds_and_bad_lattices(rng, wide_grid):
    f = random_smooth_state(wide_grid, rng)
    for bounds in ((np.nan, 0.0), (0.0, np.nan), (-np.inf, 0.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            eigen_density(f, *bounds, 11)
    for bounds in ((1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="nu_start < nu_stop"):
            eigen_density(f, *bounds, 11)
    for points in (1, 0, -3, 2.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="points"):
            eigen_density(f, -1.0, 1.0, points)


# ---------------------------------------------------------------------------
# eigenfunction samples


def test_eigenfunction_modulus_at_m_half():
    g = make_log_grid(1e-4, 1e4, 257)
    state = sample_eigenfunction(0.5, "+", g)
    expected = g.points**-0.5 / np.pi
    assert np.allclose(np.abs(state.amplitudes[0]), expected, rtol=1e-13)
    assert np.all(state.amplitudes[1] == 0.0)


def test_eigenfunction_phase_winding():
    # between samples one u-unit apart the phase advances by -nu(m)
    g = make_log_grid(1.0, np.exp(10.0), 11)
    m = 0.8
    state = sample_eigenfunction(m, "+", g)
    ratios = state.amplitudes[0, 1:] / state.amplitudes[0, :-1]
    expected = -frequency_of_eigenvalue(m)
    assert np.allclose(np.angle(ratios), expected, atol=1e-12)


def test_eigenfunction_domain_errors():
    g = make_log_grid(1e-2, 1e2, 16)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            sample_eigenfunction(bad, "+", g)


def test_windowed_eigenfunctions_nearly_orthogonal():
    # far-separated frequencies against a slowly varying window
    g = make_log_grid(np.exp(-60.0), np.exp(60.0), 4096)
    window = gaussian_window(g, 12.0)
    for m1, m2 in ((0.1, 0.9), (0.2, 0.8)):
        a = normalize_state(windowed_eigenfunction(g, m1, "+", window))
        b = normalize_state(windowed_eigenfunction(g, m2, "+", window))
        overlap = abs(np.sum(g.weights * np.conj(a.amplitudes[0]) * b.amplitudes[0]))
        assert overlap <= 1e-3


# ---------------------------------------------------------------------------
# completeness kernel


KERNEL = lambda e, ep: -1.0 / (2j * np.pi * (e - ep))  # noqa: E731


def test_completeness_kernel_converges_to_cauchy_kernel():
    target = 0.15915494309189535j  # i/(2 pi) for (E, E') = (2, 1)
    value = completeness_kernel_check(2.0, 1.0, 1e-4)
    assert abs(value - target) <= 1e-3


def test_completeness_kernel_first_order_in_theta():
    thetas = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    errs = np.array(
        [abs(completeness_kernel_check(2.0, 1.0, th) - KERNEL(2.0, 1.0)) for th in thetas]
    )
    rates = errs[:-1] / errs[1:]
    assert np.all((rates > 8.0) & (rates < 12.0))


def test_completeness_kernel_diagonal_divergence():
    values = [abs(completeness_kernel_check(1.0, 1.0, th)) for th in (1e-2, 1e-4, 1e-6)]
    assert np.all(np.isfinite(values))
    assert values[0] < values[1] < values[2]


def test_completeness_kernel_swap_is_conjugate():
    v = completeness_kernel_check(3.0, 0.7, 1e-6)
    w = completeness_kernel_check(0.7, 3.0, 1e-6)
    assert v == pytest.approx(np.conj(w), rel=1e-12)


def test_completeness_kernel_domain_errors():
    with pytest.raises(ValueError):
        completeness_kernel_check(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        completeness_kernel_check(-1.0, 2.0, 1e-3)
    for args in ((1.0, 2.0, np.nan), (np.nan, 2.0, 1e-5), (1.0, np.inf, 1e-5),
                 (1.0, 2.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            completeness_kernel_check(*args)
    with pytest.raises(ValueError):
        completeness_kernel_quadrature(1.0, 2.0, -1e-3)


def test_completeness_quadrature_cross_checks_closed_form():
    closed = completeness_kernel_check(2.0, 1.0, 0.2)
    numeric = completeness_kernel_quadrature(2.0, 1.0, 0.2)
    assert abs(numeric - closed) <= 1e-6 * abs(closed)
