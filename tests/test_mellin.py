import numpy as np
import pytest
from scipy.special import expit, logit

from arrowm import (
    LogEnergyGrid,
    MellinSpectrum,
    apply_m_direct,
    apply_m_fast,
    build_dense_m,
    completeness_kernel_check,
    eigen_density,
    eigen_density_moments,
    eigenvalue_of_frequency,
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
    state_norm,
    windowed_eigenfunction,
)
from conftest import completeness_kernel_quadrature, gaussian_window, interior_residual


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
    for bad in (0.0, 1.0, -0.2, 1.7):
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
    nu_grid = np.linspace(-2.0, 2.0, 401)
    m_grid = eigenvalue_of_frequency(nu_grid)
    rho = eigen_density(state, m_grid)
    peak_m = m_grid[np.argmax(rho[0])]
    cell = np.max(np.abs(np.diff(m_grid)))
    assert abs(peak_m - 0.5) <= cell


def test_eigen_density_first_moment_matches_dense_path(rng, wide_grid):
    op = build_dense_m(wide_grid, "parity")
    for _ in range(3):
        f = random_smooth_state(wide_grid, rng)
        _, first = eigen_density_moments(f)
        dense = expectation_m(f, path="direct", operator=op)
        assert abs(first - dense) <= 1e-6


def test_eigen_density_rejects_eigenvalues_outside_unit_interval(rng, wide_grid):
    f = random_smooth_state(wide_grid, rng)
    for bad in ([0.0, 0.5], [0.5, 1.0], [-0.1], [1.1]):
        with pytest.raises(ValueError):
            eigen_density(f, bad)


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
    with pytest.raises(ValueError):
        completeness_kernel_quadrature(1.0, 2.0, -1e-3)


def test_completeness_quadrature_cross_checks_closed_form():
    closed = completeness_kernel_check(2.0, 1.0, 0.2)
    numeric = completeness_kernel_quadrature(2.0, 1.0, 0.2)
    assert abs(numeric - closed) <= 1e-6 * abs(closed)
