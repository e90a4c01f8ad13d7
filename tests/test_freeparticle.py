import re

import numpy as np
import pytest
from scipy.special import erfc, ndtr

from arrowm import (
    GaussianPacketParams,
    evolve,
    expectation_m,
    make_log_grid,
    make_state,
    momentum_wavefunction,
    normalize_state,
    packet_tail_mass,
    position_density,
    position_spread,
    position_wavefunction,
    state_norm,
    to_energy_state,
    trajectory,
)
from conftest import WIDE_BOUNDS, packet_expectation_reference

PARAMS = GaussianPacketParams(eta=1.0, p0=0.64, xi0=0.3)
FIG_BOUNDS = (5e-15, 50.0)


def fourier_to_momentum(params, ps, t=0.0, x_half=40.0, nx=16001):
    """Quadrature Fourier transform (2 pi)^{-1/2} int e^{-ipx} psi(x, t) dx."""
    center = params.p0 / params.eta * t
    x = np.linspace(center - x_half, center + x_half, nx)
    psi = position_wavefunction(params, x, t)
    dx = x[1] - x[0]
    out = np.empty(len(ps), dtype=complex)
    for k, p in enumerate(ps):  # modest sizes; clarity over speed
        out[k] = np.sum(np.exp(-1j * p * x) * psi) * dx / np.sqrt(2.0 * np.pi)
    return out


def test_params_validation():
    with pytest.raises(ValueError):
        GaussianPacketParams(eta=0.0, p0=0.1, xi0=0.3)
    with pytest.raises(ValueError):
        GaussianPacketParams(eta=1.0, p0=0.1, xi0=-0.3)
    for field in ("eta", "p0", "xi0"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                GaussianPacketParams(**{"eta": 1.0, "p0": 0.64, "xi0": 0.3, field: bad})


@pytest.mark.parametrize("xi0", [1e-170, 1e-160, 1e-154, 1e155, 1e160])
def test_params_reject_a_width_whose_square_is_not_a_normal_float(xi0):
    with pytest.raises(ValueError, match="square outside the normal floats"):
        GaussianPacketParams(eta=1.0, p0=0.64, xi0=xi0)


def test_narrow_packet_tail_reads_zero_without_overflow_warnings():
    narrow = GaussianPacketParams(eta=1.0, p0=0.64, xi0=1e-100)
    assert np.array_equal(momentum_wavefunction(narrow, [1e10, -1e200]), [0.0, 0.0])


def test_packet_factor_overflow_raises():
    heavy = GaussianPacketParams(eta=1e10, p0=0.64, xi0=0.3)
    with pytest.raises(ValueError, match="overflows at e_min"):
        to_energy_state(heavy, make_log_grid(1e-300, 50.0, 64))


def fig2_frame(t):
    """The x-range of an ``arrow-m fig2`` frame at t: center +- 8.5 spreads, 2001 points."""
    center = PARAMS.p0 / PARAMS.eta * t
    half = 8.5 * position_spread(PARAMS, t)
    return np.linspace(center - half, center + half, 2001)


@pytest.mark.parametrize("t", [1e160, -1e160])
def test_position_spread_overflow_raises_naming_t(t):
    with pytest.raises(ValueError, match=re.escape(f"t = {t:g} overflows")):
        position_spread(PARAMS, t)


def test_position_density_overflow_raises_naming_t():
    dens = position_density(PARAMS, fig2_frame(5e153), 5e153)
    assert np.all(np.isfinite(dens)) and np.max(dens) > 0.0
    with pytest.raises(ValueError, match="t = 1e[+]154 overflows"):
        position_density(PARAMS, fig2_frame(1e154), 1e154)


# ---------------------------------------------------------------------------
# momentum representation: derived from the position form, checked by quadrature


def test_momentum_wavefunction_matches_quadrature_fourier_transform():
    ps = np.linspace(-0.6, 2.0, 53)
    numeric = fourier_to_momentum(PARAMS, ps)
    closed = momentum_wavefunction(PARAMS, ps)
    assert np.max(np.abs(numeric - closed)) <= 1e-10


def test_momentum_peak_value():
    peak = abs(momentum_wavefunction(PARAMS, PARAMS.p0))
    assert peak == pytest.approx((np.pi * PARAMS.xi0**2) ** -0.25, rel=1e-14)


def test_momentum_width_ratio():
    ratio = abs(momentum_wavefunction(PARAMS, PARAMS.p0 + PARAMS.xi0)) / abs(
        momentum_wavefunction(PARAMS, PARAMS.p0)
    )
    assert ratio == pytest.approx(np.exp(-0.5), rel=1e-14)


def test_momentum_norm_by_quadrature():
    p = np.linspace(-6.0, 8.0, 200001)
    mass = np.trapezoid(np.abs(momentum_wavefunction(PARAMS, p)) ** 2, p)
    assert mass == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# position density


def test_position_density_normalized_at_t0():
    x = np.linspace(-30.0, 30.0, 100001)
    mass = np.trapezoid(position_density(PARAMS, x, 0.0), x)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_position_density_spreads_and_drifts():
    x = np.linspace(-40.0, 80.0, 240001)
    prev_var = None
    for t in (0.0, 2.0, 5.0, 10.0):
        dens = position_density(PARAMS, x, t)
        mass = np.trapezoid(dens, x)
        mean = np.trapezoid(x * dens, x) / mass
        var = np.trapezoid((x - mean) ** 2 * dens, x) / mass
        assert var == pytest.approx(position_spread(PARAMS, t) ** 2, rel=1e-10)
        if prev_var is not None:
            assert var > prev_var
        prev_var = var
        peak = x[np.argmax(dens)]
        assert abs(peak - PARAMS.p0 / PARAMS.eta * t) <= x[1] - x[0]


# ---------------------------------------------------------------------------
# energy representation


def test_energy_state_norm_within_tail_budget():
    grid = make_log_grid(*FIG_BOUNDS, 4096)
    state = to_energy_state(PARAMS, grid)
    assert abs(state_norm(state) ** 2 - 1.0) <= 1e-8


def test_norm_chain_position_momentum_energy():
    x = np.linspace(-30.0, 30.0, 100001)
    pos = np.trapezoid(position_density(PARAMS, x, 0.0), x)
    p = np.linspace(-6.0, 8.0, 200001)
    mom = np.trapezoid(np.abs(momentum_wavefunction(PARAMS, p)) ** 2, p)
    grid = make_log_grid(*FIG_BOUNDS, 4096)
    eng = state_norm(to_energy_state(PARAMS, grid)) ** 2
    for mass in (pos, mom, eng):
        assert abs(mass - 1.0) <= 1e-8


def test_negative_channel_mass_matches_tail_quadrature():
    # oracle first: quadrature of |phi|^2 over p < 0
    p = np.linspace(-8.0, 0.0, 400001)
    oracle = np.trapezoid(np.abs(momentum_wavefunction(PARAMS, p)) ** 2, p)
    grid = make_log_grid(*FIG_BOUNDS, 4096)
    state = to_energy_state(PARAMS, grid)
    minus = np.sum(grid.weights * np.abs(state.amplitudes[1]) ** 2)
    assert abs(minus - oracle) <= 1e-4
    assert abs(minus - oracle) <= 1e-7  # measured agreement is much tighter
    # the closed form of the same tail integral
    assert oracle == pytest.approx(0.5 * erfc(PARAMS.p0 / PARAMS.xi0), abs=1e-10)


def test_zero_momentum_packet_has_mirror_symmetric_channels():
    # centered packet peaks at p = 0, so the E -> 0 fold needs a deeper e_min
    grid = make_log_grid(1e-20, 60.0, 1024)
    state = to_energy_state(GaussianPacketParams(1.0, 0.0, 0.3), grid)
    assert np.array_equal(state.amplitudes[0], state.amplitudes[1])


def test_tail_safety_violation_raises_with_hint():
    grid = make_log_grid(1e-6, 50.0, 512)
    assert packet_tail_mass(PARAMS, 1e-6, 50.0) > 1e-8  # ~5.6e-5 folds through E -> 0
    with pytest.raises(ValueError, match="widen"):
        to_energy_state(PARAMS, grid)


def test_packet_tail_mass_matches_normal_cdf():
    # |phi|^2 is a normal density with mean p0 and standard deviation xi0 / sqrt 2
    for params in (PARAMS, GaussianPacketParams(0.5, -2.0, 0.1),
                   GaussianPacketParams(3.0, 0.0, 1.0), GaussianPacketParams(1.0, 1.5, 0.3)):
        def cdf(p):
            return ndtr((p - params.p0) / (params.xi0 / np.sqrt(2.0)))

        for e_min in (1e-20, 5e-15, 1e-6, 1e-2):
            for e_max in (0.5, 50.0):
                lo, hi = np.sqrt(2.0 * params.eta * e_min), np.sqrt(2.0 * params.eta * e_max)
                expected = cdf(lo) - cdf(-lo) + 1.0 - (cdf(hi) - cdf(-hi))
                assert abs(packet_tail_mass(params, e_min, e_max) - expected) <= 1e-15


def test_evolution_commutes_with_energy_representation():
    # evolve-in-energy versus re-deriving the energy amplitudes from the
    # time-t packet through a quadrature Fourier transform
    grid = make_log_grid(*FIG_BOUNDS, 1024)
    state0 = normalize_state(to_energy_state(PARAMS, grid))
    t = 2.0
    evolved = evolve(state0, t)

    p = np.sqrt(2.0 * PARAMS.eta * grid.points)
    phi_t_plus = fourier_to_momentum(PARAMS, p, t=t, x_half=45.0, nx=24001)
    phi_t_minus = fourier_to_momentum(PARAMS, -p, t=t, x_half=45.0, nx=24001)
    jac = (PARAMS.eta / (2.0 * grid.points)) ** 0.25
    remapped = normalize_state(
        make_state(grid, ("+", "-"), np.stack([jac * phi_t_plus, jac * phi_t_minus]))
    )

    # the two states agree up to a global phase; compare expectations and overlap
    assert abs(expectation_m(evolved) - expectation_m(remapped)) <= 1e-6
    amp_diff = np.max(np.abs(np.abs(evolved.amplitudes) - np.abs(remapped.amplitudes)))
    assert amp_diff <= 1e-6


# ---------------------------------------------------------------------------
# the grid-free reference <M>(t) of the packet (conftest)


def test_reference_expectation_starts_at_one_half():
    # the packet's f_pm(E) are real at t = 0, so |chat_pm(-nu)| = |chat_pm(nu)|,
    # and m(nu) + m(-nu) = 1 weighs each pair by 1/2 in total
    assert packet_expectation_reference(PARAMS, 0.0) == pytest.approx(0.5, abs=1e-14)


def test_direct_route_on_the_fig1_window_meets_the_reference():
    # measured -7.5e-10, -1.8e-9 and -2.0e-9: the mass below e_min.  The fast
    # route is off by up to 2.3e-6 here, the wrap of its circulant in u
    times = [2.0, 8.0, 32.0]
    state = normalize_state(to_energy_state(PARAMS, make_log_grid(*FIG_BOUNDS, 4096)))
    values = trajectory(state, times, path="direct").values
    for t, value in zip(times, values):
        assert abs(value - packet_expectation_reference(PARAMS, t)) <= 3e-9, t


@pytest.mark.parametrize("path", ["fast", "direct"])
def test_both_routes_on_the_wide_window_meet_the_reference(path):
    # measured at most 2.8e-13
    times = [2.0, 8.0, 32.0]
    state = normalize_state(to_energy_state(PARAMS, make_log_grid(*WIDE_BOUNDS, 4096)))
    values = trajectory(state, times, path=path).values
    for t, value in zip(times, values):
        assert abs(value - packet_expectation_reference(PARAMS, t)) <= 1e-12, t


def test_reference_expectation_follows_the_long_time_law():
    # <M>(t) ~ C t^{-1/2} (1 + D/t) from Watson's lemma at E = 0, with
    # C = (2/pi) K^2 Gamma(3/4)^2 and D = A^2 Gamma(5/4)^2 / (3 Gamma(3/4)^2);
    # the next term's relative size is about (D/t)^2 = 3.2e-4 at t = 1024
    # (measured 1.9e-4)
    t, C, D = 1024.0, 0.013419, 18.44
    law = C * t**-0.5 * (1.0 + D / t)
    assert packet_expectation_reference(PARAMS, t) == pytest.approx(law, rel=3.2e-4)
