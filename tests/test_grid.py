import warnings

import numpy as np
import pytest

from arrowm import (
    LogEnergyGrid,
    evolve,
    forward_mellin,
    inner_product,
    inverse_mellin,
    make_log_grid,
    make_state,
    normalize_state,
    random_smooth_state,
    state_norm,
)

from conftest import zero_state


def test_two_point_grid_hits_endpoints():
    g = make_log_grid(1.0, np.e, 2)
    assert g.points == pytest.approx([1.0, np.e], rel=1e-15)
    assert g.du == pytest.approx(1.0, rel=1e-15)


def test_uniform_log_spacing_seven_points():
    g = make_log_grid(1e-3, 1e3, 7)
    assert g.du == pytest.approx(np.log(1e6) / 6, rel=1e-14)
    assert np.allclose(np.diff(g.log_points), g.du, rtol=1e-13, atol=0.0)


def test_weight_sum_matches_interval_length():
    # trapezoidal weights approximate int dE over the truncated window
    g = make_log_grid(1e-4, 1e4, 4096)
    exact = 1e4 - 1e-4
    assert abs(np.sum(g.weights) - exact) / exact < 1e-3


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_weight_sum_tolerance_from_256(n):
    g = make_log_grid(1e-3, 1e3, n)
    exact = 1e3 - 1e-3
    assert abs(np.sum(g.weights) - exact) / exact < 1e-3


@pytest.mark.parametrize("bounds,n", [((1e-3, 1e3), 512), ((1e-4, 1e4), 4096)])
def test_log_spacing_uniformity(bounds, n):
    g = make_log_grid(*bounds, n)
    assert np.max(np.abs(np.diff(g.log_points) - g.du)) <= 1e-12 * g.du


def test_points_increasing_and_positive():
    g = make_log_grid(1e-5, 1e2, 300)
    assert np.all(g.points > 0.0)
    assert np.all(np.diff(g.points) > 0.0)
    assert np.all(g.weights > 0.0)


def test_quadrature_convergence_order():
    # integral of e^{-E}: trapezoid in u should be (at least) second order
    a, b = 1e-3, 30.0
    exact = np.exp(-a) - np.exp(-b)
    errs = []
    for n in (257, 513, 1025, 2049):
        g = make_log_grid(a, b, n)
        errs.append(abs(np.sum(g.weights * np.exp(-g.points)) - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9)


@pytest.mark.parametrize(
    "args",
    [(0.0, 1.0, 8), (-1.0, 1.0, 8), (1.0, 1.0, 8), (2.0, 1.0, 8), (1.0, 2.0, 1), (1.0, 2.0, 2.5),
     (1e-3, np.inf, 8), (np.nan, 1.0, 8), (1.0, np.nan, 8), (1.0, 2.0, np.inf),
     (1.0, 2.0, np.nan), (1e-320, 1.0, 8), (1e-300, 1e308, 64), (1e-3, 1.7e308, 64),
     # a subnormal first weight e_min du / 2 (every weight is 0.0 on the first grid)
     (2.3e-308, 2.3e-308 * (1 + 1e-13), 10000), (2.3e-308, 1.0, 1024), (2.3e-308, 1.0, 4096)],
)
def test_make_log_grid_domain_errors(args):
    with pytest.raises(ValueError):
        make_log_grid(*args)
    with pytest.raises(ValueError):
        LogEnergyGrid(*args)


def test_grids_compare_and_hash_by_bounds_and_size():
    a = make_log_grid(1e-3, 1e3, 64)
    b = make_log_grid(1e-3, 1e3, 64)
    assert a == b and hash(a) == hash(b)
    assert a == LogEnergyGrid(1e-3, 1e3, 64)
    assert a != make_log_grid(1e-3, 1e3, 65)
    assert a != make_log_grid(1e-4, 1e3, 64)
    assert a != make_log_grid(1e-3, 1e4, 64)


def test_inner_product_of_normalized_state_is_one(rng):
    g = make_log_grid(1e-2, 1e2, 256)
    f = random_smooth_state(g, rng)
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_disjoint_channel_support():
    g = make_log_grid(1e-2, 1e2, 64)
    amp = np.exp(-((g.log_points) ** 2))
    a = make_state(g, ("+", "-"), np.stack([amp, np.zeros_like(amp)]))
    b = make_state(g, ("+", "-"), np.stack([np.zeros_like(amp), amp]))
    assert inner_product(a, b) == 0.0


def test_inner_product_conjugate_symmetry(rng):
    g = make_log_grid(1e-2, 1e2, 256)
    f = random_smooth_state(g, rng)
    h = random_smooth_state(g, rng)
    lhs = inner_product(f, h)
    rhs = np.conj(inner_product(h, f))
    assert abs(lhs - rhs) <= 1e-14 * state_norm(f) * state_norm(h)


def test_inner_product_self_is_real_nonnegative(rng):
    g = make_log_grid(1e-2, 1e2, 256)
    for _ in range(5):
        f = random_smooth_state(g, rng)
        q = inner_product(f, f)
        assert q.real >= 0.0
        assert abs(q.imag) <= 1e-14 * q.real


def test_inner_product_structure_mismatch_errors(rng):
    g1 = make_log_grid(1e-2, 1e2, 64)
    g2 = make_log_grid(1e-2, 1e2, 65)
    f1 = random_smooth_state(g1, rng)
    f2 = random_smooth_state(g2, rng)
    with pytest.raises(ValueError):
        inner_product(f1, f2)
    other = make_state(g1, ("a", "b"), f1.amplitudes)
    with pytest.raises(ValueError):
        inner_product(f1, other)


def test_make_state_shape_validation():
    g = make_log_grid(1e-2, 1e2, 64)
    with pytest.raises(ValueError):
        make_state(g, ("+", "-"), np.zeros((2, 63)))


def test_make_state_copies_the_callers_array():
    g = make_log_grid(1e-2, 1e2, 64)
    for amps in (np.ones((2, 64), dtype=complex), np.ones(64)):
        f = make_state(g, ("+", "-")[: amps.ndim], amps)
        assert not np.shares_memory(f.amplitudes, amps)
        assert not f.amplitudes.flags.writeable
        amps[0] = 5.0  # the caller's array stays writable and the state unchanged
        assert np.all(f.amplitudes == 1.0)


def test_library_states_are_read_only(rng):
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    for state in (evolve(f, 1.0), normalize_state(f), inverse_mellin(forward_mellin(f))):
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0, 0] = 1.0


def test_normalize_zero_state_raises():
    g = make_log_grid(1e-2, 1e2, 64)
    with pytest.raises(ValueError):
        normalize_state(zero_state(g))


@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-160, 1e-170])
def test_state_norm_keeps_its_range(scale, rng):
    # |a|^2 overflows at 1e160 or 1e300 and underflows into subnormals at 1e-160 or to
    # zero at 1e-170, so the norm read inf, a few tenths of a percent off, or
    # 0.0 until it divided the amplitudes by max|a| first
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    scaled = make_state(g, f.channels, f.amplitudes * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = state_norm(scaled)
        back = normalize_state(scaled)
    expected = scale * state_norm(f)
    assert abs(norm - expected) <= 1e-15 * expected
    assert state_norm(back) == pytest.approx(1.0, abs=1e-15)


def test_state_norm_inside_the_safe_band_is_the_plain_sum(rng):
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    for scale in (1.0, 1e-99, 1e99):
        a = f.amplitudes * scale
        plain = float(np.sqrt(np.sum(g.weights * np.abs(a) ** 2)))
        assert state_norm(make_state(g, f.channels, a)) == plain, scale


def test_state_norm_commutes_with_powers_of_two():
    # the moduli are scaled by the power of two of their peak before they
    # are squared, so the norm of 2^k psi is 2^k ||psi|| bit for bit; dividing
    # by the peak would round (2.2e-16 off for about a third of these)
    g = make_log_grid(1e-2, 1e2, 64)
    for seed in range(10):
        f = random_smooth_state(g, np.random.default_rng(seed))
        norm = state_norm(f)
        for k in (-900, -400, -1, 1, 400, 1000):
            scaled = np.ldexp(f.amplitudes.view(float), k).view(complex)
            assert state_norm(make_state(g, f.channels, scaled)) == np.ldexp(norm, k), (seed, k)


def test_state_and_grid_are_immutable(rng):
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    with pytest.raises(ValueError):
        f.amplitudes[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.points[0] = 2.0
