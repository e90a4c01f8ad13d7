import numpy as np
import pytest

from arrowm import (
    GaussianPacketParams,
    build_dense_m,
    evolve,
    expectation_m,
    make_log_grid,
    make_state,
    normalize_state,
    random_smooth_state,
    state_norm,
    to_energy_state,
    trajectory,
    windowed_eigenfunction,
)

from conftest import gaussian_window, zero_state

FIG_PARAMS = GaussianPacketParams(eta=1.0, p0=0.64, xi0=0.3)


def fig_packet(n=1024):
    grid = make_log_grid(5e-15, 50.0, n)
    return normalize_state(to_energy_state(FIG_PARAMS, grid))


def test_evolve_at_zero_time_is_identity(rng):
    g = make_log_grid(1e-2, 1e2, 128)
    f = random_smooth_state(g, rng)
    out = evolve(f, 0.0)
    assert np.array_equal(out.amplitudes, f.amplitudes)


def test_evolve_preserves_norm(rng):
    g = make_log_grid(1e-2, 1e2, 256)
    f = random_smooth_state(g, rng)
    for t in rng.uniform(-20.0, 20.0, size=5):
        assert state_norm(evolve(f, t)) == pytest.approx(1.0, abs=1e-13)


def test_evolve_group_law(rng):
    g = make_log_grid(1e-2, 1e2, 256)
    f = random_smooth_state(g, rng)
    t1, t2 = 0.37, 1.41
    a = evolve(evolve(f, t1), t2)
    b = evolve(f, t1 + t2)
    diff = state_norm(make_state(g, f.channels, a.amplitudes - b.amplitudes))
    assert diff <= 1e-13


def test_expectation_lies_in_unit_interval(rng):
    g = make_log_grid(1e-3, 1e3, 512)
    for _ in range(5):
        f = random_smooth_state(g, rng)
        val = expectation_m(f)
        assert 0.0 <= val <= 1.0


def test_expectation_of_windowed_eigenfunction():
    # a slowly tapered eigenfunction at m = 0.7; the window's frequency spread
    # biases the value by ~ m''(nu) var(nu) / 2, kept below the 1e-2 budget
    g = make_log_grid(np.exp(-60.0), np.exp(60.0), 4096)
    state = normalize_state(windowed_eigenfunction(g, 0.7, "+", gaussian_window(g, 12.0)))
    assert expectation_m(state) == pytest.approx(0.7, abs=1e-2)


def test_expectation_paths_agree(rng, wide_grid):
    op = build_dense_m(wide_grid, "parity")
    for _ in range(3):
        f = random_smooth_state(wide_grid, rng)
        fast = expectation_m(f, path="fast")
        direct = expectation_m(f, path="direct", operator=op)
        assert abs(fast - direct) <= 1e-6


def test_expectation_zero_state_raises():
    g = make_log_grid(1e-2, 1e2, 64)
    with pytest.raises(ValueError):
        expectation_m(zero_state(g))


def test_expectation_unknown_path_raises(rng):
    g = make_log_grid(1e-2, 1e2, 64)
    with pytest.raises(ValueError):
        expectation_m(random_smooth_state(g, rng), path="magic")


def test_trajectory_rejects_bad_time_grids(rng):
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    with pytest.raises(ValueError):
        trajectory(f, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        trajectory(f, [1.0, 0.5, 2.0])
    with pytest.raises(ValueError):
        trajectory(f, [-1.0, 0.5])
    with pytest.raises(ValueError):
        trajectory(f, [1.0])


def test_trajectory_values_bounded_and_decreasing_for_packet():
    traj = trajectory(fig_packet(), np.linspace(0.0, 16.0, 81))
    assert np.all(traj.values >= -1e-9)
    assert np.all(traj.values <= 1.0 + 1e-9)
    assert traj.monotone_violations == []
    assert np.all(np.diff(traj.values) < 0.0)
    assert traj.values[0] == pytest.approx(0.5, abs=1e-9)


def test_trajectory_long_time_decay():
    packet = fig_packet()
    traj = trajectory(packet, np.array([0.0, 16.0, 32.0, 64.0]))
    assert traj.terminal_value < 0.5 * traj.values[0]
    assert traj.values[3] < traj.values[2] < traj.values[1]


def test_lyapunov_property_random_states(rng):
    # state energy support must satisfy E t_max << pi/du, or high-energy
    # tails alias in u and contaminate the expectation at the 1e-4 level
    g = make_log_grid(1e-3, 1e3, 1024)
    times = np.linspace(0.0, 5.0, 11)
    pairs = np.triu_indices(times.size, k=1)  # all (t_i, t_j) with t_j > t_i
    worst = -np.inf
    for _ in range(20):
        f = random_smooth_state(g, rng, center_fraction=0.08,
                                sigma_range=(0.35, 0.5), freq_max=2.0)
        vals = trajectory(f, times).values
        worst = max(worst, float(np.max((vals[None, :] - vals[:, None])[pairs])))
    assert worst <= 1e-8


def test_backward_time_expectation_increases(rng):
    # running the orbit backwards raises the expectation for every state:
    # the ordering detects the direction of time
    packet = fig_packet()
    assert expectation_m(evolve(packet, -2.0)) > expectation_m(packet) + 1e-3
    g = make_log_grid(1e-3, 1e3, 1024)
    for _ in range(3):
        f = random_smooth_state(g, rng)
        forward = expectation_m(evolve(f, 1.5))
        backward = expectation_m(evolve(f, -1.5))
        now = expectation_m(f)
        assert backward >= now >= forward


def test_mirrored_packet_has_identical_expectation_trajectory():
    # reflecting the packet (p0 -> -p0) swaps the channels and leaves the
    # expectation unchanged; reversed playback is distinguished by the value
    grid = make_log_grid(5e-15, 50.0, 1024)
    left = normalize_state(to_energy_state(GaussianPacketParams(1.0, -0.64, 0.3), grid))
    right = fig_packet()
    for t in (0.0, 2.0, 8.0):
        assert expectation_m(evolve(left, t)) == pytest.approx(
            expectation_m(evolve(right, t)), abs=1e-12
        )
