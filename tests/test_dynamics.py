import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrowm
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

from arrowm import dynamics
from arrowm.dynamics import _SAFE_EXPONENTS
from arrowm.mellin import _grid_factors
from conftest import WIDE_BOUNDS, gaussian_window, zero_state

FIG_PARAMS = GaussianPacketParams(eta=1.0, p0=0.64, xi0=0.3)


def fig_packet(n=1024, bounds=(5e-15, 50.0)):
    grid = make_log_grid(*bounds, n)
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


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_evolve_rejects_a_non_finite_time(t, rng):
    f = random_smooth_state(make_log_grid(1e-2, 1e2, 64), rng)
    with pytest.raises(ValueError, match="finite"):
        evolve(f, t)


@pytest.mark.parametrize("path", dynamics.PATHS)
@pytest.mark.parametrize("t", [1e300, -1e300, 1e100])
def test_times_whose_phases_keep_no_digit_are_refused(t, path):
    # E |t| >= 2^52 on all of the fig1 packet's mass; the time is named, and
    # the masses are summed without overflow for amplitudes of 1e300 too
    packet = fig_packet(256)
    named = re.escape(f"at t = {t:g} the phases")
    for scale in (1.0, 1e300):
        f = make_state(packet.grid, packet.channels, packet.amplitudes * scale)
        with pytest.raises(ValueError, match=named):
            evolve(f, t)
        with pytest.raises(ValueError, match=named):
            trajectory(f, sorted([0.0, t]), path=path)


def test_phase_digit_guard_weighs_mass_not_support():
    # random_smooth_state on the wide window is nonzero up to E = 2.3e16, so
    # E t passes 2^52 on its support at t = 1e7, but only 6e-105 of its mass
    # lies there; the fig1 packet keeps no mass there up to t = 1e13
    f = random_smooth_state(make_log_grid(*WIDE_BOUNDS, 4096), np.random.default_rng(12345))
    assert f.grid.points[dynamics._support(f).stop - 1] * 1e7 >= 2.0**52
    assert state_norm(evolve(f, 1e7)) == pytest.approx(1.0, abs=1e-12)
    trajectory(fig_packet(4096), [0.0, 1e13], path="fast")


def test_evolve_keeps_zeros_outside_the_support():
    # on the wide window the packet is exactly 0.0 above E of about 74, where
    # E t reaches 1e22 and a phase would cost a slow range reduction
    state = fig_packet(4096, WIDE_BOUNDS)
    support = dynamics._support(state)
    assert (support.start, support.stop) == (0, 2274)
    a = state.amplitudes
    for t in (0.37, 8.0, 32.0):
        out = evolve(state, t).amplitudes
        assert np.all(out[:, support.stop:] == 0.0)
        expected = a * np.exp(-1j * state.grid.points * t)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-15 * np.max(np.abs(a)))


def test_evolve_of_the_zero_state_is_zero():
    g = make_log_grid(1e-2, 1e2, 64)
    assert dynamics._support(zero_state(g)) == slice(0, 0)
    out = evolve(zero_state(g), 3.0).amplitudes
    assert out.shape == (2, 64) and np.all(out == 0.0)


def test_evolve_of_a_single_column():
    g = make_log_grid(1e-2, 1e2, 64)
    amps = np.zeros((2, 64), dtype=complex)
    amps[1, 17] = 0.5 - 2.0j
    f = make_state(g, ("+", "-"), amps)
    assert dynamics._support(f) == slice(17, 18)
    out = evolve(f, 1.3).amplitudes
    expected = amps[1, 17] * np.exp(-1j * g.points[17] * 1.3)
    assert out[1, 17] == pytest.approx(expected, rel=1e-15)
    assert np.count_nonzero(out) == 1


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


@pytest.mark.parametrize("scale", [np.nan])
def test_fast_path_rejects_a_non_finite_mass(scale, rng):
    # a NaN amplitude would read as <M> = nan
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    f = make_state(g, f.channels, f.amplitudes * scale)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        expectation_m(f)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        trajectory(f, [0.0, 1.0])


@pytest.mark.parametrize("scale", [np.nan, np.inf])
def test_direct_path_and_normalize_reject_a_non_finite_norm(scale, rng):
    # the norm reads nan or inf, so <M> would read nan; normalizing NaN or
    # inf amplitudes would give a NaN or zero state
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    with np.errstate(all="ignore"):
        f = make_state(g, f.channels, f.amplitudes * scale)
        with pytest.raises(ValueError, match="not finite"):
            expectation_m(f, path="direct")
        with pytest.raises(ValueError, match="not finite"):
            trajectory(f, [0.0, 1.0], path="direct")
        with pytest.raises(ValueError, match="not finite"):
            normalize_state(f)


def test_direct_path_rejects_a_finite_norm_whose_square_overflows():
    # max|a| = 2^399 lies inside the safe band, so the state is taken as
    # given; its norm is finite but the direct route's ||psi||^2 reads inf
    g = make_log_grid(1e-3, 1e300, 64)
    amps = np.zeros((2, g.n), dtype=complex)
    amps[0, 32:40] = 2.0**399
    f = make_state(g, ("+", "-"), amps)
    assert 8e212 < state_norm(f) < 9e212
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            expectation_m(f, path="direct")
        with pytest.raises(ValueError, match="not finite"):
            trajectory(f, [0.0, 1.0], path="direct")


def test_expectation_is_invariant_under_scaling():
    # the norm check never fires inside the domain: <M> of c psi is <M> of
    # psi for every c that keeps each amplitude of c psi a normal float, on
    # both routes and along an orbit
    g = make_log_grid(1e-3, 1e3, 256)
    op = build_dense_m(g)
    times = np.linspace(0.0, 2.0, 5)

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        position=st.floats(0.0, 1.0),
        phase=st.floats(-np.pi, np.pi),
    )
    def check(seed, position, phase):
        f = random_smooth_state(g, np.random.default_rng(seed))
        a = np.abs(f.amplitudes[f.amplitudes != 0.0])
        low = np.log10(np.finfo(float).tiny) - np.log10(a.min()) + 1.0
        high = np.log10(np.finfo(float).max) - np.log10(a.max()) - 1.0
        c = 10.0 ** (low + position * (high - low)) * np.exp(1j * phase)
        scaled = make_state(g, f.channels, f.amplitudes * c)
        for path in ("fast", "direct"):
            a = expectation_m(f, path, op)
            assert abs(expectation_m(scaled, path, op) - a) <= 1e-14, path
            orbit = trajectory(f, times, path, op).values
            assert np.max(np.abs(trajectory(scaled, times, path, op).values - orbit)) <= 1e-14

    check()


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e300])
def test_expectation_of_a_tiny_or_huge_state(scale):
    # |chat|^2 and w |a|^2 go subnormal (1e-160: the fast route read 2.2e-4
    # off, the direct one a false imaginary part), vanish (1e-170) or
    # overflow (1e160, 1e300) unless the state is first scaled by a power of 2
    g = make_log_grid(1e-3, 1e3, 64)
    f = random_smooth_state(g, np.random.default_rng(1))
    scaled = make_state(g, f.channels, f.amplitudes * scale)
    times = [0.0, 0.5, 1.0]
    with np.errstate(all="raise"):
        for path in ("fast", "direct"):
            assert abs(expectation_m(scaled, path) - expectation_m(f, path)) <= 1e-14, path
            diff = trajectory(scaled, times, path).values - trajectory(f, times, path).values
            assert np.max(np.abs(diff)) <= 1e-14, path


def test_states_inside_the_safe_band_are_taken_as_given(rng):
    # ordinary states take no new path, so their values stay bit-identical.
    # Scaled by 2^k so that max|a| lies in [2^(k-1), 2^k), at the band's two
    # end binades (k = -399 and 400) and inside it, the fast <M> and the
    # fast trajectory, whose rows carry the transform's constants, equal the
    # unscaled values exactly: their sums of re^2 + im^2 neither overflow
    # nor go subnormal (0.0 measured for 4 seeds on these 9 grids)
    times = np.linspace(0.0, 2.0, 9)
    for bounds in ((1e-3, 1e3), WIDE_BOUNDS, (5e-15, 50.0)):
        for n in (64, 257, 4096):
            g = make_log_grid(*bounds, n)
            f = random_smooth_state(g, rng)
            floats = f.amplitudes.view(float)
            peak = math.frexp(np.max(np.abs(f.amplitudes)))[1]
            orbit = trajectory(f, times).values
            for k in (_SAFE_EXPONENTS[0], 0, 1, _SAFE_EXPONENTS[1]):
                inside = make_state(g, f.channels, np.ldexp(floats, k - peak).view(complex))
                assert dynamics._in_safe_range(inside) is inside
                assert expectation_m(inside) == expectation_m(f), (bounds, n, k)
                assert np.array_equal(trajectory(inside, times).values, orbit), (bounds, n, k)
            far = make_state(g, f.channels, np.ldexp(floats, _SAFE_EXPONENTS[0] - 2 - peak)
                             .view(complex))
            assert 0.5 <= np.max(np.abs(dynamics._in_safe_range(far).amplitudes)) < 1.0


def test_direct_path_builds_the_operator_when_none_is_given(rng):
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    assert expectation_m(f, "direct") == expectation_m(f, "direct", build_dense_m(g))


def test_direct_path_raises_on_an_imaginary_part(rng):
    # an imaginary T_00 is the one non-Hermitian T a column holds (its first
    # row is the column's conjugate past T_00), so the quadratic form is complex
    g = make_log_grid(1e-2, 1e2, 64)
    op = build_dense_m(g)
    broken = dataclasses.replace(op, column=op.column + 1e-3j * (np.arange(g.n) == 0))
    f = random_smooth_state(g, rng)
    with pytest.raises(ArithmeticError, match="imaginary part"):
        expectation_m(f, "direct", broken)
    with pytest.raises(ArithmeticError, match="imaginary part"):
        trajectory(f, np.linspace(0.0, 2.0, 5), path="direct", operator=broken)


def test_direct_trajectory_refuses_a_bad_state_before_building_the_operator(monkeypatch, rng):
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    calls = []

    def counted(grid, *args):
        calls.append(grid)
        return build_dense_m(grid, *args)

    monkeypatch.setattr(dynamics, "build_dense_m", counted)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        trajectory(make_state(g, f.channels, f.amplitudes * np.nan), [0.0, 1.0], path="direct")
    with pytest.raises(ValueError, match="zero state"):
        trajectory(zero_state(g), [0.0, 1.0], path="direct")
    assert calls == []
    trajectory(f, [0.0, 1.0], path="direct")
    assert len(calls) == 1


@pytest.mark.parametrize("n", [257, 4096])
def test_direct_trajectory_equals_per_time_expectations(n):
    # the wide packet (trailing zeros); on a progression the blocks take the
    # group law, off one every row is cos + i sin, as in evolve
    packet = fig_packet(n, WIDE_BOUNDS)
    op = build_dense_m(packet.grid)
    block = dynamics._block_size(packet)
    support = dynamics._support(packet)
    assert support.start == 0 and support.stop < n
    on = np.linspace(0.0, 32.0, 41)
    off = on.copy()
    off[7] += 1e-9 * (on[1] - on[0])
    for times, progression in ((on, True), (off, False)):
        steps = dynamics._progression_steps(packet, times, block, support)
        assert (steps is not None) == progression
        expected = [expectation_m(evolve(packet, t), "direct", op) for t in times]
        values = trajectory(packet, times, path="direct", operator=op).values
        assert np.max(np.abs(values - expected)) <= 1e-15


def test_direct_trajectory_in_one_time_blocks_equals_per_time_expectations():
    # at n = 24576 with two channels a block holds one time, so a progression
    # has no step rows and every time takes cos + i sin, as in evolve
    packet = fig_packet(24576, WIDE_BOUNDS)
    op = build_dense_m(packet.grid)
    times = np.linspace(0.0, 32.0, 41)
    assert dynamics._block_size(packet) == 1
    assert dynamics._progression_steps(packet, times, 1, dynamics._support(packet)) is None
    expected = [expectation_m(evolve(packet, t), "direct", op) for t in times]
    assert np.array_equal(trajectory(packet, times, path="direct", operator=op).values, expected)


def test_trajectory_zero_state_raises():
    g = make_log_grid(1e-2, 1e2, 64)
    for path in ("fast", "direct"):
        with pytest.raises(ValueError, match="zero state"):
            trajectory(zero_state(g), [0.0, 1.0], path=path)


def test_trajectory_builds_grid_factors_once(monkeypatch, rng):
    calls = []
    multiplier = arrowm.mellin.eigenvalue_of_frequency

    def counted(nu):
        calls.append(nu)
        return multiplier(nu)

    monkeypatch.setattr(arrowm.mellin, "eigenvalue_of_frequency", counted)
    _grid_factors.cache_clear()
    f = random_smooth_state(make_log_grid(1e-3, 1e3, 256), rng)
    trajectory(f, np.linspace(0.0, 5.0, 50))
    assert _grid_factors.cache_info().misses <= 1
    assert len(calls) <= 1


def test_trajectory_is_expectation_along_the_orbit(rng):
    # the orbit's rows carry the transform's constants and take no forward
    # prefactor, so they lie within rounding of the per-time values
    f = random_smooth_state(make_log_grid(1e-3, 1e3, 256), rng)
    times = np.linspace(0.0, 5.0, 20)
    expected = [expectation_m(evolve(f, t)) for t in times]
    assert np.max(np.abs(trajectory(f, times).values - expected)) <= 1e-15


@pytest.mark.parametrize("workers", [None, 1, 3])
@pytest.mark.parametrize("kind", ["fig1_4096", "wide_packet_4096", "random_257",
                                  "whole_line_4096", "wide_packet_24576"])
def test_fast_trajectory_blocks_equal_per_time_expectations(kind, workers, monkeypatch):
    # evenly spaced times: a block's first row takes cos + i sin as evolve
    # does, and its row r the group law U(t_q) U(r dt); moving one time off
    # the progression falls back to cos + i sin on every row.  Every row
    # carries the transform's constants, so all lie within 1e-15 of the
    # per-time values (4.4e-16 measured), and exactly the same at any
    # worker count
    t_start = 0.0
    if kind == "fig1_4096":
        state, t_end = fig_packet(4096), 32.0
    elif kind == "wide_packet_4096":
        state, t_end = fig_packet(4096, WIDE_BOUNDS), 32.0  # support 2274 of 4096
    elif kind == "random_257":
        rng = np.random.default_rng(257)
        state, t_end = random_smooth_state(make_log_grid(1e-3, 1e3, 257), rng), 5.0
    elif kind == "wide_packet_24576":
        state, t_end = fig_packet(24576, WIDE_BOUNDS), 32.0  # blocks of one time
    else:
        state, t_start, t_end = fig_packet(4096, WIDE_BOUNDS), -32.0, 32.0
    if workers is not None:
        monkeypatch.setattr(dynamics, "_WORKERS", workers)
    b = dynamics._block_size(state)
    workers = dynamics._WORKERS
    for count in sorted({2, b - 1, b, b + 1, 4 * b + 3} - {0, 1}):
        times = np.linspace(t_start, t_end, count)
        expected = np.array([expectation_m(evolve(state, t)) for t in times])
        values = trajectory(state, times).values
        assert np.max(np.abs(values[::b] - expected[::b])) <= 1e-15, count
        assert np.max(np.abs(values - expected)) <= 1e-15, count
        if count > 2:
            k = count // 2
            moved, moved_expected = times.copy(), expected.copy()
            moved[k] += 1e-9 * (times[1] - times[0])
            moved_expected[k] = expectation_m(evolve(state, moved[k]))
            diff = trajectory(state, moved).values - moved_expected
            assert np.max(np.abs(diff)) <= 1e-15, count
        for w in (1, 2, 3):
            monkeypatch.setattr(dynamics, "_WORKERS", w)
            assert np.array_equal(trajectory(state, times).values, values), (count, w)
        monkeypatch.setattr(dynamics, "_WORKERS", workers)


def test_fast_trajectory_follows_the_group_law_on_progressions():
    # Nyquist-safe states as in test_lyapunov_property_random_states: 400
    # random progressions to |t| of 39 measured at most 7.8e-16 from the
    # per-time values in blocks of 96 (5.6e-16 in blocks of 64, with a
    # table of phases); states whose tails alias drift further (6e-15
    # measured at |t| of 85 with the default random_smooth_state)
    g = make_log_grid(1e-3, 1e3, 256)
    b = dynamics._block_size(random_smooth_state(g, np.random.default_rng(0)))

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), t0=st.floats(-10.0, 10.0),
           dt=st.floats(1e-3, 0.1), count=st.integers(2, 3 * b))
    def check(seed, t0, dt, count):
        f = random_smooth_state(g, np.random.default_rng(seed), center_fraction=0.08,
                                sigma_range=(0.35, 0.5), freq_max=2.0)
        times = t0 + dt * np.arange(count)
        assert dynamics._progression_steps(f, times, b, dynamics._support(f)) is not None
        expected = np.array([expectation_m(evolve(f, t)) for t in times])
        values = trajectory(f, times).values
        assert np.max(np.abs(values[::b] - expected[::b])) <= 1e-15
        assert np.max(np.abs(values - expected)) <= 1e-15

    check()


@pytest.mark.parametrize("bounds", [(5e-15, 50.0), WIDE_BOUNDS], ids=["fig1", "wide"])
def test_fast_progression_block_starts_equal_the_times_off_a_progression(bounds, monkeypatch):
    # the group law's anchor: a block's first row takes cos + i sin times
    # the row scale, as every row does off a progression, so the two agree
    # bit for bit there
    state = fig_packet(4096, bounds)
    b = dynamics._block_size(state)
    for count in (b + 1, 4 * b + 3, 200):
        times = np.linspace(0.0, 32.0, count)
        assert dynamics._progression_steps(state, times, b, dynamics._support(state)) is not None
        on = trajectory(state, times).values
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_progression_steps", lambda *args: None)
            off = trajectory(state, times).values
        assert np.array_equal(on[::b], off[::b]), count
        assert np.max(np.abs(on - off)) <= 1e-15, count


def test_fast_trajectory_workspace_is_bounded(monkeypatch):
    # two workers, each holding one block's temporaries at a time: the
    # 6 x 2 x 4096 complex amplitudes, squared in place, and one phase row,
    # beside the 5 step rows of the group law: 2.40 MB measured
    monkeypatch.setattr(dynamics, "_WORKERS", 2)
    state = fig_packet(4096)
    times = np.linspace(0.0, 32.0, 4000)
    trajectory(state, times[:8])
    tracemalloc.start()
    try:
        trajectory(state, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_direct_trajectory_workspace_is_bounded():
    # one block of 6 evolved states, one apply_m_direct's FFT buffers and
    # the operator, built inside the call: 1.91 MB measured on the fig1
    # window (1.68 MB on the wide one, 1.65 MB with the operator given)
    state = fig_packet(4096)
    times = np.linspace(0.0, 32.0, 200)
    trajectory(state, times[:8], path="direct")
    tracemalloc.start()
    try:
        trajectory(state, times, path="direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6

def _recorded(fn, seen):
    def wrapper(*args, **kwargs):
        seen.add((fn.__name__, threading.current_thread()))
        return fn(*args, **kwargs)
    return wrapper


def _first_calls_meet(kernel, workers):
    """``kernel``, with each thread's first call waiting until every worker has made one.

    Blocks go to whichever worker is idle, so without this one worker could
    take every block; with it each worker holds a block before any takes a
    second.
    """
    barrier = threading.Barrier(workers, timeout=60)
    waited = set()

    def wrapper(*args):
        thread = threading.current_thread()
        if thread not in waited:
            waited.add(thread)
            barrier.wait()
        return kernel(*args)
    return wrapper


def _record_public_calls(monkeypatch, callers):
    """Wrap every public function, wherever the package binds it, as a tracer does."""
    modules = [arrowm.grid, arrowm.dynamics, arrowm.mellin, arrowm.operator,
               arrowm.freeparticle]
    for module in modules:
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                for other in (arrowm, *modules):
                    if getattr(other, name, None) is fn:
                        monkeypatch.setattr(other, name, _recorded(fn, callers))


def test_fast_trajectory_workers_call_no_public_function(monkeypatch, rng):
    # a tracer wraps the public functions and keeps one span stack per process
    monkeypatch.setattr(dynamics, "_WORKERS", 3)
    main = threading.main_thread()
    callers, block_threads = set(), set()
    _record_public_calls(monkeypatch, callers)
    monkeypatch.setattr(dynamics, "_block_moments", _first_calls_meet(
        _recorded(dynamics._block_moments, block_threads), 3))
    _grid_factors.cache_clear()
    f = random_smooth_state(make_log_grid(1e-3, 1e3, 256), rng)
    arrowm.trajectory(f, np.linspace(0.0, 5.0, 400))
    assert {"trajectory", "eigenvalue_of_frequency"} <= {name for name, _ in callers}
    assert {thread for _, thread in callers} == {main}
    assert len({thread for _, thread in block_threads}) == 3


def test_direct_trajectory_runs_on_the_calling_thread(monkeypatch, rng):
    # its blocks call apply_m_direct and inner_product, which a tracer wraps,
    # so they take one thread whatever the fast route's worker count
    f = random_smooth_state(make_log_grid(1e-3, 1e3, 256), rng)
    op = build_dense_m(f.grid)
    times = np.linspace(0.0, 5.0, 200)  # 4 blocks of 64
    monkeypatch.setattr(dynamics, "_WORKERS", 1)
    single = trajectory(f, times, path="direct", operator=op).values
    monkeypatch.setattr(dynamics, "_WORKERS", 3)
    callers = set()
    _record_public_calls(monkeypatch, callers)
    values = arrowm.trajectory(f, times, path="direct", operator=op).values
    assert {"trajectory", "apply_m_direct", "inner_product"} <= {name for name, _ in callers}
    assert {thread for _, thread in callers} == {threading.main_thread()}
    assert np.array_equal(values, single)


@pytest.mark.parametrize("path", dynamics.PATHS)
def test_trajectory_finds_support_and_steps_once(path, monkeypatch, rng):
    monkeypatch.setattr(dynamics, "_WORKERS", 3)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name in ("_support", "_progression_steps"):
        monkeypatch.setattr(dynamics, name, counted(getattr(dynamics, name)))
    f = random_smooth_state(make_log_grid(1e-3, 1e3, 256), rng)
    trajectory(f, np.linspace(0.0, 5.0, 200), path=path)  # 4 blocks of 64
    assert sorted(calls) == ["_progression_steps", "_support"]


def test_trajectory_owns_read_only_times_and_values(rng):
    # a float64 array of times used to be stored as given, so a later write
    # by the caller moved the times the violations were computed against
    f = random_smooth_state(make_log_grid(1e-3, 1e3, 64), rng)
    t = np.linspace(0.0, 1.0, 5)
    tr = trajectory(f, t)
    t[:] = -1.0
    assert tr.times is not t and tr.times[0] == 0.0
    for array in (tr.times, tr.values):
        with pytest.raises(ValueError):
            array[0] = 2.0


def test_trajectory_violations_are_an_immutable_tuple():
    # evolved to t = 512, the n = 1024 packet aliases and <M> rises again
    tr = trajectory(fig_packet(), np.linspace(0.0, 512.0, 200))
    violations = tr.monotone_violations
    assert isinstance(violations, tuple) and len(violations) > 0
    assert all(t0 < t1 and rise > dynamics.MONOTONE_TOL for t0, t1, rise in violations)
    with pytest.raises(AttributeError):
        violations.append((0.0, 1.0, 5.0))


def test_fast_trajectory_zero_state_raises_across_workers(monkeypatch):
    monkeypatch.setattr(dynamics, "_WORKERS", 3)
    g = make_log_grid(1e-2, 1e2, 4096)
    with pytest.raises(ValueError, match="zero state"):
        trajectory(zero_state(g), np.linspace(0.0, 1.0, 50))


def test_fast_trajectory_reraises_a_worker_error(monkeypatch, rng):
    monkeypatch.setattr(dynamics, "_WORKERS", 3)
    block = dynamics._block_moments

    def failing(grid, amplitudes):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker failed")
        return block(grid, amplitudes)

    monkeypatch.setattr(dynamics, "_block_moments", _first_calls_meet(failing, 3))
    f = random_smooth_state(make_log_grid(1e-3, 1e3, 4096), rng)
    with pytest.raises(FloatingPointError, match="worker failed"):
        trajectory(f, np.linspace(0.0, 5.0, 50))


def test_expectation_unknown_path_raises(rng):
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    with pytest.raises(ValueError, match="unknown path"):
        expectation_m(f, path="magic")
    with pytest.raises(ValueError, match="unknown path"):
        trajectory(f, [0.0, 1.0], path="magic")


def test_trajectory_rejects_bad_time_grids(rng):
    g = make_log_grid(1e-2, 1e2, 64)
    f = random_smooth_state(g, rng)
    with pytest.raises(ValueError):
        trajectory(f, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        trajectory(f, [1.0, 0.5, 2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        trajectory(f, [0.5, -1.0])
    with pytest.raises(ValueError):
        trajectory(f, [1.0])
    for bad in ([0.0, np.nan], [np.nan, 1.0], [0.0, np.inf], [0.0, 1.0, np.nan, 3.0]):
        with pytest.raises(ValueError, match="finite"):
            trajectory(f, bad)
    # a time is any finite number, negative ones included, as for evolve
    values = trajectory(f, [-1.0, 0.5]).values
    assert values[0] > values[1]


# A trajectory of the fig1 packet at n = 4096 in a fresh process that imports
# the library alone (no cli, no scipy), reporting its minor page faults.
# Arguments: e_min, e_max, steps, path.
_LIBRARY_TRAJECTORY = """
import resource, sys
import numpy as np
import arrowm
assert "arrowm.cli" not in sys.modules and "scipy" not in sys.modules
e_min, e_max, steps, path = float(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
state = arrowm.normalize_state(arrowm.to_energy_state(
    arrowm.GaussianPacketParams(1.0, 0.64, 0.3), arrowm.make_log_grid(e_min, e_max, 4096)))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
arrowm.trajectory(state, np.linspace(0.0, 32.0, steps), path=path)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc thresholds")
def test_library_trajectory_does_not_fault_per_step():
    # Without the 4 MiB block freed at `import arrowm`, glibc's start-up
    # thresholds make every step of the direct path fault its arrays in
    # afresh: about 3,750 faults for its 50 steps, against 480 to 530 with
    # the block.  The fast run allocates per block of times and faults 640
    # to 820 times with the block, 840 to 1,030 without.
    # Whether the start-up thresholds fault depends on the heap layout,
    # which shifts with the size of the environment, so each run repeats
    # at three paddings.
    src = str(Path(arrowm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for args in (("5e-15", "50", "200", "fast"), ("1e-22", "1e21", "50", "direct")):
        for pad in (0, 256, 4096):
            done = subprocess.run([sys.executable, "-c", _LIBRARY_TRAJECTORY, *args],
                                  env={**env, "ARROWM_TEST_PAD": "x" * pad},
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            assert int(done.stdout.splitlines()[-1]) <= 1000, (args, pad)


def test_trajectory_values_bounded_and_decreasing_for_packet():
    traj = trajectory(fig_packet(), np.linspace(0.0, 16.0, 81))
    assert np.all(traj.values >= -1e-9)
    assert np.all(traj.values <= 1.0 + 1e-9)
    assert traj.monotone_violations == ()
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


def _reversal_residual(traj):
    """max |<M>(t) + <M>(-t) - 1| over a trajectory on times symmetric about 0."""
    return float(np.max(np.abs(traj.values + traj.values[::-1] - 1.0)))


@pytest.mark.parametrize("bounds", [(5e-15, 50.0), WIDE_BOUNDS], ids=["fig1", "wide"])
def test_time_reversal_identity_on_both_routes(bounds, rng):
    # for a real state conj(U(t) f) = U(-t) f, and m(nu) + m(-nu) = 1 (fast)
    # or J A J = I - A (direct) turn that into <M>(t) + <M>(-t) = 1
    times = np.linspace(-16.0, 16.0, 41)
    packet = fig_packet(4096, bounds)
    op = build_dense_m(packet.grid)
    for path in ("fast", "direct"):
        traj = trajectory(packet, times, path, op)
        assert _reversal_residual(traj) <= 1e-12, path
        assert traj.monotone_violations == (), path
        assert traj.values[20] == pytest.approx(0.5, abs=1e-12), path
    # the identity is not true by construction: a complex state breaks it,
    # while its real part keeps it
    g = make_log_grid(1e-3, 1e3, 4096)
    f = random_smooth_state(g, rng, center_fraction=0.08, sigma_range=(0.35, 0.5),
                            freq_max=2.0)
    real = normalize_state(make_state(g, f.channels, f.amplitudes.real))
    op = build_dense_m(g)
    for path in ("fast", "direct"):
        assert _reversal_residual(trajectory(f, times, path, op)) > 1e-2, path
        assert _reversal_residual(trajectory(real, times, path, op)) <= 1e-12, path


def test_time_reversal_identity_property_random_real_states():
    # Nyquist-safe states as in test_lyapunov_property_random_states, on an
    # odd count of times symmetric about 0
    g = make_log_grid(1e-3, 1e3, 1024)
    op = build_dense_m(g)

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), t_max=st.floats(0.5, 5.0),
           half_count=st.integers(1, 10))
    def check(seed, t_max, half_count):
        f = random_smooth_state(g, np.random.default_rng(seed), center_fraction=0.08,
                                sigma_range=(0.35, 0.5), freq_max=2.0)
        real = normalize_state(make_state(g, f.channels, f.amplitudes.real))
        times = np.linspace(-t_max, t_max, 2 * half_count + 1)
        for path in ("fast", "direct"):
            traj = trajectory(real, times, path, op)
            assert _reversal_residual(traj) <= 1e-13, path
            assert traj.monotone_violations == (), path

    check()


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
