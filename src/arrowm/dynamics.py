"""Phase evolution in the energy representation and expectation trajectories.

Evolution is exact multiplication by e^{-i E_i t} (hbar = 1, time in inverse
energy units), so any time is reachable in a single step.  The phases are
cos + i sin of -E_i t, computed only on the state's support, the columns from
the first to the last nonzero amplitude; outside it the evolved amplitudes
are 0.0.  The expectation of the time-ordering operator along an orbit is
evaluated with either the direct Cauchy-kernel path or the fast diagonalized
path, and trajectories record any increase beyond the monotonicity
tolerance.

A fast trajectory evolves and transforms its times in blocks, each block one
batched pass of numpy work on its own temporaries (the support phases, the
evolved amplitudes and their squares), and deals the blocks round-robin to
one thread per usable CPU, at most two (the calling thread is one of them).
A block is evolved by the same helper as :func:`evolve`.  When the times are
an arithmetic progression, that helper uses the group law
U(t_q + r dt) = U(t_q) U(r dt): a block's first row is cos + i sin as in
:func:`evolve`, and its row r is that row times the step row e^{-i E r dt},
computed once per call.  Every later operation is the per-time one applied
row by row, in the same order.  So the values equal
``expectation_m(evolve(state, t))`` bit for bit at block starts and at every
time off a progression, and to within 1e-15 elsewhere; they are
bit-identical whatever the worker count.

A direct trajectory checks the norm once, before it builds an operator, and
evolves its times in the same blocks, on the same support and with the same
step rows.  Each evolved state then goes through :func:`apply_m_direct` on
the calling thread, and its quadratic form is divided by the one squared
norm, so the values lie within 1e-15 of
``expectation_m(evolve(state, t), "direct")``.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    EnergyState, _check_norm, _readonly, _support, inner_product, make_state, state_norm,
)
from .mellin import _block_moments, _grid_factors, eigen_density_moments
from .operator import DenseOperator, apply_m_direct, build_dense_m

__all__ = ["Trajectory", "evolve", "expectation_m", "trajectory", "MONOTONE_TOL"]

MONOTONE_TOL = 1e-8
_IMAG_TOL = 1e-10
PATHS = ("fast", "direct")

# A trajectory's block size on either path, at 24 bytes per (time, channel,
# point): a fast block's complex amplitudes and real squares (a direct block
# holds the amplitudes only); its phases on the support, 16 bytes per (time,
# point), are freed before the transform.  0.75 MiB is 4
# times at n = 4096 with two channels.  On a 2-core Xeon (2 MiB L2 per core), a
# 4000-step trajectory on two workers ran within 10 % for blocks of 4 to 64
# times and 1.7x slower for blocks of 1; on one worker, 4 to 16 was fastest.
# Those were timed with cos + i sin on every row.  A progression adds the
# b - 1 step rows of the group law, 16 bytes per (row, point) once per call
# (192 KB at n = 4096), and takes cos + i sin once per block, so larger
# blocks would save more phases but hold a larger step table.
_BLOCK_BYTES = 3 << 18
# Worker threads of a fast trajectory: the usable CPUs, at most 2.  Each
# worker first-touches its temporaries and numpy's buffers once per call
# (about 350 page faults and 1.7 MB of peak RSS); only 1 and 2 workers were
# measured, on a 2-core Xeon, where 2 ran a 4000-step trajectory 1.7x faster.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def evolve(state: EnergyState, t: float) -> EnergyState:
    """Propagate by time t: amplitudes times e^{-i E t}.  Norm preserving.

    Raises ValueError on a non-finite t.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return make_state(state.grid, state.channels,
                      _evolved(state, np.array([t]), _support(state))[0])


def _evolved(state: EnergyState, t: np.ndarray, support: slice,
             steps: np.ndarray | None = None) -> np.ndarray:
    """The amplitudes times e^{-i E t} at each of the times t: (t.size, channels, n).

    The phases are cos + i sin of -E t on ``support`` only; the columns
    outside it are 0.0.  There the amplitudes are zero, and the phases of
    large E t would cost a slow range reduction each.  With ``steps``, the
    rows e^{-i E r dt} of :func:`_progression_steps`, only row 0 is cos +
    i sin and row r is row 0 times ``steps[r - 1]``: the group law
    U(t_0 + r dt) = U(t_0) U(r dt).
    """
    energies = state.grid.points[support]
    phases = np.empty((t.size, energies.size), dtype=complex)
    if steps is None:
        _phases(t, energies, phases)
    else:
        _phases(t[:1], energies, phases[:1])
        np.multiply(phases[0], steps[:t.size - 1], out=phases[1:])
    out = np.empty((t.size, *state.amplitudes.shape), dtype=complex)
    np.multiply(state.amplitudes[:, support], phases[:, None, :], out=out[..., support])
    out[..., :support.start] = 0.0
    out[..., support.stop:] = 0.0
    return out


def _phases(t: np.ndarray, energies: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[k]`` = e^{-i E t_k} as cos + i sin of -E t_k, for each time t_k."""
    arg = np.multiply.outer(t, -energies)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _progression_steps(state: EnergyState, t: np.ndarray, block: int,
                       support: slice) -> np.ndarray | None:
    """The step rows e^{-i E r dt} on the support, r = 1 .. b - 1, or None.

    None unless ``t`` is an arithmetic progression in blocks of b = ``block``
    to within rounding: with dt = (t[-1] - t[0]) / (T - 1), each t_k lies
    within 4 eps max|t| of t_q + r dt, where t_q is the first time of t_k's
    block and r its offset in the block.  None also when a block holds one
    time, so there is no step to take.
    """
    count = min(block, t.size) - 1
    if count == 0:
        return None
    dt = (t[-1] - t[0]) / (t.size - 1)
    k = np.arange(t.size)
    r = k % block
    if np.max(np.abs(t - (t[k - r] + r * dt))) > 4 * np.finfo(float).eps * np.max(np.abs(t)):
        return None
    energies = state.grid.points[support]
    return _phases(np.arange(1, count + 1) * dt, energies,
                   np.empty((count, energies.size), dtype=complex))


def expectation_m(
    state: EnergyState, path: str = "fast", operator: DenseOperator | None = None
) -> float:
    """Normalized expectation value ||psi||^{-2} Re (psi, M psi).

    The fast path evaluates the quadratic form in coefficient space, where it
    is a manifestly real weighted mean of the multiplier over |chat(nu)|^2
    (the eigenvalue density's first moment over its mass) and therefore
    guaranteed to lie in (0, 1).  The direct path contracts the sampled
    Cauchy-kernel operator with the grid inner product and raises if an
    imaginary part beyond 1e-10 appears (an asymmetry bug would surface here
    rather than be hidden by symmetrization).  Raises ValueError on a zero or
    non-finite norm, on both routes: the fast path reads it off the density's
    mass, the direct path off the norm it divides by, before building M.
    """
    if path == "fast":
        mass, first = eigen_density_moments(state)
        _check_norm(mass)
        return first / mass
    if path != "direct":
        raise ValueError(f"unknown path {path!r}; choose from {PATHS}")
    nrm2 = _checked_norm2(state)
    if operator is None:
        operator = build_dense_m(state.grid)
    return _direct_form(state, operator, nrm2)


def _checked_norm2(state: EnergyState) -> float:
    """||psi||^2; raises ValueError where it is 0 or not finite."""
    nrm = state_norm(state)
    try:
        nrm2 = nrm**2
    except OverflowError:  # a finite norm whose square is not
        nrm2 = np.inf
    _check_norm(nrm2)
    return nrm2


def _direct_form(state: EnergyState, operator: DenseOperator, nrm2: float) -> float:
    """Re (psi, M psi) / ``nrm2`` by the direct route; ArithmeticError on an imaginary part."""
    q = inner_product(state, apply_m_direct(state, operator))
    if abs(q.imag) > _IMAG_TOL * nrm2:
        raise ArithmeticError(
            f"expectation value has imaginary part {q.imag:.3e} (path='direct')"
        )
    return q.real / nrm2


@dataclass(frozen=True)
class Trajectory:
    """Expectation values along an orbit plus any monotonicity violations.

    ``monotone_violations`` holds (t_i, t_{i+1}, increase) for every adjacent
    pair where the expectation rose by more than the tolerance.
    """

    times: np.ndarray
    values: np.ndarray
    path: str
    monotone_violations: list = field(default_factory=list)

    @property
    def terminal_value(self) -> float:
        return float(self.values[-1])

    @property
    def max_increase(self) -> float:
        """Largest adjacent-step increase (negative when strictly decreasing)."""
        return float(np.max(np.diff(self.values)))


def trajectory(
    state: EnergyState,
    times,
    path: str = "fast",
    operator: DenseOperator | None = None,
) -> Trajectory:
    """Evaluate the expectation along {U(t) psi : t in times}.

    ``times`` must be finite and strictly increasing; like :func:`evolve`,
    they may be negative.  Both paths evolve the times in blocks (see the
    module notes); the fast path runs them on up to two CPUs.  The direct
    path checks the norm once and then builds the dense operator, when none
    is given.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need a one-dimensional list of at least two times")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    if path == "fast":
        values = _fast_expectations(state, t)
    elif path == "direct":
        values = _direct_expectations(state, t, operator)
    else:
        raise ValueError(f"unknown path {path!r}; choose from {PATHS}")
    violations = [
        (float(t[k]), float(t[k + 1]), float(d))
        for k, d in enumerate(np.diff(values))
        if d > MONOTONE_TOL
    ]
    return Trajectory(times=t, values=values, path=path, monotone_violations=violations)


def _block_size(state: EnergyState) -> int:
    """Times per block: ``_BLOCK_BYTES`` at 24 bytes per (time, channel, point)."""
    channels, n = state.amplitudes.shape
    return max(1, _BLOCK_BYTES // (24 * channels * n))


def _direct_expectations(state: EnergyState, t: np.ndarray,
                         operator: DenseOperator | None) -> np.ndarray:
    """``expectation_m(evolve(state, tk), "direct", operator)`` for every tk in ``t``.

    The norm is checked once, before the operator is built; U(t) preserves
    it.  The times are evolved in the fast route's blocks, on the support
    found once, with the group law on a progression, and each evolved state
    goes through :func:`apply_m_direct` on the calling thread.
    """
    nrm2 = _checked_norm2(state)
    if operator is None:
        operator = build_dense_m(state.grid)
    block = _block_size(state)
    support = _support(state)
    steps = _progression_steps(state, t, block, support)
    values = np.empty(t.size)
    for k in range(0, t.size, block):
        evolved = _readonly(_evolved(state, t[k:k + block], support, steps))
        for r, amplitudes in enumerate(evolved):
            values[k + r] = _direct_form(EnergyState(state.grid, state.channels, amplitudes),
                                         operator, nrm2)
        del evolved, amplitudes  # before the next block is made
    return values


def _fast_expectations(state: EnergyState, t: np.ndarray) -> np.ndarray:
    """``expectation_m(evolve(state, tk))`` for every tk in ``t`` (see the module notes).

    The times go in blocks of b, each evolved as one (b, channels, n) array
    by :func:`evolve`'s own helper on the support found once per call, with
    the step rows of :func:`_progression_steps` when ``t`` is a progression,
    and passed to :func:`_block_moments`; blocks are dealt round-robin to
    min(``_WORKERS``, blocks) workers.  numpy's ufuncs and FFTs release the
    GIL on arrays this size, so the workers run in parallel.  The workers
    call no public function of the package: a tracer that wraps those keeps
    one span stack per process.
    """
    grid = state.grid
    block = _block_size(state)
    starts = range(0, t.size, block)
    workers = min(_WORKERS, len(starts))
    mass, first = np.empty(t.size), np.empty(t.size)
    support = _support(state)
    steps = _progression_steps(state, t, block, support)
    _grid_factors(grid)  # a cache miss computes m(nu) here, on the calling thread

    def work(w: int) -> None:
        for k in starts[w::workers]:
            s = slice(k, k + block)
            mass[s], first[s] = _block_moments(grid, _evolved(state, t[s], support, steps))

    _on_threads(work, workers)
    _check_norm(mass)
    return first / mass


def _on_threads(work, count: int) -> None:
    """Run work(0), ..., work(count - 1) at once, work(0) on the calling thread.

    Waits for every worker, then re-raises the first error.
    """
    errors = []

    def guarded(w):
        try:
            work(w)
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(w,)) for w in range(1, count)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
