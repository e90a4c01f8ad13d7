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
A block is evolved by the same helper as :func:`evolve`, and every later
operation is the per-time one applied row by row, in the same order, so the
values are bit-identical to ``expectation_m(evolve(state, t))`` at each time,
whatever the worker count.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .grid import EnergyState, _check_norm, inner_product, make_state, state_norm
from .mellin import _block_moments, _grid_factors, eigen_density_moments
from .operator import DenseOperator, apply_m_direct, build_dense_m

__all__ = ["Trajectory", "evolve", "expectation_m", "trajectory", "MONOTONE_TOL"]

MONOTONE_TOL = 1e-8
_IMAG_TOL = 1e-10
PATHS = ("fast", "direct")

# A fast trajectory's block size, at 24 bytes per (time, channel, point): a
# block's complex amplitudes and real squares; its phases on the support, 16
# bytes per (time, point), are freed before the transform.  0.75 MiB is 4
# times at n = 4096 with two channels.  On a 2-core Xeon (2 MiB L2 per core), a
# 4000-step trajectory on two workers ran within 10 % for blocks of 4 to 64
# times and 1.7x slower for blocks of 1; on one worker, 4 to 16 was fastest.
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


def _support(state: EnergyState) -> slice:
    """The columns from the first to the last where any channel is nonzero.

    Empty for the zero state.
    """
    (nonzero,) = np.nonzero(np.any(state.amplitudes != 0.0, axis=0))
    if nonzero.size == 0:
        return slice(0, 0)
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1)


def _evolved(state: EnergyState, t: np.ndarray, support: slice) -> np.ndarray:
    """The amplitudes times e^{-i E t} at each of the times t: (t.size, channels, n).

    The phases are cos + i sin of -E t on ``support`` only; the columns
    outside it are 0.0.  There the amplitudes are zero, and the phases of
    large E t would cost a slow range reduction each.
    """
    arg = np.multiply.outer(t, -state.grid.points[support])
    phases = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phases.real)
    np.sin(arg, out=phases.imag)
    del arg
    out = np.empty((t.size, *state.amplitudes.shape), dtype=complex)
    np.multiply(state.amplitudes[:, support], phases[:, None, :], out=out[..., support])
    out[..., :support.start] = 0.0
    out[..., support.stop:] = 0.0
    return out


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
    nrm2 = state_norm(state) ** 2
    _check_norm(nrm2)
    if operator is None:
        operator = build_dense_m(state.grid)
    q = inner_product(state, apply_m_direct(state, operator))
    if abs(q.imag) > _IMAG_TOL * nrm2:
        raise ArithmeticError(
            f"expectation value has imaginary part {q.imag:.3e} (path={path!r})"
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
    they may be negative.  The fast path runs the times in blocks on up to
    two CPUs (see the module notes); the direct path builds the dense
    operator once when none is given.
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
    else:
        if path == "direct" and operator is None:
            operator = build_dense_m(state.grid)
        values = np.array([expectation_m(evolve(state, tk), path, operator) for tk in t])
    violations = [
        (float(t[k]), float(t[k + 1]), float(d))
        for k, d in enumerate(np.diff(values))
        if d > MONOTONE_TOL
    ]
    return Trajectory(times=t, values=values, path=path, monotone_violations=violations)


def _fast_expectations(state: EnergyState, t: np.ndarray) -> np.ndarray:
    """``expectation_m(evolve(state, tk))`` for every tk in ``t``, bit for bit.

    The times go in blocks of b, each evolved as one (b, channels, n) array
    by :func:`evolve`'s own helper on the support found once per call, and
    passed to :func:`_block_moments`; blocks are dealt round-robin to
    min(``_WORKERS``, blocks) workers.  numpy's ufuncs and FFTs release the
    GIL on arrays this size, so the workers run in parallel.  The workers
    call no public function of the package: a tracer that wraps those keeps
    one span stack per process.
    """
    grid = state.grid
    channels, n = state.amplitudes.shape
    block = max(1, _BLOCK_BYTES // (24 * channels * n))
    starts = range(0, t.size, block)
    workers = min(_WORKERS, len(starts))
    mass, first = np.empty(t.size), np.empty(t.size)
    support = _support(state)
    _grid_factors(grid)  # a cache miss computes m(nu) here, on the calling thread

    def work(w: int) -> None:
        for k in starts[w::workers]:
            s = slice(k, k + block)
            mass[s], first[s] = _block_moments(grid, _evolved(state, t[s], support))

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
