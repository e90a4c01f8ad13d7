"""Phase evolution in the energy representation and expectation trajectories.

Evolution is exact multiplication by e^{-i E_i t} (hbar = 1, time in inverse
energy units), so any time is reachable in a single step.  The phases are
cos + i sin of -E_i t, computed only on the state's support, the columns from
the first to the last nonzero amplitude; outside it the evolved amplitudes
are 0.0.  The expectation of the time-ordering operator along an orbit is
evaluated with either the direct Cauchy-kernel path or the fast diagonalized
path, and trajectories record any increase beyond the monotonicity
tolerance.

A trajectory follows its orbit on either route through one driver.  It
finds the state's support once per call, evolves the times in blocks by the
same helper as :func:`evolve`, and deals the blocks round-robin to threads,
the calling thread first.  When the times are an arithmetic progression,
the helper uses the group law U(t_q + r dt) = U(t_q) U(r dt): a block's
first row is cos + i sin as in :func:`evolve`, and its row r is that row
times the step row e^{-i E r dt}, computed once per call.  Each route turns
a block into two sums per time and reduces the whole orbit's sums once:

- fast: the eigenvalue density's mass and first moment, on one thread per
  usable CPU, at most two; the masses are checked as norms and each value
  is first / mass.  Every operation after the phases is the per-time one,
  row by row, so the values equal ``expectation_m(evolve(state, t))`` bit
  for bit at block starts and at every time off a progression, to within
  1e-15 elsewhere, and bit-identical whatever the worker count.
- direct: Re and Im of q = (psi, M psi) by :func:`apply_m_direct` and
  :func:`inner_product`, on the calling thread.  The norm, which U(t)
  preserves, is checked once before an operator is built; every imaginary
  part is held to 1e-10 ||psi||^2 and each value is Re q / ||psi||^2.
  :func:`expectation_m` is the same block with one row, so the values lie
  within 1e-15 of ``expectation_m(evolve(state, t), "direct")``.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    EnergyState, _check_norm, _peak_exponent, _readonly, _support, inner_product, make_state,
    state_norm,
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
# Band of max|a| inside which <M> is evaluated as given.  Both routes sum
# squares (w |a|^2, |chat|^2), which overflow or go subnormal far enough
# outside it: random_smooth_state on four grids, from (1e-3, 1e3) to
# (1e-22, 1e21) and n = 64 to 4096, scaled by 2^k in steps of 10, kept <M>
# within 1e-15 on both routes for max|a| from about 2^-490 to 2^510, and
# not beyond.  Outside the band a state is first scaled to max|a| in [1/2, 1).
# The band is [2^-400, 2^400), where max|a| has frexp exponents -399 to 400.
_SAFE_EXPONENTS = (-399, 400)


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
    rather than be hidden by symmetrization).  A state whose largest
    amplitude lies outside [2^-400, 2^400) is first scaled by a power of two,
    exactly, so its squares neither overflow nor go subnormal.  Raises
    ValueError on a zero or non-finite norm, on both routes: the fast path
    reads it off the density's mass, the direct path off the norm it divides
    by, before building M.
    """
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}; choose from {PATHS}")
    state = _in_safe_range(state)
    if path == "fast":
        mass, first = eigen_density_moments(state)
        _check_norm(mass)
        return first / mass
    block, nrm2 = _direct_route(state, operator)
    return float(_direct_values(block(state.amplitudes[None]), nrm2)[0])


def _in_safe_range(state: EnergyState) -> EnergyState:
    """The state, times an exact power of two where max|a| lies outside [2^-400, 2^400).

    <M> is the same for every nonzero multiple of a state.  A zero or
    non-finite maximum leaves the state as it is, for the norm checks.
    """
    e = _peak_exponent(np.abs(state.amplitudes))
    if _SAFE_EXPONENTS[0] <= e <= _SAFE_EXPONENTS[1]:
        return state
    scaled = np.ldexp(state.amplitudes.view(float), -e)
    return EnergyState(state.grid, state.channels, _readonly(scaled.view(complex)))


def _direct_route(state: EnergyState, operator: DenseOperator | None):
    """The direct block on ``operator`` and ||psi||^2.

    The norm is checked before the operator is built, when none is given;
    raises ValueError where it is 0 or not finite.
    """
    nrm = state_norm(state)
    try:
        nrm2 = nrm**2
    except OverflowError:  # a finite norm whose square is not
        nrm2 = np.inf
    _check_norm(nrm2)
    if operator is None:
        operator = build_dense_m(state.grid)
    return partial(_direct_block, state, operator), nrm2


def _direct_block(state: EnergyState, operator: DenseOperator, amplitudes: np.ndarray):
    """(Re q, Im q) with q = (psi_k, M psi_k), for each row psi_k of ``amplitudes``."""
    q = np.empty(len(amplitudes), dtype=complex)
    for k, row in enumerate(_readonly(amplitudes)):
        psi = EnergyState(state.grid, state.channels, row)
        q[k] = inner_product(psi, apply_m_direct(psi, operator))
    return q.real, q.imag


def _direct_values(sums: np.ndarray, nrm2: float) -> np.ndarray:
    """Re q / ``nrm2`` for the direct sums (Re q, Im q); ArithmeticError on an imaginary part."""
    real, imag = sums
    (bad,) = np.nonzero(np.abs(imag) > _IMAG_TOL * nrm2)
    if bad.size:
        raise ArithmeticError(
            f"expectation value has imaginary part {imag[bad[0]]:.3e} (path='direct')"
        )
    return real / nrm2


@dataclass(frozen=True)
class Trajectory:
    """Expectation values along an orbit plus any monotonicity violations.

    ``times`` and ``values`` are read-only arrays of the trajectory's own.
    ``monotone_violations`` is a tuple of (t_i, t_{i+1}, increase) for every
    adjacent pair where the expectation rose by more than the tolerance.
    """

    times: np.ndarray
    values: np.ndarray
    path: str
    monotone_violations: tuple = ()

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
    they may be negative, and they are copied.  The state is scaled as in
    :func:`expectation_m`.  Both paths evolve the times in blocks (see the
    module notes); the fast path runs them on up to two CPUs.  The direct
    path checks the norm once and then builds the dense operator, when none
    is given.
    """
    t = np.array(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need a one-dimensional list of at least two times")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    state = _in_safe_range(state)
    if path == "fast":
        _grid_factors(state.grid)  # a cache miss computes m(nu) here, on the calling thread
        mass, first = _orbit(state, t, partial(_block_moments, state.grid), _WORKERS)
        _check_norm(mass)
        values = first / mass
    elif path == "direct":
        block, nrm2 = _direct_route(state, operator)
        values = _direct_values(_orbit(state, t, block, 1), nrm2)
    else:
        raise ValueError(f"unknown path {path!r}; choose from {PATHS}")
    violations = tuple(
        (float(t[k]), float(t[k + 1]), float(d))
        for k, d in enumerate(np.diff(values))
        if d > MONOTONE_TOL
    )
    return Trajectory(times=_readonly(t), values=_readonly(values), path=path,
                      monotone_violations=violations)


def _block_size(state: EnergyState) -> int:
    """Times per block: ``_BLOCK_BYTES`` at 24 bytes per (time, channel, point)."""
    channels, n = state.amplitudes.shape
    return max(1, _BLOCK_BYTES // (24 * channels * n))


def _orbit(state: EnergyState, t: np.ndarray, block_sums, workers: int) -> np.ndarray:
    """A route's two sums at every time of ``t``: shape (2, t.size).

    The times go in blocks of b, each evolved as one (b, channels, n) array
    by :func:`evolve`'s own helper on the support found once per call, with
    the step rows of :func:`_progression_steps` when ``t`` is a progression.
    ``block_sums`` maps that array, which it may overwrite, to two arrays of
    shape (b,).  The blocks are dealt round-robin to min(``workers``,
    blocks) threads; numpy's ufuncs and FFTs release the GIL on arrays this
    size, so the threads run in parallel.  A ``block_sums`` run on more than
    one thread must call no public function of the package: a tracer that
    wraps those keeps one span stack per process.
    """
    block = _block_size(state)
    starts = range(0, t.size, block)
    workers = min(workers, len(starts))
    sums = np.empty((2, t.size))
    support = _support(state)
    steps = _progression_steps(state, t, block, support)

    def work(w: int) -> None:
        for k in starts[w::workers]:
            s = slice(k, k + block)
            sums[:, s] = block_sums(_evolved(state, t[s], support, steps))

    _on_threads(work, workers)
    return sums


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
