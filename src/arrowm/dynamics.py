"""Phase evolution in the energy representation and expectation trajectories.

Evolution is exact multiplication by e^{-i E_i t} (hbar = 1, time in inverse
energy units), so any time is reachable in a single step.  The phases are
cos + i sin of -E_i t on the state's support, the columns from the first to
the last nonzero amplitude; outside it the evolved amplitudes are 0.0.
:func:`evolve` and :func:`trajectory` refuse, before any phase is formed, a
time at which more than 1e-8 of the state's weighted mass lies where
E |t| >= 2^52: there neighbouring doubles of E t lie 1 rad apart or more,
so the phases keep no digit.

<M> along an orbit is evaluated on the fast diagonalized route or the direct
Cauchy-kernel one, picked once per call by ``_route``: the route's block
kernel, its worker count, the map from the kernel's two sums per time to <M>
and the real row scale the kernel expects in each evolved row, if any.
``_orbit`` finds the state's support once, evolves the times in blocks by
:func:`evolve`'s helper, and runs the blocks on threads, the calling thread
among them; each thread claims the next block whenever it is idle.  On an
arithmetic progression it uses the group law U(t_q + r dt) = U(r dt) U(t_q):
row r of a block is its first row, evolved as in :func:`evolve`, times the
step row e^{-i E r dt}, computed once per call.  A trajectory records any
increase beyond the monotonicity tolerance.

- fast: the eigenvalue density's mass and first moment, by the moments
  kernel of :func:`eigen_density_moments`, which squares the block's
  transform in place, on up to two threads.  The transform table's scale
  c_i = (2 pi)^{-1/2} du e^{u_i/2} rides in the phase rows that take
  cos + i sin, so the kernel takes only the inverse FFT; the table's phase
  drops out of |chat|^2.  The masses are checked as norms
  and each value is first / mass.  The values lie within 1e-15 of
  ``expectation_m(evolve(state, t))``; a block start equals the same time
  off a progression bit for bit, and every value is the same whatever the
  worker count.
- direct: Re and Im of q = (psi, M psi) by :func:`apply_m_direct` and
  :func:`inner_product`, on the calling thread.  The norm, which U(t)
  preserves, is checked once before an operator is built; every imaginary
  part is held to 1e-10 ||psi||^2 and each value is Re q / ||psi||^2.
  :func:`expectation_m` runs the same kernel on one row, so the values lie
  within 1e-15 of ``expectation_m(evolve(state, t), "direct")``.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    EnergyState, _check_norm, _peak_exponent, _readonly, _support, _weighted_squares,
    inner_product, make_state, state_norm,
)
from .mellin import _block_moments, _grid_factors, eigen_density_moments
from .operator import DenseOperator, apply_m_direct, build_dense_m

__all__ = ["Trajectory", "evolve", "expectation_m", "trajectory", "MONOTONE_TOL"]

MONOTONE_TOL = 1e-8
_IMAG_TOL = 1e-10
PATHS = ("fast", "direct")

# A trajectory's block size on either path, at 16 bytes per (time, channel,
# point): the block's complex amplitudes, whose float view the fast route
# squares in place, so neither route holds a real temporary.  0.75 MiB is 6
# times at n = 4096 with two channels.  Off a progression the phases on the
# support, 16 bytes per (time, point), are freed before the transform; on a
# progression only a block's first row takes a phase, and the b - 1 step
# rows of the group law, 16 bytes per (row, point), are formed once per call
# (320 KB at n = 4096).  On a 2-core Xeon (2 MiB L2 per core), a 4000-step
# trajectory on two workers ran within 10 % for blocks of 4 to 64 times and
# 1.7x slower for blocks of 1; on one worker, 4 to 16 was fastest (timed
# with cos + i sin on every row).  Blocks of 8 took the fast and direct
# trajectories' workspaces to 3.05 and 2.30 MB, over their tests' bounds.
_BLOCK_BYTES = 3 << 18
# Worker threads of a fast trajectory: the usable CPUs, at most 2.  Each
# worker first-touches its temporaries and numpy's buffers once per call
# (about 350 page faults and 1.7 MB of peak RSS); only 1 and 2 workers were
# measured, on a 2-core Xeon, where 2 ran a 4000-step trajectory 1.7x faster.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# Band of max|a| inside which <M> is evaluated as given.  Both routes sum
# squares (w |a|^2, re^2 + im^2 of chat), which overflow or go subnormal far
# enough outside it: random_smooth_state on four grids, from (1e-3, 1e3) to
# (1e-22, 1e21) and n = 64 to 4096, scaled by 2^k in steps of 10, kept <M>
# within 1e-15 on both routes for max|a| from about 2^-490 to 2^510, and
# not beyond; at the band's two end binades the fast <M> is the unscaled
# one exactly (three windows, n = 64, 257 and 4096).  Outside the band a
# state is first scaled to max|a| in [1/2, 1).  The band is [2^-400, 2^400),
# where max|a| has frexp exponents -399 to 400.
_SAFE_EXPONENTS = (-399, 400)
# The phase-digit rule of the module notes: E |t| from which e^{-iEt} keeps
# no digit, and the share of the weighted mass allowed there.  It weighs
# mass, not support: the fig1 packet's share reads 0 at every t <= 1e13 and
# 1 at 1e100, and random_smooth_state on the wide window, nonzero up to
# E = 2.3e16, holds 6e-105 of its mass there at t = 1e7.
_PHASE_DIGITS_LOST = 2.0**52
_LOST_PHASE_SHARE = 1e-8


def evolve(state: EnergyState, t: float) -> EnergyState:
    """Propagate by time t: amplitudes times e^{-i E t}.  Norm preserving.

    Raises ValueError on a non-finite t and, as the module notes say, on a
    t at which the phases keep no digit.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    _check_phase_digits(state, t)
    return make_state(state.grid, state.channels,
                      _evolved(state, np.array([t]), _support(state))[0])


def _check_phase_digits(state: EnergyState, t: float) -> None:
    """Raise ValueError where over 1e-8 of the state's mass lies at E |t| >= 2^52.

    The masses are the weighted squares of :func:`state_norm`'s scaled
    moduli, so they cannot overflow.
    """
    if t == 0.0:
        return
    squares, _ = _weighted_squares(state)
    lost = np.sum(squares[:, state.grid.points >= _PHASE_DIGITS_LOST / abs(t)])
    total = np.sum(squares)
    if lost > _LOST_PHASE_SHARE * total:
        raise ValueError(
            f"at t = {t:g} the phases E t keep no digit (E |t| >= 2^52) on {lost / total:.3g} "
            f"of the state's mass; use shorter times"
        )


def _evolved(state: EnergyState, t: np.ndarray, support: slice,
             steps: np.ndarray | None = None, scale: np.ndarray | None = None) -> np.ndarray:
    """The amplitudes times scale e^{-i E t} at each of the times t: (t.size, channels, n).

    The phases are cos + i sin of -E t on ``support`` only; the columns
    outside it are 0.0.  There the amplitudes are zero, and the phases of
    large E t would cost a slow range reduction each.  With ``steps``, the
    rows e^{-i E r dt} of :func:`_progression_steps`, only row 0 takes
    cos + i sin, and row r is row 0 times ``steps[r - 1]``: the group law
    U(t_0 + r dt) = U(r dt) U(t_0).  ``scale``, a real array over the grid,
    multiplies the rows that take cos + i sin, before they meet the
    amplitudes, so the later rows inherit it; without it the rows are the
    plain evolved amplitudes of :func:`evolve`.
    """
    energies = state.grid.points[support]
    first = t.size if steps is None else 1  # the rows that take cos + i sin
    phases = _phases(t[:first], energies, np.empty((first, energies.size), dtype=complex))
    if scale is not None:
        np.multiply(phases, scale[support], out=phases)
    out = np.empty((t.size, *state.amplitudes.shape), dtype=complex)
    np.multiply(state.amplitudes[:, support], phases[:, None, :], out=out[:first, :, support])
    if steps is not None:
        np.multiply(out[:1, :, support], steps[:t.size - 1, None, :], out=out[1:, :, support])
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
    ValueError on an unknown path and, as :func:`trajectory`, on a zero or
    non-finite norm.
    """
    state = _in_safe_range(state)
    block, _, values, _ = _route(state, path, operator)
    sums = (np.reshape(eigen_density_moments(state), (2, 1)) if path == "fast"  # by forward_mellin
            else block(state.amplitudes[None]))
    return float(values(sums)[0])


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


def _route(state: EnergyState, path: str, operator: DenseOperator | None):
    """(block kernel, worker count, map from its sums to <M>, row scale) of the route ``path``.

    The row scale is the real array that :func:`_evolved` multiplies into
    the rows a trajectory's kernel reads, or None.
    """
    if path == "fast":
        # a cache miss computes m(nu) here, on the calling thread
        scale = _grid_factors(state.grid).scale
        return partial(_block_moments, state.grid), _WORKERS, _fast_values, scale
    if path != "direct":
        raise ValueError(f"unknown path {path!r}; choose from {PATHS}")
    nrm = state_norm(state)
    nrm2 = nrm * nrm  # inf where the square of a finite norm leaves double range
    _check_norm(nrm2)
    if operator is None:
        operator = build_dense_m(state.grid)
    return partial(_direct_block, state, operator), 1, partial(_direct_values, nrm2=nrm2), None


def _fast_values(sums: np.ndarray) -> np.ndarray:
    """first / mass for the fast sums (mass, first); ValueError on a zero or non-finite mass."""
    mass, first = sums
    _check_norm(mass)
    return first / mass


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Expectation values along an orbit plus any monotonicity violations.

    ``times`` and ``values`` are read-only arrays of the trajectory's own.
    ``monotone_violations`` is a tuple of (t_i, t_{i+1}, increase) for every
    adjacent pair where the expectation rose by more than the tolerance.
    Trajectories compare and hash by identity.
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
    :func:`expectation_m`, and the route runs as the module notes say.
    Raises ValueError on an unknown path, on a zero or non-finite norm,
    which the direct path checks before it builds an operator, and, as
    :func:`evolve`, on times at which the phases keep no digit.
    """
    t = np.array(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need a one-dimensional list of at least two times")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    state = _in_safe_range(state)
    block, workers, values, scale = _route(state, path, operator)
    _check_phase_digits(state, float(t[np.argmax(np.abs(t))]))
    values = values(_orbit(state, t, block, workers, scale))
    violations = tuple(
        (float(t[k]), float(t[k + 1]), float(d))
        for k, d in enumerate(np.diff(values))
        if d > MONOTONE_TOL
    )
    return Trajectory(times=_readonly(t), values=_readonly(values), path=path,
                      monotone_violations=violations)


def _block_size(state: EnergyState) -> int:
    """Times per block: ``_BLOCK_BYTES`` at 16 bytes per (time, channel, point)."""
    channels, n = state.amplitudes.shape
    return max(1, _BLOCK_BYTES // (16 * channels * n))


def _orbit(state: EnergyState, t: np.ndarray, block_sums, workers: int,
           scale: np.ndarray | None) -> np.ndarray:
    """A route's two sums at every time of ``t``: shape (2, t.size).

    The times go in blocks of b, each evolved as one (b, channels, n) array,
    its phase rows times ``scale``, by :func:`evolve`'s own helper on the
    support found once per call, with the step rows of
    :func:`_progression_steps` when ``t`` is a progression.  ``block_sums``
    maps that array, which it may overwrite, to two arrays of shape (b,).
    min(``workers``, blocks) threads share one iterator of block starts, and
    each takes the next block from it whenever it is idle, so a slow thread
    holds up no other.  The blocks are the same whichever thread takes
    them, so the sums are too.  numpy's ufuncs and FFTs release the GIL on
    arrays this size, so the threads run in parallel.  A ``block_sums`` run
    on more than one thread must call no public function of the package: a
    tracer that wraps those keeps one span stack per process.
    """
    block = _block_size(state)
    starts = range(0, t.size, block)
    claims, claiming = iter(starts), threading.Lock()
    sums = np.empty((2, t.size))
    support = _support(state)
    steps = _progression_steps(state, t, block, support)

    def work() -> None:
        while True:
            with claiming:
                k = next(claims, None)
            if k is None:
                return
            s = slice(k, k + block)
            sums[:, s] = block_sums(_evolved(state, t[s], support, steps, scale))

    _on_threads(work, min(workers, len(starts)))
    return sums


def _on_threads(work, count: int) -> None:
    """Run ``work`` on ``count`` threads at once, the calling thread among them.

    Waits for every thread, then re-raises the first error.
    """
    errors = []

    def guarded():
        try:
            work()
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(1, count)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
