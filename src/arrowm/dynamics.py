"""Phase evolution in the energy representation and expectation trajectories.

Evolution is exact multiplication by e^{-i E_i t} (hbar = 1, time in inverse
energy units), so any time is reachable in a single step.  The expectation of
the time-ordering operator along an orbit is evaluated with either the direct
Cauchy-kernel path or the fast diagonalized path, and trajectories record any
increase beyond the monotonicity tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import EnergyState, inner_product, make_state, state_norm
from .mellin import eigen_density_moments
from .operator import DenseOperator, apply_m_direct, build_dense_m

__all__ = ["Trajectory", "evolve", "expectation_m", "trajectory", "MONOTONE_TOL"]

MONOTONE_TOL = 1e-8
_IMAG_TOL = 1e-10
PATHS = ("fast", "direct")
_ZERO_STATE = "expectation of the zero state is undefined"


def evolve(state: EnergyState, t: float) -> EnergyState:
    """Propagate by time t: amplitudes times e^{-i E t}.  Norm preserving."""
    phases = np.exp(-1j * state.grid.points * t)
    return make_state(state.grid, state.channels, state.amplitudes * phases)


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
    rather than be hidden by symmetrization).  Raises on the zero state: the
    fast path reads it off the density's mass, the direct path off the norm
    it divides by.
    """
    if path == "fast":
        mass, first = eigen_density_moments(state)
        if mass == 0.0:
            raise ValueError(_ZERO_STATE)
        return first / mass
    if path != "direct":
        raise ValueError(f"unknown path {path!r}; choose from {PATHS}")
    nrm2 = state_norm(state) ** 2
    if nrm2 == 0.0:
        raise ValueError(_ZERO_STATE)
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

    ``times`` must be finite and strictly increasing with times[0] >= 0.
    The dense operator is built once when the direct path is requested
    without one.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need a one-dimensional list of at least two times")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    if t[0] < 0.0:
        raise ValueError("trajectory starts at t >= 0")
    if path == "direct" and operator is None:
        operator = build_dense_m(state.grid)
    values = np.empty(t.size)
    for k, tk in enumerate(t):
        values[k] = expectation_m(evolve(state, tk), path=path, operator=operator)
    violations = [
        (float(t[k]), float(t[k + 1]), float(d))
        for k, d in enumerate(np.diff(values))
        if d > MONOTONE_TOL
    ]
    return Trajectory(times=t, values=values, path=path, monotone_violations=violations)
