"""Log-uniform discretization of the energy half-line and states living on it.

The half-line (0, inf) is truncated to [e_min, e_max] and sampled at points
E_i = exp(u_i) with u_i uniformly spaced in u = ln E.  Quadrature is the
trapezoidal rule in u, so integrals over E become plain weighted sums and the
uniform u grid doubles as the sampling lattice for the fast diagonalized
operator path (see :mod:`arrowm.mellin`).

States are multi-channel complex amplitude functions f_lambda(E_i); the
channel index carries the degeneracy of the underlying Hamiltonian (for the
free particle on a line: the sign of the momentum).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CHANNELS",
    "LogEnergyGrid",
    "EnergyState",
    "make_log_grid",
    "make_state",
    "inner_product",
    "state_norm",
    "normalize_state",
    "random_smooth_state",
]

# Channel labels of the free particle: the sign of the momentum.
CHANNELS = ("+", "-")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LogEnergyGrid:
    """Truncated energy half-line [e_min, e_max], n points uniform in u = ln E.

    Grids compare and hash by (e_min, e_max, n); every array derives from
    these three.  Raises ValueError on non-positive e_min, e_max <= e_min,
    or n that is not a whole number of at least 2.

    Attributes
    ----------
    points : ndarray
        E_i = exp(u_i), strictly increasing, all positive.
    log_points : ndarray
        u_i = ln(e_min) + i*du, with du = ln(e_max/e_min)/(n - 1).
    weights : ndarray
        Trapezoidal weights for integrals dE: w_i = E_i*du in the interior,
        halved at the two endpoints.
    """

    e_min: float
    e_max: float
    n: int
    points: np.ndarray = field(init=False, compare=False, repr=False)
    log_points: np.ndarray = field(init=False, compare=False, repr=False)
    weights: np.ndarray = field(init=False, compare=False, repr=False)
    du: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        e_min, e_max, n = self.e_min, self.e_max, self.n
        if not (e_min > 0.0):
            raise ValueError(f"grid e_min must be positive, got {e_min}")
        if not (e_max > e_min):
            raise ValueError(f"grid e_max must exceed e_min, got [{e_min}, {e_max}]")
        if n < 2 or n != int(n):
            raise ValueError(f"need a whole number of at least 2 grid points, got {n}")
        n = int(n)
        u0 = np.log(e_min)
        du = (np.log(e_max) - u0) / (n - 1)
        u = u0 + du * np.arange(n)
        points = np.exp(u)
        weights = points * du
        weights[0] *= 0.5
        weights[-1] *= 0.5
        derived = {
            "e_min": float(e_min), "e_max": float(e_max), "n": n,
            "points": _readonly(points), "log_points": _readonly(u),
            "weights": _readonly(weights), "du": float(du),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def span(self) -> float:
        """Width of the grid in u = ln E."""
        return self.log_points[-1] - self.log_points[0]

    @property
    def center(self) -> float:
        """Midpoint of the grid in u = ln E."""
        return 0.5 * (self.log_points[0] + self.log_points[-1])


def make_log_grid(e_min: float, e_max: float, n: int) -> LogEnergyGrid:
    """Build a log-uniform grid on [e_min, e_max] with n points."""
    return LogEnergyGrid(e_min, e_max, n)


@dataclass(frozen=True)
class EnergyState:
    """Multi-channel complex amplitudes on a :class:`LogEnergyGrid`.

    ``amplitudes[k, i]`` is f_lambda(E_i) for channel ``channels[k]``.  All
    channels share the grid.  Instances are immutable; operations return new
    states.
    """

    grid: LogEnergyGrid
    channels: tuple
    amplitudes: np.ndarray


def make_state(grid: LogEnergyGrid, channels, amplitudes) -> EnergyState:
    """Wrap per-channel amplitude samples into an immutable state."""
    channels = tuple(channels)
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim == 1:
        amps = amps[None, :]
    if amps.shape != (len(channels), grid.n):
        raise ValueError(
            f"amplitudes shape {amps.shape} does not match "
            f"({len(channels)} channels, {grid.n} points)"
        )
    return EnergyState(grid=grid, channels=channels, amplitudes=_readonly(amps.copy()))


def _check_compatible(a: EnergyState, b: EnergyState) -> None:
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    if a.channels != b.channels:
        raise ValueError(f"channel sets differ: {a.channels} vs {b.channels}")


def inner_product(a: EnergyState, b: EnergyState) -> complex:
    """L2 inner product sum_lambda int conj(a) b dE, conjugate-linear in ``a``."""
    _check_compatible(a, b)
    return complex(np.sum(a.grid.weights * np.conj(a.amplitudes) * b.amplitudes))


def state_norm(state: EnergyState) -> float:
    """L2 norm of the state over all channels."""
    return float(np.sqrt(np.sum(state.grid.weights * np.abs(state.amplitudes) ** 2)))


def normalize_state(state: EnergyState) -> EnergyState:
    nrm = state_norm(state)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero state")
    return make_state(state.grid, state.channels, state.amplitudes / nrm)


def random_smooth_state(
    grid: LogEnergyGrid,
    rng: np.random.Generator,
    center_fraction: float = 0.12,
    sigma_range=(0.5, 0.9),
    freq_max: float = 2.5,
) -> EnergyState:
    """Normalized random state: in each channel, three Gaussian bumps in u = ln E.

    Bumps are placed within ``center_fraction`` of the grid span around the
    grid center and carry random chirp frequencies up to ``freq_max``, so the
    result is smooth, band-limited well below the grid Nyquist frequency, and
    tail-safe (edge amplitudes are double-precision zero for the default
    geometry).
    """
    u = grid.log_points
    uc = grid.center
    half = center_fraction * grid.span
    amps = np.zeros((len(CHANNELS), grid.n), dtype=complex)
    for k in range(len(CHANNELS)):
        F = np.zeros(grid.n, dtype=complex)
        for _ in range(3):
            mu = uc + rng.uniform(-half, half)
            sig = rng.uniform(*sigma_range)
            b = rng.uniform(-freq_max, freq_max)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.3, 1.0)
            F += amp * np.exp(-((u - mu) ** 2) / (2.0 * sig**2) + 1j * (b * u + phase))
        amps[k] = np.exp(-0.5 * u) * F
    return normalize_state(make_state(grid, CHANNELS, amps))
