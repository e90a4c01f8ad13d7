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

import math
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

# Smallest normal float; below it a grid point keeps fewer than 53 bits.
_TINY = np.finfo(float).tiny


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LogEnergyGrid:
    """Truncated energy half-line [e_min, e_max], n points uniform in u = ln E.

    Grids compare and hash by (e_min, e_max, n); every array derives from
    these three.  Raises ValueError unless 0 < e_min < e_max < inf, e_min
    is a normal float (not subnormal), every weight is a finite normal float
    (the smallest, the halved first weight e_min du / 2, included) and n is
    a finite whole number of at least 2; NaN satisfies none of these.

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
        if not (0.0 < e_min < e_max < np.inf):
            raise ValueError(f"grid needs 0 < e_min < e_max < inf, got [{e_min}, {e_max}]")
        if e_min < _TINY:
            raise ValueError(f"grid needs a normal e_min of at least {_TINY:g}, got {e_min}")
        if not (2 <= n < np.inf and n == int(n)):
            raise ValueError(f"need a whole number of at least 2 grid points, got {n}")
        n = int(n)
        u0 = np.log(e_min)
        du = (np.log(e_max) - u0) / (n - 1)
        u = u0 + du * np.arange(n)
        with np.errstate(over="ignore"):
            points = np.exp(u)
            weights = points * du
        if not np.isfinite(weights[-1]):
            raise ValueError(
                f"grid [{e_min}, {e_max}] with {n} points has an infinite weight; lower e_max"
            )
        weights[0] *= 0.5
        weights[-1] *= 0.5
        if weights[0] < _TINY:
            raise ValueError(
                f"grid [{e_min}, {e_max}] with {n} points has a first weight e_min du / 2 = "
                f"{weights[0]:g} below {_TINY:g}; raise e_min or use fewer points"
            )
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


@dataclass(frozen=True, eq=False)
class EnergyState:
    """Multi-channel complex amplitudes on a :class:`LogEnergyGrid`.

    ``amplitudes[k, i]`` is f_lambda(E_i) for channel ``channels[k]``.  All
    channels share the grid.  Instances are immutable, compare and hash by
    identity; operations return new states.
    """

    grid: LogEnergyGrid
    channels: tuple
    amplitudes: np.ndarray


def make_state(grid: LogEnergyGrid, channels, amplitudes) -> EnergyState:
    """Wrap per-channel amplitude samples into an immutable state."""
    channels = tuple(channels)
    amps = np.array(amplitudes, dtype=complex, ndmin=2)
    if amps.shape != (len(channels), grid.n):
        raise ValueError(
            f"amplitudes shape {amps.shape} does not match "
            f"({len(channels)} channels, {grid.n} points)"
        )
    return EnergyState(grid=grid, channels=channels, amplitudes=_readonly(amps))


def _check_compatible(a: EnergyState, b: EnergyState) -> None:
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    if a.channels != b.channels:
        raise ValueError(f"channel sets differ: {a.channels} vs {b.channels}")


def _support(state: EnergyState) -> slice:
    """The columns from the first to the last where any channel is nonzero.

    Empty for the zero state.
    """
    (nonzero,) = np.nonzero(np.any(state.amplitudes != 0.0, axis=0))
    if nonzero.size == 0:
        return slice(0, 0)
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1)


def _fft_length(size: int) -> int:
    """The smallest 2^a 3^b 5^c >= size (size >= 1), a length numpy's FFT does fast."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching size
            best = min(best, p35 << ((size - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def inner_product(a: EnergyState, b: EnergyState) -> complex:
    """L2 inner product sum_lambda int conj(a) b dE, conjugate-linear in ``a``."""
    _check_compatible(a, b)
    # w conj(a) b, formed in one temporary
    terms = np.conj(a.amplitudes)
    terms *= a.grid.weights
    terms *= b.amplitudes
    return complex(np.sum(terms))


def _peak_exponent(moduli: np.ndarray) -> int:
    """The e with max ``moduli`` in [2^(e-1), 2^e); 0 where the maximum is 0 or not finite."""
    return math.frexp(float(np.max(moduli)))[1]


def state_norm(state: EnergyState) -> float:
    """L2 norm of the state over all channels.

    The moduli are scaled by the power of two 2^-e that brings their largest
    into [1/2, 1) before they are squared, and the norm is scaled back, so
    |a|^2 neither overflows nor underflows.  Scaling by a power of two is
    exact and commutes with each rounding of the weighted sum and the sqrt,
    so wherever the unscaled sum neither overflows nor underflows the norm
    is the same bit for bit.  NaN or inf amplitudes give a NaN or inf norm.
    """
    squares, e = _weighted_squares(state)
    return float(np.ldexp(np.sqrt(np.sum(squares)), e))


def _weighted_squares(state: EnergyState) -> tuple[np.ndarray, int]:
    """(w |a|^2 4^-e, e): the weighted squares of the moduli as :func:`state_norm` scales them."""
    a = np.abs(state.amplitudes)
    e = _peak_exponent(a)
    np.ldexp(a, -e, out=a)
    return state.grid.weights * a ** 2, e


def _check_norm(norm) -> None:
    """Raise ValueError where a norm or density mass (float or array) is 0 or not finite."""
    norm = np.asarray(norm)
    if (norm == 0.0).any():
        raise ValueError("the zero state has no normalization or expectation value")
    if not np.isfinite(norm).all():
        raise ValueError("the state's norm or density mass is not finite")


def normalize_state(state: EnergyState) -> EnergyState:
    """The state divided by its norm.  Raises ValueError on a zero or non-finite norm."""
    nrm = state_norm(state)
    _check_norm(nrm)
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
