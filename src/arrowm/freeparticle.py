"""Free-particle Gaussian wave packet in position, momentum, and energy form.

The packet (hbar = 1, mass eta) is

    psi(x, t) = (eta^2 xi0^2 / (pi (eta + i xi0^2 t)^2))^{1/4}
                * exp(-(eta xi0^2 x^2 + i p0 (p0 t - 2 eta x)) / (2 (eta + i xi0^2 t))),

a unit-norm Gaussian centered at x = p0 t / eta whose momentum density is the
time-independent Gaussian |phi(p)|^2 with

    phi(p) = (pi xi0^2)^{-1/4} exp(-(p - p0)^2 / (2 xi0^2)),

under the Fourier convention phi(p) = (2 pi)^{-1/2} int dx e^{-i p x} psi(x, 0)
(this closed form is cross-checked against direct quadrature in the tests).
The free Hamiltonian E = p^2 / (2 eta) is doubly degenerate on the half-line,
so the energy representation carries two channels labeled by the sign of the
momentum, with amplitudes f_pm(E) = (eta / 2E)^{1/4} phi(+-sqrt(2 eta E)).
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .grid import CHANNELS, EnergyState, LogEnergyGrid, make_state

__all__ = [
    "GaussianPacketParams",
    "position_wavefunction",
    "position_density",
    "position_spread",
    "momentum_wavefunction",
    "to_energy_state",
    "packet_tail_mass",
]

# Largest momentum mass a packet may leave outside the grid's energy window.
_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class GaussianPacketParams:
    """Mass eta, momentum center p0, and momentum width xi0 (all with hbar = 1).

    Raises ValueError unless all three are finite, eta > 0 and xi0^2 is a
    normal float: a subnormal or zero xi0^2 breaks phi's normalization
    (pi xi0^2)^{-1/4}, and an infinite one every formula below.
    """

    eta: float
    p0: float
    xi0: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.eta, self.p0, self.xi0))):
            raise ValueError(f"packet parameters must be finite, got {self}")
        if self.eta <= 0.0:
            raise ValueError(f"mass must be positive, got {self.eta}")
        if self.xi0 <= 0.0:
            raise ValueError(f"momentum width must be positive, got {self.xi0}")
        if not np.finfo(float).tiny <= self.xi0 * self.xi0 < np.inf:
            raise ValueError(
                f"momentum width xi0 = {self.xi0} has a square outside the normal floats"
            )


def position_wavefunction(params: GaussianPacketParams, x, t: float) -> np.ndarray:
    """psi(x, t) evaluated from the closed form."""
    x = np.asarray(x, dtype=float)
    eta, p0, xi0 = params.eta, params.p0, params.xi0
    with _closed_form(t):
        denom = eta + 1j * xi0**2 * t
        pref = (eta**2 * xi0**2 / (np.pi * denom**2)) ** 0.25
        return pref * np.exp(
            -(eta * xi0**2 * x**2 + 1j * p0 * (p0 * t - 2 * eta * x)) / (2 * denom))


def position_density(params: GaussianPacketParams, x, t: float) -> np.ndarray:
    """|psi(x, t)|^2, a Gaussian of growing width drifting at p0/eta."""
    return np.abs(position_wavefunction(params, x, t)) ** 2


def position_spread(params: GaussianPacketParams, t: float) -> float:
    """Standard deviation of |psi(x, t)|^2: sqrt((eta^2 + xi0^4 t^2) / 2) / (xi0 eta)."""
    eta, xi0 = params.eta, params.xi0
    with _closed_form(t):  # t as a numpy float, whose overflowing product raises too
        return float(np.sqrt((eta**2 + xi0**4 * np.float64(t)**2) / 2.0) / (xi0 * eta))


@contextmanager
def _closed_form(t: float):
    """Raise one ValueError, naming t, where the packet's closed form at t overflows."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise ValueError(f"the free packet at t = {t:g} overflows double precision") from None


def momentum_wavefunction(params: GaussianPacketParams, p) -> np.ndarray:
    """phi(p), the t = 0 momentum amplitude; unit L2 norm analytically.

    Far out in a narrow packet's tail the exponent overflows to -inf, and
    phi reads its limit 0.
    """
    p = np.asarray(p, dtype=float)
    xi0 = params.xi0
    with np.errstate(over="ignore"):
        exponent = -((p - params.p0) ** 2) / (2.0 * xi0**2)
    return (np.pi * xi0**2) ** -0.25 * np.exp(exponent)


def packet_tail_mass(params: GaussianPacketParams, e_min: float, e_max: float) -> float:
    """Momentum-density mass mapping outside [e_min, e_max] in energy.

    The window excludes |p| < sqrt(2 eta e_min) (the fold-through at E -> 0)
    and |p| > sqrt(2 eta e_max); both pieces are exact Gaussian integrals.
    """
    p_lo = np.sqrt(2.0 * params.eta * e_min)
    p_hi = np.sqrt(2.0 * params.eta * e_max)
    inner = _mass_below(params, p_lo) - _mass_below(params, -p_lo)
    outer = 1.0 - (_mass_below(params, p_hi) - _mass_below(params, -p_hi))
    return float(inner + outer)


def _mass_below(params: GaussianPacketParams, p: float) -> float:
    """Integral of |phi|^2 over (-inf, p]; its variance is xi0^2 / 2."""
    return 0.5 * math.erfc((params.p0 - p) / params.xi0)


def to_energy_state(params: GaussianPacketParams, grid: LogEnergyGrid) -> EnergyState:
    """Two-channel energy amplitudes of the t = 0 packet on ``grid``.

    f_pm(E_i) = (eta / 2 E_i)^{1/4} phi(+-sqrt(2 eta E_i)); the Jacobian
    factor makes the combined two-channel norm equal the momentum norm.
    Raises when more than 1e-8 of the momentum mass falls outside the grid's
    energy window, with a hint toward wider bounds, and where the Jacobian
    factor overflows at e_min.
    """
    tail = packet_tail_mass(params, grid.e_min, grid.e_max)
    if tail > _TAIL_TOL:
        raise ValueError(
            f"packet leaves {tail:.3e} of its mass outside [{grid.e_min:g}, {grid.e_max:g}] "
            f"(tolerance {_TAIL_TOL:g}); widen the grid bounds (lower e_min and/or raise e_max)"
        )
    E = grid.points
    p = np.sqrt(2.0 * params.eta * E)
    with np.errstate(over="ignore"):
        jac_quarter = (params.eta / (2.0 * E)) ** 0.25
    if not np.isfinite(jac_quarter[0]):
        raise ValueError(
            f"packet factor (eta / 2E)^(1/4) overflows at e_min = {grid.e_min:g} "
            f"with eta = {params.eta:g}; raise e_min"
        )
    amps = np.stack([jac_quarter * momentum_wavefunction(params, p),
                     jac_quarter * momentum_wavefunction(params, -p)])
    return make_state(grid, CHANNELS, amps)
