"""Diagonal realization of the operator through its power-law eigenfunctions.

The substitution E = e^u turns the generalized eigenfunctions

    g_m(E) = N_m * E^{-1/2 - i nu},   N_m = (4 pi^2 m (1 - m))^{-1/2},

into plane waves in u, with the eigenvalue and the frequency tied by the
monotone pair

    m(nu) = (1 + e^{2 pi nu})^{-1},   nu(m) = (2 pi)^{-1} ln((1 - m)/m).

Projecting a state onto this family is therefore a Fourier transform over the
uniform u grid, computed by FFT.  The convention used throughout: the
coefficient array ``chat(nu)`` is the overlap with the mode E^{-1/2 - i nu}
per unit nu, i.e. a spike at nu_k inverts to samples of E^{-1/2 - i nu_k},
and applying the operator multiplies ``chat(nu)`` by m(nu).  The coefficient
against the delta-normalized eigenfunction family is recovered exactly as
c(m) = chat(nu(m)) / sqrt(|dm/dnu|), with no extra phase.

Eigenfunctions are not square integrable; tests window them in u before
applying either operator path.  The completeness check evaluates the
closed-form theta-regularized eigenfunction sum (a Beta function collapsing
to pi / sin) and compares it against the raw Cauchy kernel as theta -> 0+.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import expit, logit

from .grid import CHANNELS, EnergyState, LogEnergyGrid, _readonly, make_state

__all__ = [
    "MellinSpectrum",
    "eigenvalue_of_frequency",
    "frequency_of_eigenvalue",
    "frequency_jacobian",
    "frequency_grid",
    "forward_mellin",
    "inverse_mellin",
    "spectral_weight",
    "apply_m_fast",
    "eigen_density",
    "eigen_density_moments",
    "sample_eigenfunction",
    "windowed_eigenfunction",
    "tukey_window",
    "completeness_kernel_check",
]


def eigenvalue_of_frequency(nu):
    """Multiplier m(nu) = (1 + e^{2 pi nu})^{-1}, strictly decreasing on (0, 1)."""
    return expit(-2.0 * np.pi * np.asarray(nu, dtype=float))


def frequency_of_eigenvalue(m):
    """Inverse map nu(m) = (2 pi)^{-1} ln((1 - m)/m); domain error outside (0, 1)."""
    m = np.asarray(m, dtype=float)
    if np.any(m <= 0.0) or np.any(m >= 1.0):
        raise ValueError("eigenvalue must lie strictly inside (0, 1)")
    return -logit(m) / (2.0 * np.pi)


def frequency_jacobian(m):
    """|dm/dnu| = 2 pi m (1 - m), positive on (0, 1)."""
    m = np.asarray(m, dtype=float)
    return 2.0 * np.pi * m * (1.0 - m)


@lru_cache(maxsize=16)
def _fft_frequencies(grid: LogEnergyGrid) -> np.ndarray:
    """Frequencies nu_k in FFT order, computed once per grid."""
    return _readonly(2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.du))


def frequency_grid(grid: LogEnergyGrid) -> np.ndarray:
    """Ascending frequencies nu_k on [-nu_max, nu_max), spacing 2 pi/(n du)."""
    return np.fft.fftshift(_fft_frequencies(grid))


@dataclass(frozen=True)
class MellinSpectrum:
    """Per-channel coefficients chat_lambda(nu_k) on the grid's frequency lattice."""

    grid: LogEnergyGrid
    channels: tuple
    coefficients: np.ndarray  # shape (n_channels, n), ascending frequency

    @property
    def frequencies(self) -> np.ndarray:
        """Ascending nu_k of :func:`frequency_grid`."""
        return frequency_grid(self.grid)

    @property
    def dnu(self) -> float:
        """Spacing of the frequency lattice."""
        return 2.0 * np.pi / (self.grid.n * self.grid.du)


def spectral_weight(spec: MellinSpectrum) -> np.ndarray:
    """|chat(nu_k)|^2 dnu summed over channels: the state's mass at each frequency."""
    return np.sum(np.abs(spec.coefficients) ** 2, axis=0) * spec.dnu


def forward_mellin(state: EnergyState) -> MellinSpectrum:
    """Coefficients chat(nu_k) = (2 pi)^{-1/2} sum_i du e^{i nu u_i} e^{u_i/2} f(E_i)."""
    grid = state.grid
    u = grid.log_points
    F = np.exp(0.5 * u) * state.amplitudes
    chat = (
        (2.0 * np.pi) ** -0.5
        * grid.du
        * np.exp(1j * _fft_frequencies(grid) * u[0])
        * grid.n
        * np.fft.ifft(F, axis=-1)
    )
    return MellinSpectrum(
        grid=grid,
        channels=state.channels,
        coefficients=np.fft.fftshift(chat, axes=-1),
    )


def inverse_mellin(spec: MellinSpectrum) -> EnergyState:
    """Exact inverse of :func:`forward_mellin` (plain FFT pair, roundoff only)."""
    grid = spec.grid
    u = grid.log_points
    chat = np.fft.ifftshift(spec.coefficients, axes=-1)
    F = (2.0 * np.pi) ** -0.5 * spec.dnu * np.fft.fft(
        chat * np.exp(-1j * _fft_frequencies(grid) * u[0]), axis=-1
    )
    return make_state(grid, spec.channels, np.exp(-0.5 * u) * F)


def apply_m_fast(state: EnergyState) -> EnergyState:
    """Apply the operator as multiplication by m(nu) in coefficient space."""
    spec = forward_mellin(state)
    scaled = spec.coefficients * eigenvalue_of_frequency(spec.frequencies)
    return inverse_mellin(MellinSpectrum(spec.grid, spec.channels, scaled))


def eigen_density(state: EnergyState, m_grid) -> np.ndarray:
    """Per-channel density rho_lambda(m) = |chat(nu(m))|^2 / |dm/dnu|.

    ``chat`` is evaluated at arbitrary frequencies by the trigonometric
    (band-limited) interpolant, i.e. the defining sum over the u grid.
    Returns an array of shape (n_channels, len(m_grid)).
    """
    m_grid = np.atleast_1d(np.asarray(m_grid, dtype=float))
    nu = frequency_of_eigenvalue(m_grid)  # validates (0, 1)
    grid = state.grid
    u = grid.log_points
    F = np.exp(0.5 * u) * state.amplitudes
    jac = frequency_jacobian(m_grid)
    rho = np.empty((len(state.channels), m_grid.size))
    chunk = 512
    pref = (2.0 * np.pi) ** -0.5 * grid.du
    for start in range(0, m_grid.size, chunk):
        sl = slice(start, min(start + chunk, m_grid.size))
        kernel = np.exp(1j * np.outer(nu[sl], u))
        chat = pref * (kernel @ F.T).T
        rho[:, sl] = np.abs(chat) ** 2 / jac[sl]
    return rho


def eigen_density_moments(state: EnergyState) -> tuple[float, float]:
    """(integral of rho dm, integral of m rho dm), summed over channels.

    Evaluated in frequency space through the exact change of variables
    dm = |dm/dnu| dnu, which turns the moments into plain sums over the
    discrete coefficient grid.
    """
    spec = forward_mellin(state)
    return _moments(spec.frequencies, spectral_weight(spec))


def _moments(frequencies: np.ndarray, weight: np.ndarray) -> tuple[float, float]:
    """(sum of weight, sum of m(nu) * weight) for a :func:`spectral_weight` array."""
    first = np.sum(eigenvalue_of_frequency(frequencies) * weight)
    return float(np.sum(weight)), float(first)


def sample_eigenfunction(m: float, channel: str, grid: LogEnergyGrid) -> EnergyState:
    """Pointwise samples of the generalized eigenfunction in one channel.

    g_m(E_i) = N_m E_i^{-1/2 - i nu(m)} with N_m = (2 pi sqrt(m(1-m)))^{-1};
    zero in the other channel.  Not square integrable in the continuum, so
    the result is returned unnormalized; window it before forming residuals.
    """
    nu = float(frequency_of_eigenvalue(m))
    norm = 1.0 / (2.0 * np.pi * np.sqrt(m * (1.0 - m)))
    u = grid.log_points
    amps = np.zeros((len(CHANNELS), grid.n), dtype=complex)
    amps[CHANNELS.index(channel)] = norm * np.exp((-0.5 - 1j * nu) * u)
    return make_state(grid, CHANNELS, amps)


def tukey_window(
    grid: LogEnergyGrid, flat_halfwidth: float, taper_width: float, center: float | None = None
) -> np.ndarray:
    """Raised-cosine taper in u: 1 on |u - c| <= flat, cosine rolloff over taper."""
    c = grid.center if center is None else center
    d = np.abs(grid.log_points - c)
    w = np.zeros(grid.n)
    w[d <= flat_halfwidth] = 1.0
    ramp = (d > flat_halfwidth) & (d < flat_halfwidth + taper_width)
    w[ramp] = 0.5 * (1.0 + np.cos(np.pi * (d[ramp] - flat_halfwidth) / taper_width))
    return w


def gaussian_window(grid: LogEnergyGrid, sigma: float, center: float | None = None) -> np.ndarray:
    """Gaussian taper exp(-(u - c)^2 / (2 sigma^2)) on the log grid."""
    c = grid.center if center is None else center
    return np.exp(-((grid.log_points - c) ** 2) / (2.0 * sigma**2))


def windowed_eigenfunction(
    grid: LogEnergyGrid, m: float, channel: str, window: np.ndarray
) -> EnergyState:
    """Eigenfunction samples multiplied by a window array in u."""
    g = sample_eigenfunction(m, channel, grid)
    return make_state(grid, g.channels, g.amplitudes * window[None, :])


def completeness_kernel_check(e: float, e_prime: float, theta: float) -> complex:
    """Closed form of the theta-regularized eigenfunction completeness sum.

    Evaluates (4 pi^2)^{-1} (E E')^{-1/2} B(1 - y, y) with
    y = -(i/2 pi) ln(e^{i theta} E/E'), using B(1 - y, y) = pi / sin(pi y).
    As theta -> 0+ the value converges to the Cauchy kernel
    -(2 pi i)^{-1} (E - E')^{-1} at rate O(theta) off the diagonal.
    """
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if e <= 0.0 or e_prime <= 0.0:
        raise ValueError("energies must be positive")
    y = (theta - 1j * np.log(e / e_prime)) / (2.0 * np.pi)
    return complex(
        (4.0 * np.pi**2) ** -1 * (e * e_prime) ** -0.5 * np.pi / np.sin(np.pi * y)
    )


def completeness_kernel_quadrature(
    e: float, e_prime: float, theta: float, span: float | None = None
) -> complex:
    """Slow cross-check: numerically integrate the eigenvalue integral over m.

    Substitutes m = (1 + e^{-v})^{-1}, which stretches the integrable endpoint
    singularities at m = 0, 1 onto exponentially damped tails, then applies
    adaptive quadrature.  Intended for moderate theta (the v tail decays like
    e^{-theta v / 2 pi}).
    """
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    y = (theta - 1j * np.log(e / e_prime)) / (2.0 * np.pi)
    x = 1.0 - y
    if span is None:
        span = max(200.0, 2.0 * np.pi * 25.0 / theta)

    def integrand(v: float) -> complex:
        log_m = -np.logaddexp(0.0, -v)
        log_1m = -np.logaddexp(0.0, v)
        return np.exp(x * log_m + y * log_1m)

    re = quad(lambda v: integrand(v).real, -span, span, limit=4000)[0]
    im = quad(lambda v: integrand(v).imag, -span, span, limit=4000)[0]
    return complex((4.0 * np.pi**2) ** -1 * (e * e_prime) ** -0.5 * (re + 1j * im))
