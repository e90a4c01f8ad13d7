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

The eigenvalue density rho(m) = |chat(nu)|^2 / |dm/dnu| needs chat on a
finer or shifted frequency lattice than the FFT's.  :func:`eigen_density`
evaluates the defining sum on any uniform nu lattice, at its points
exactly, by Bluestein's chirp-z transform: one FFT convolution with a chirp,
zero-padded to the smallest 2^a 3^b 5^c >= n + points - 1, in
O((n + points) log(n + points)) time and O(n + points) memory.

The four grid-only factors the forward transform and the moments read
(e^{u/2}, the forward prefactor, the ascending frequency lattice and m(nu)
in FFT order paired for (Re, Im)) are computed once per grid and kept,
read-only, for the 16 most recently used grids; the inverse transform and
the fast apply recompute theirs per call.  Each factor is formed by the
same operations in the same order as an inline computation, so cached
results are bit-identical to uncached ones.  |chat|^2 is re^2 + im^2
everywhere, with no square root.

Eigenfunctions are not square integrable; tests window them in u before
applying either operator path.  The completeness check evaluates the
closed-form theta-regularized eigenfunction sum (a Beta function collapsing
to pi / sin) and compares it against the raw Cauchy kernel as theta -> 0+.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import CHANNELS, EnergyState, LogEnergyGrid, _fft_length, _readonly, make_state

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
    """Multiplier m(nu) = (1 + e^{2 pi nu})^{-1}, strictly decreasing on (0, 1).

    Above nu of about 113, e^{2 pi nu} overflows to inf and m reads exactly 0.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(2.0 * np.pi * np.asarray(nu, dtype=float)))


def frequency_of_eigenvalue(m):
    """Inverse map nu(m) = (2 pi)^{-1} ln((1 - m)/m); domain error outside (0, 1).

    NaN lies outside (0, 1) too.
    """
    m = np.asarray(m, dtype=float)
    if not np.all((m > 0.0) & (m < 1.0)):
        raise ValueError("eigenvalue must lie strictly inside (0, 1)")
    return (np.log1p(-m) - np.log(m)) / (2.0 * np.pi)


def frequency_jacobian(m):
    """|dm/dnu| = 2 pi m (1 - m), positive on (0, 1)."""
    m = np.asarray(m, dtype=float)
    return 2.0 * np.pi * m * (1.0 - m)


class _GridFactors(NamedTuple):
    """The grid-only factors that the forward transform and the moments read."""

    half: np.ndarray  # e^{u_i/2}
    forward: np.ndarray  # _forward on the FFT-order lattice
    frequencies: np.ndarray  # ascending nu_k
    paired_multiplier: np.ndarray  # m(nu_k) in FFT order, each twice: (Re, Im) of chat_k


@lru_cache(maxsize=16)
def _grid_factors(grid: LogEnergyGrid) -> _GridFactors:
    """The :class:`_GridFactors` of ``grid``, computed once per grid, read-only.

    Each array is formed by the operations, in the order, that the
    transforms would apply inline, so the cached values are bit-identical to
    recomputing them per call.
    """
    nu = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.du)
    factors = _GridFactors(
        half=np.exp(0.5 * grid.log_points),
        forward=_forward(grid, nu),
        frequencies=np.fft.fftshift(nu),
        paired_multiplier=np.repeat(eigenvalue_of_frequency(nu), 2),
    )
    return _GridFactors(*map(_readonly, factors))


def _forward(grid: LogEnergyGrid, nu: np.ndarray) -> np.ndarray:
    """The forward transform's prefactor (2 pi)^{-1/2} du e^{i nu u_0} at frequencies ``nu``."""
    return (2.0 * np.pi) ** -0.5 * grid.du * np.exp(1j * nu * grid.log_points[0])


def _squared_modulus(chat: np.ndarray) -> np.ndarray:
    """|chat|^2 as re^2 + im^2, read from the float view of the (contiguous) coefficients."""
    parts = np.ascontiguousarray(chat).view(float)
    return parts[..., ::2] ** 2 + parts[..., 1::2] ** 2


def frequency_grid(grid: LogEnergyGrid) -> np.ndarray:
    """Ascending frequencies nu_k on [-nu_max, nu_max), spacing 2 pi/(n du); read-only."""
    return _grid_factors(grid).frequencies


@dataclass(frozen=True, eq=False)
class MellinSpectrum:
    """Per-channel chat_lambda(nu_k) on the frequency lattice; compares and hashes by identity."""

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
        return _frequency_spacing(self.grid)


def _frequency_spacing(grid: LogEnergyGrid) -> float:
    return 2.0 * np.pi / (grid.n * grid.du)


def spectral_weight(spec: MellinSpectrum) -> np.ndarray:
    """|chat(nu_k)|^2 dnu summed over channels: the state's mass at each frequency."""
    weight = np.sum(_squared_modulus(spec.coefficients), axis=0)
    weight *= spec.dnu
    return weight


def forward_mellin(state: EnergyState) -> MellinSpectrum:
    """Coefficients chat(nu_k) = (2 pi)^{-1/2} sum_i du e^{i nu u_i} e^{u_i/2} f(E_i)."""
    grid = state.grid
    chat = _coefficients(_grid_factors(grid), state.amplitudes)
    return MellinSpectrum(
        grid=grid,
        channels=state.channels,
        coefficients=np.fft.fftshift(chat, axes=-1),
    )


def _coefficients(factors: _GridFactors, amplitudes: np.ndarray, out=None) -> np.ndarray:
    """chat over the last axis of ``amplitudes``, in FFT order; ``out`` may be ``amplitudes``."""
    chat = np.multiply(factors.half, amplitudes, out=out)
    np.fft.ifft(chat, axis=-1, norm="forward", out=chat)
    return np.multiply(factors.forward, chat, out=chat)


def inverse_mellin(spec: MellinSpectrum) -> EnergyState:
    """Exact inverse of :func:`forward_mellin` (plain FFT pair, roundoff only)."""
    grid = spec.grid
    u = grid.log_points
    phase = np.exp(-1j * np.fft.ifftshift(spec.frequencies) * u[0])
    chat = np.fft.ifftshift(spec.coefficients, axes=-1)
    F = (2.0 * np.pi) ** -0.5 * spec.dnu * np.fft.fft(chat * phase, axis=-1)
    return make_state(grid, spec.channels, np.exp(-0.5 * u) * F)


def apply_m_fast(state: EnergyState) -> EnergyState:
    """Apply the operator as multiplication by m(nu) in coefficient space."""
    spec = forward_mellin(state)
    scaled = spec.coefficients * eigenvalue_of_frequency(spec.frequencies)
    return inverse_mellin(MellinSpectrum(spec.grid, spec.channels, scaled))


def eigen_density(state: EnergyState, nu_start: float, nu_stop: float, points: int):
    """(nu, rho): per-channel density rho_lambda = |chat(nu_k)|^2 / |dm/dnu| at m(nu_k).

    The lattice is nu_k = nu_start + k dnu, k = 0 .. points - 1, and
    ``chat`` is the defining sum over the u grid (the band-limited
    interpolant of :func:`forward_mellin`), evaluated at nu_k exactly by
    Bluestein's chirp-z transform.  With u_j = u_0 + j du and a = dnu du / 2,

        nu_k u_j = nu_k u_0 + nu_start j du + a (k^2 + j^2 - (k - j)^2),

    so the sum over j is one linear convolution with the chirp e^{-i a m^2},
    m = -(n - 1) .. points - 1, done by FFTs zero-padded to the smallest
    2^a 3^b 5^c >= n + points - 1 (5000 points at n = 4096 with 801).  Each
    integer square is formed exactly in int64, and :func:`_chirp` reduces its
    phase modulo 2 pi before a q is rounded.  Returns nu and rho of shape
    (n_channels, points).  Raises ValueError on non-finite bounds,
    nu_start >= nu_stop, a point count that is not a whole number of at
    least 2 (inf and NaN included), or bounds whose m(nu) rounds to 0 or 1.
    """
    if not (np.isfinite(nu_start) and np.isfinite(nu_stop)):
        raise ValueError(f"frequency bounds must be finite, got [{nu_start}, {nu_stop}]")
    if not nu_start < nu_stop:
        raise ValueError(f"need nu_start < nu_stop, got [{nu_start}, {nu_stop}]")
    if not np.isfinite(points) or points < 2 or points != int(points):
        raise ValueError(f"need a whole number of at least 2 points, got {points}")
    points = int(points)
    nu = np.linspace(nu_start, nu_stop, points)
    m = eigenvalue_of_frequency(nu)
    if not (m[0] < 1.0 and m[-1] > 0.0):
        raise ValueError(
            f"eigenvalues m(nu) on [{nu_start}, {nu_stop}] must lie strictly inside (0, 1)"
        )
    grid = state.grid
    n = grid.n
    turns = 0.25 * (nu_stop - nu_start) / (points - 1) * grid.du / np.pi  # a / (2 pi)
    j = np.arange(n)
    k = np.arange(points)
    lag = np.arange(-(n - 1), points)
    F = _grid_factors(grid).half * state.amplitudes
    h = F * np.exp(1j * nu_start * grid.du * j) * _chirp(turns, j * j)
    size = _fft_length(n + points - 1)
    conv = np.fft.ifft(
        np.fft.fft(h, size, axis=-1) * np.fft.fft(_chirp(-turns, lag * lag), size),
        axis=-1,
    )[:, n - 1 : n - 1 + points]
    chat = _forward(grid, nu) * _chirp(turns, k * k) * conv
    return nu, _squared_modulus(chat) / frequency_jacobian(m)


def _chirp(turns: float, squares: np.ndarray) -> np.ndarray:
    """e^{2 pi i turns q} for integers q >= 0, reduced modulo one turn before rounding.

    turns * q reaches millions of turns when dnu is coarse (two points at
    n = 16384), and one rounding of that product then costs 1e-9 rad.  So
    split turns = hi + lo, with hi short enough that hi * q is exact: the
    fractional part of hi * q is exact too, and lo * q is small.
    """
    bits = 53 - int(squares.max()).bit_length()
    mantissa, exponent = math.frexp(turns)
    hi = math.ldexp(round(math.ldexp(mantissa, bits)), exponent - bits)
    whole = hi * squares
    return np.exp(2j * np.pi * ((whole - np.floor(whole)) + (turns - hi) * squares))


def eigen_density_moments(state: EnergyState) -> tuple[float, float]:
    """(integral of rho dm, integral of m rho dm), summed over channels.

    Evaluated in frequency space through the exact change of variables
    dm = |dm/dnu| dnu, which turns the moments into plain sums over the
    discrete coefficient grid: dnu times the sums of |chat|^2 and of
    m(nu) |chat|^2, by :func:`_moments` on the coefficients in FFT order.
    """
    spec = forward_mellin(state)
    mass, first = _moments(spec.grid, np.fft.ifftshift(spec.coefficients, axes=-1))
    return float(mass), float(first)


def _block_moments(grid: LogEnergyGrid, amplitudes: np.ndarray):
    """:func:`eigen_density_moments` of a block of states: (mass, first), each of shape (b,).

    Each row goes through the helper of :func:`forward_mellin` and through
    :func:`_moments`, so it equals :func:`eigen_density_moments` bit for
    bit.  ``amplitudes`` (complex, shape (b, channels, n)) is overwritten,
    first by the coefficients and then by their squares.
    """
    return _moments(grid, _coefficients(_grid_factors(grid), amplitudes, out=amplitudes))


def _moments(grid: LogEnergyGrid, chat: np.ndarray):
    """(mass, first): dnu times the sums of |chat|^2 and of m(nu) |chat|^2 per state.

    ``chat`` holds C-contiguous FFT-order coefficients of shape
    (..., channels, n) and is overwritten.  Its float view is squared in
    place (re^2 + im^2, with no square root), summed over each state's
    channels and points, multiplied in place by m(nu) repeated for
    (Re, Im), and summed again.  Only elementwise ops and np.sum over the
    last axis keep each state's sums independent of the other rows of a
    block: a matrix-vector product with m (BLAS dgemv) or np.einsum on a
    block gave rows that differ from a one-row call, so the sums stay
    np.sum.
    """
    squares = chat.view(float)  # (..., channels, 2n)
    per_state = squares.reshape(*squares.shape[:-2], -1)  # a view of the same memory
    np.square(squares, out=squares)
    mass = np.sum(per_state, axis=-1)
    np.multiply(squares, _grid_factors(grid).paired_multiplier, out=squares)
    dnu = _frequency_spacing(grid)
    return mass * dnu, np.sum(per_state, axis=-1) * dnu


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


def tukey_window(grid: LogEnergyGrid, flat_halfwidth: float, taper_width: float) -> np.ndarray:
    """Raised-cosine taper in u: 1 on |u - grid.center| <= flat, cosine rolloff over taper."""
    d = np.abs(grid.log_points - grid.center)
    w = np.zeros(grid.n)
    w[d <= flat_halfwidth] = 1.0
    ramp = (d > flat_halfwidth) & (d < flat_halfwidth + taper_width)
    w[ramp] = 0.5 * (1.0 + np.cos(np.pi * (d[ramp] - flat_halfwidth) / taper_width))
    return w


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
    -(2 pi i)^{-1} (E - E')^{-1} at rate O(theta) off the diagonal.  Raises
    ValueError unless E, E' and theta are positive and finite (NaN is neither).
    """
    if not 0.0 < theta < np.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if not (0.0 < e < np.inf and 0.0 < e_prime < np.inf):
        raise ValueError(f"energies must be positive and finite, got {e}, {e_prime}")
    y = (theta - 1j * np.log(e / e_prime)) / (2.0 * np.pi)
    return complex(
        (4.0 * np.pi**2) ** -1 * (e * e_prime) ** -0.5 * np.pi / np.sin(np.pi * y)
    )
