"""Dense realization of the half-line time-ordering operator.

The operator acts on one channel as

    (M f)(E) = 1/2 f(E) - (2 pi i)^{-1} PV int_0^inf f(E') / (E - E') dE',

the local half plus a principal-value Cauchy integral (the boundary split of
the singular kernel -(2 pi i)^{-1} (E - E' + i0)^{-1}).  On the log grid the
matrix is assembled in weighted coordinates v_i = sqrt(w_i) f(E_i) so that it
is Hermitian and standard Hermitian eigensolvers apply.  Channels never mix;
the matrix is applied channel by channel.

Two principal-value quadratures are provided, with different error profiles:

``parity``
    Skip-every-other-point rule: row i sums only columns j with i - j odd,
    with doubled weights.  For smooth states resolved by the grid this rule is
    spectrally accurate (it is the classical discrete Hilbert transform in
    u = ln E), so it is the oracle used for cross-checks against the fast
    diagonalized path.  Like any faithful finite section of the continuum
    operator, its eigenvalues cluster at the spectrum endpoints 0 and 1.

``subtraction``
    Plain skip-diagonal trapezoidal rule, the matrix form of the
    singularity-subtraction quadrature.  Its multiplier error is first order
    in the grid spacing, but that error sweeps the discrete eigenvalues
    uniformly across (0, 1), which makes the [0, 1] band structure of the
    spectrum visible at modest grid sizes.  Use it for spectrum studies, not
    for applying the operator accurately.

Both variants are Hermitian by construction with eigenvalues strictly inside
(0, 1) up to roundoff.  The subtraction rule's self-term correction (the
difference between the truncated-interval log term and the skip-sum) is
purely imaginary in weighted coordinates and is therefore dropped from the
matrix; :func:`subtraction_selfterm` exposes it so tests can verify that the
matrix plus that term reproduces the subtraction quadrature exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import EnergyState, LogEnergyGrid, make_state

__all__ = [
    "DenseOperator",
    "build_dense_m",
    "apply_m_direct",
    "dense_spectrum",
    "subtraction_selfterm",
]

QUADRATURES = ("parity", "subtraction")


def cauchy_kernel(e: np.ndarray | float, e_prime: np.ndarray | float) -> np.ndarray | complex:
    """Off-diagonal kernel value -(2 pi i)^{-1} / (E - E')."""
    return -1.0 / (2j * np.pi * (np.asarray(e) - np.asarray(e_prime)))


@dataclass(frozen=True)
class DenseOperator:
    """Hermitian matrix for the operator in weighted coordinates."""

    grid: LogEnergyGrid
    matrix: np.ndarray
    quadrature: str


def build_dense_m(grid: LogEnergyGrid, quadrature: str = "parity") -> DenseOperator:
    """Assemble the dense Hermitian matrix on ``grid``.

    Off-diagonal entries are sqrt(w_i) * [-(2 pi i)^{-1}/(E_i - E_j)] * sqrt(w_j),
    masked to odd offsets and doubled for the parity rule; the diagonal is 1/2.
    """
    if quadrature not in QUADRATURES:
        raise ValueError(f"unknown quadrature {quadrature!r}; choose from {QUADRATURES}")
    E = grid.points
    s = np.sqrt(grid.weights)
    diff = E[:, None] - E[None, :]
    np.fill_diagonal(diff, 1.0)  # placeholder, diagonal overwritten below
    A = (1j / (2.0 * np.pi)) * np.outer(s, s) / diff
    if quadrature == "parity":
        idx = np.arange(grid.n)
        odd = ((idx[:, None] - idx[None, :]) & 1).astype(bool)
        A = np.where(odd, 2.0 * A, 0.0)
    np.fill_diagonal(A, 0.5)
    A.setflags(write=False)
    return DenseOperator(grid=grid, matrix=A, quadrature=quadrature)


def apply_m_direct(state: EnergyState, op: DenseOperator) -> EnergyState:
    """Apply the dense matrix to each channel of ``state``."""
    if state.grid != op.grid:
        raise ValueError("state and operator grids differ")
    s = np.sqrt(op.grid.weights)
    out = (op.matrix @ (s * state.amplitudes).T).T / s
    return make_state(state.grid, state.channels, out)


def dense_spectrum(op: DenseOperator) -> np.ndarray:
    """Real eigenvalues of the Hermitian matrix, ascending."""
    try:
        return np.linalg.eigvalsh(op.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise RuntimeError(
            f"eigensolver failed for n={op.grid.n}, quadrature={op.quadrature!r}: {exc}"
        ) from exc


def _endpoint_log_term(grid: LogEnergyGrid) -> np.ndarray:
    """L_i = ln((E_i - e_min)/(e_max - E_i)), the PV of int dE'/(E_i - E') on the window.

    At the two endpoints the vanishing log argument is clamped to half the
    adjacent grid interval.
    """
    E = grid.points
    num = E - E[0]
    den = E[-1] - E
    num[0] = 0.5 * (E[1] - E[0])
    den[-1] = 0.5 * (E[-1] - E[-2])
    return np.log(num / den)


def subtraction_selfterm(grid: LogEnergyGrid) -> np.ndarray:
    """Residual L_i - S_i of the subtraction rule's principal-value self-term.

    L_i = ln((E_i - e_min)/(e_max - E_i)) is the exact truncated-interval
    principal value of the bare Cauchy kernel (endpoint-clamped) and S_i its
    skip-diagonal trapezoidal sum.  The matrix omits the corresponding purely
    imaginary diagonal term -(2 pi i)^{-1} (L_i - S_i); adding it back
    reproduces the raw subtraction quadrature (see tests).
    """
    E = grid.points
    w = grid.weights
    diff = E[:, None] - E[None, :]
    np.fill_diagonal(diff, 1.0)
    S = np.sum(np.where(np.eye(grid.n, dtype=bool), 0.0, w[None, :] / diff), axis=1)
    return _endpoint_log_term(grid) - S


def pv_cauchy_quadrature(grid: LogEnergyGrid, values: np.ndarray, rule: str) -> np.ndarray:
    """Independent principal-value quadrature of int values(E')/(E_i - E') dE'.

    Straightforward per-point implementation used as the reference in
    rearrangement tests; ``rule`` selects the parity rule or the
    singularity-subtraction form with its analytic log term.
    """
    if rule not in QUADRATURES:
        raise ValueError(f"unknown quadrature {rule!r}; choose from {QUADRATURES}")
    E = grid.points
    w = grid.weights
    n = grid.n
    f = np.asarray(values, dtype=complex)
    out = np.empty(n, dtype=complex)
    if rule == "parity":
        for i in range(n):
            j = np.arange(1 - (i % 2), n, 2)  # opposite parity to i
            out[i] = 2.0 * np.sum(w[j] * f[j] / (E[i] - E[j]))
        return out
    # subtraction: regularize with the sampled value, add the analytic log term
    logterm = _endpoint_log_term(grid)
    for i in range(n):
        j = np.delete(np.arange(n), i)
        out[i] = np.sum(w[j] * (f[j] - f[i]) / (E[i] - E[j])) + f[i] * logterm[i]
    return out
