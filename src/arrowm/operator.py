"""Direct realization of the half-line time-ordering operator.

The operator acts on one channel as

    (M f)(E) = 1/2 f(E) - (2 pi i)^{-1} PV int_0^inf f(E') / (E - E') dE',

the local half plus a principal-value Cauchy integral (the boundary split of
the singular kernel -(2 pi i)^{-1} (E - E' + i0)^{-1}).  The direct route
samples that kernel on the log grid, in weighted coordinates
v_i = sqrt(w_i) f(E_i) where the matrix is Hermitian.  Channels never mix.

On the log grid E_i = exp(u_0 + i du) the weighted kernel depends on i - j
only:

    sqrt(w_i w_j) (i/2 pi) / (E_i - E_j) = d_i d_j (i/2 pi) du / (2 sinh((i - j) du/2)),

with d = (1/sqrt 2, 1, ..., 1, 1/sqrt 2) from the halved endpoint weights.
So the matrix is D T D + I/2 with T Hermitian Toeplitz, and the operator
keeps only T's first column and the FFT of its 2n circulant embedding
(Strang 1986).  Applying it is one zero-padded FFT convolution, O(n log n)
time and O(n) memory; no n x n array is ever built.

T = iR with R real, antisymmetric and Toeplitz, and d is palindromic, so the
grid reversal J (E <-> e_min e_max / E) gives J A J = conj(A) = I - A.  The
eigenvalues are therefore 1/2 +- sigma_k, with sigma_k the singular values
of the real ceil(n/2) x floor(n/2) block that maps the J-odd vectors onto the
J-even ones (plus 1/2 itself once for odd n); :func:`dense_spectrum` solves
that half-size real problem.

Two principal-value quadratures are provided, with different error profiles:

``parity``
    Skip-every-other-point rule: row i sums only columns j with i - j odd,
    with doubled weights (T zeroes the even offsets and doubles the odd
    ones).  For smooth states resolved by the grid this rule is spectrally
    accurate (it is the classical discrete Hilbert transform in u = ln E),
    so it is the oracle used for cross-checks against the fast diagonalized
    path.  Like any faithful finite section of the continuum operator, its
    eigenvalues cluster at the spectrum endpoints 0 and 1.

``subtraction``
    Plain skip-diagonal trapezoidal rule (T keeps every offset), the matrix
    form of the singularity-subtraction quadrature.  Its multiplier error is
    first order in the grid spacing, but that error sweeps the discrete
    eigenvalues uniformly across (0, 1), which makes the [0, 1] band
    structure of the spectrum visible at modest grid sizes.  Use it for
    spectrum studies, not for applying the operator accurately.

Both variants are Hermitian by construction with eigenvalues strictly inside
(0, 1) up to roundoff.  The subtraction rule's self-term correction (the
difference between the truncated-interval log term and the skip-sum) is
purely imaginary in weighted coordinates and is therefore dropped from the
operator; :func:`subtraction_selfterm` exposes it so tests can verify that
the operator plus that term reproduces the subtraction quadrature exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import hankel, svdvals, toeplitz

from .grid import EnergyState, LogEnergyGrid, _readonly, make_state

__all__ = [
    "DenseOperator",
    "build_dense_m",
    "apply_m_direct",
    "dense_spectrum",
    "hermiticity_residual",
    "subtraction_selfterm",
]

QUADRATURES = ("parity", "subtraction")


def cauchy_kernel(e: np.ndarray | float, e_prime: np.ndarray | float) -> np.ndarray | complex:
    """Off-diagonal kernel value -(2 pi i)^{-1} / (E - E')."""
    return -1.0 / (2j * np.pi * (np.asarray(e) - np.asarray(e_prime)))


def _circulant_fft(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """FFT of the 2n circulant whose leading n x n block is toeplitz(column, row)."""
    return np.fft.fft(np.concatenate((column, [0.0], row[:0:-1])))


def _toeplitz_apply(circulant_fft: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Toeplitz matrix times x along the last axis, by zero-padded FFT convolution."""
    n = x.shape[-1]
    return np.fft.ifft(circulant_fft * np.fft.fft(x, 2 * n, axis=-1), axis=-1)[..., :n]


def _endpoint_scale(n: int) -> np.ndarray:
    """d = sqrt(w_i / (E_i du)): 1/sqrt(2) at the two endpoints, 1 inside."""
    d = np.ones(n)
    d[[0, -1]] = 0.5**0.5
    return d


@dataclass(frozen=True)
class DenseOperator:
    """The operator in weighted coordinates, D T D + I/2 with T Hermitian Toeplitz.

    ``column`` is T's first column (T_k0 for k = 0..n-1; its first row is
    the conjugate) and ``circulant_fft`` the FFT of its 2n circulant
    embedding, which :func:`apply_m_direct` uses.
    """

    grid: LogEnergyGrid
    quadrature: str
    column: np.ndarray
    circulant_fft: np.ndarray


def build_dense_m(grid: LogEnergyGrid, quadrature: str = "parity") -> DenseOperator:
    """Sample the weighted Cauchy kernel on ``grid`` as a Toeplitz column.

    T_k0 = (i/2 pi) du / (2 sinh(k du/2)) for k >= 1, doubled at odd k and
    zero at even k for the parity rule; T_00 = 0.  O(n) memory.
    """
    if quadrature not in QUADRATURES:
        raise ValueError(f"unknown quadrature {quadrature!r}; choose from {QUADRATURES}")
    k = np.arange(1, grid.n)
    column = np.zeros(grid.n, dtype=complex)
    column[1:] = (1j / (2.0 * np.pi)) * grid.du / (2.0 * np.sinh(0.5 * grid.du * k))
    if quadrature == "parity":
        column[1:] *= np.where(k & 1, 2.0, 0.0)
    return DenseOperator(grid=grid, quadrature=quadrature, column=_readonly(column),
                         circulant_fft=_readonly(_circulant_fft(column, column.conj())))


def apply_m_direct(state: EnergyState, op: DenseOperator) -> EnergyState:
    """Apply the operator to every channel of ``state`` in one batched convolution."""
    if state.grid != op.grid:
        raise ValueError("state and operator grids differ")
    s = np.sqrt(op.grid.weights)
    d = _endpoint_scale(op.grid.n)
    v = s * state.amplitudes
    out = (d * _toeplitz_apply(op.circulant_fft, d * v) + 0.5 * v) / s
    return make_state(state.grid, state.channels, out)


def hermiticity_residual(op: DenseOperator) -> float:
    """max |Im| of ``op.circulant_fft``: a Hermitian T has a real embedding FFT."""
    return float(np.max(np.abs(op.circulant_fft.imag)))


def _reversal_block(op: DenseOperator) -> np.ndarray:
    """Real block B[j, k] = <e_j^+, D R D e_k^-> between the reversal-even and -odd bases.

    e_j^+ = (e_j + e_{n-1-j})/sqrt 2 (the middle e_j itself for odd n) and
    e_k^- = (e_k - e_{n-1-k})/sqrt 2; B is ceil(n/2) x floor(n/2).
    """
    if np.any(op.column.real != 0.0):
        raise ValueError("the time-reversal split needs a purely imaginary Toeplitz column")
    n = op.grid.n
    h, o = (n + 1) // 2, n // 2
    r = op.column.imag
    rev = r[::-1]
    d = _endpoint_scale(n)
    B = toeplitz(r[:h], -r[:o])
    B += hankel(rev[:h], rev[h - 1:h - 1 + o])
    B *= d[:h, None]
    B *= d[None, :o]
    if n & 1:
        B[-1] *= 0.5**0.5
    return B


def dense_spectrum(op: DenseOperator) -> np.ndarray:
    """Real eigenvalues of the Hermitian matrix, ascending.

    They are 1/2 +- the singular values of :func:`_reversal_block`, plus 1/2
    once more for odd n.
    """
    B = _reversal_block(op)
    try:
        s = svdvals(B, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise RuntimeError(
            f"eigensolver failed for n={op.grid.n}, quadrature={op.quadrature!r}: {exc}"
        ) from exc
    return np.sort(np.concatenate((0.5 - s, np.full(op.grid.n - 2 * s.size, 0.5), 0.5 + s)))


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
    skip-diagonal trapezoidal sum.  The operator omits the corresponding
    purely imaginary diagonal term -(2 pi i)^{-1} (L_i - S_i); adding it back
    reproduces the raw subtraction quadrature (see tests).

    S_i = sum_{j != i} w_j / (E_i - E_j) is Toeplitz in i - j, because
    E_j / (E_i - E_j) = 1 / (e^{(i - j) du} - 1); it is applied to the
    endpoint-halved weights w_j / (E_j du) by FFT convolution.
    """
    k = np.arange(1, grid.n) * grid.du
    column = np.concatenate(([0.0], 1.0 / np.expm1(k)))
    row = np.concatenate(([0.0], 1.0 / np.expm1(-k)))
    S = grid.du * _toeplitz_apply(_circulant_fft(column, row), _endpoint_scale(grid.n) ** 2).real
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
