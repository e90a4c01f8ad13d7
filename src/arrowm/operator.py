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
(Strang 1986); no n x n array is ever built.  A state that is nonzero only
on the columns [s0, s0 + L) meets T's offsets -(s0 + L - 1) .. n - 1 - s0
only, so applying the operator is one linear convolution of its L supported
values with those n + L - 1 entries, by FFTs of the smallest 2^a 3^b 5^c
>= n + L - 1 points: 8192 for a full support at n = 4096, 6400 for the
wide-window packet's 2274 columns.  The embedded kernel is read off the
circulant embedding, and the last (operator, support) pair's is kept;
d sqrt(w) and d / sqrt(w) are kept per grid.  O((n + L) log(n + L)) time,
O(n) memory.

T = iR with R real, antisymmetric and Toeplitz, and d is palindromic, so the
grid reversal J (E <-> e_min e_max / E) gives J A J = conj(A) = I - A.  The
eigenvalues are therefore 1/2 +- sigma_k, with sigma_k the singular values
of the real ceil(n/2) x floor(n/2) block B that maps the J-odd vectors onto
the J-even ones (plus 1/2 itself once for odd n).  :func:`dense_spectrum`
takes sigma_k as the square roots of the eigenvalues of the Gram matrix
B^T B, a BLAS-3 product and a symmetric eigensolve of half the size.
Squaring B squares its condition number, so sigma_k carries an absolute
error of about eps ||B||^2 / (2 sigma_k) with ||B|| <= 1/2, largest at the
smallest sigma_k, about 1/(4n).  Measured, every eigenvalue stays within
2e-14 of an SVD of B up to n = 4096.

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
operator; the tests compute that term and check that the operator plus it
reproduces the subtraction quadrature exactly.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import EnergyState, LogEnergyGrid, _fft_length, _readonly, _support

__all__ = [
    "DenseOperator",
    "build_dense_m",
    "apply_m_direct",
    "dense_spectrum",
    "hermiticity_residual",
]

QUADRATURES = ("parity", "subtraction")


def _circulant_fft(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """FFT of the 2n circulant whose leading n x n block is toeplitz(column, row)."""
    return np.fft.fft(np.concatenate((column, [0.0], row[:0:-1])))


def _endpoint_scale(n: int) -> np.ndarray:
    """d = sqrt(w_i / (E_i du)): 1/sqrt(2) at the two endpoints, 1 inside."""
    d = np.ones(n)
    d[[0, -1]] = 0.5**0.5
    return d


# Cached because apply_m_direct needs both on every call: uncached they cost
# 14-18 us a call at n = 4096, 3-3.6 ms of a 200-step direct orbit (about 3 %
# of perfbench's orbit_dual)
@lru_cache(maxsize=16)
def _weighted_scales(grid: LogEnergyGrid) -> tuple:
    """(d sqrt(w), d / sqrt(w)), read-only: into T's coordinates and back out."""
    s = np.sqrt(grid.weights)
    d = _endpoint_scale(grid.n)
    return _readonly(d * s), _readonly(d / s)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """The operator in weighted coordinates, D T D + I/2 with T Hermitian Toeplitz.

    ``column`` is T's first column (T_k0 for k = 0..n-1; its first row is
    the conjugate) and ``circulant_fft`` the FFT of its 2n circulant
    embedding, from which :func:`apply_m_direct` derives the kernel of each
    support it meets.  Operators compare and hash by identity.
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


@lru_cache(maxsize=1)
def _support_kernel(op: DenseOperator, start: int, stop: int) -> np.ndarray:
    """FFT of T's offsets -(stop - 1) .. n - 1 - start for the support [start, stop).

    The entries are read off the inverse FFT of ``op.circulant_fft``, whose
    entry k mod 2n is T's offset k, and zero-padded to the
    :func:`_fft_length` of n + stop - start - 1.  Read-only; the last one is
    kept, since a trajectory applies one operator to one support.
    """
    offsets = np.arange(-(stop - 1), op.grid.n - start)
    embedded = np.take(np.fft.ifft(op.circulant_fft), offsets, mode="wrap")
    return _readonly(np.fft.fft(embedded, _fft_length(offsets.size)))


def apply_m_direct(state: EnergyState, op: DenseOperator) -> EnergyState:
    """Apply the operator to every channel of ``state`` in one batched convolution.

    Only the state's support enters the convolution (see the module notes);
    the zero state gives the zero state without an FFT.
    """
    if state.grid != op.grid:
        raise ValueError("state and operator grids differ")
    support = _support(state)
    length = support.stop - support.start
    out = 0.5 * state.amplitudes
    if length:
        to_t, from_t = _weighted_scales(op.grid)
        kernel = _support_kernel(op, support.start, support.stop)
        x = np.fft.fft(to_t[support] * state.amplitudes[:, support], kernel.size, axis=-1)
        x *= kernel
        y = np.fft.ifft(x, axis=-1, out=x)[:, length - 1:length - 1 + op.grid.n]
        y *= from_t
        out += y
    return EnergyState(state.grid, state.channels, _readonly(out))


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
    d = _endpoint_scale(n)
    # Toeplitz part r[j - k] (with r[-k] = -r[k]) plus Hankel part
    # r[n - 1 - j - k], each a sliding-window view of the column
    toeplitz_part = sliding_window_view(np.concatenate((-r[o - 1:0:-1], r[:h])), o)[:, ::-1]
    B = toeplitz_part + sliding_window_view(r[:0:-1], o)
    B *= d[:h, None]
    B *= d[None, :o]
    if n & 1:
        B[-1] *= 0.5**0.5
    return B


def dense_spectrum(op: DenseOperator) -> np.ndarray:
    """Real eigenvalues of the Hermitian matrix, ascending.

    They are 1/2 +- sigma_k, plus 1/2 once more for odd n, with sigma_k the
    singular values of :func:`_reversal_block` B taken from the eigenvalues
    of B^T B (absolute error about eps ||B||^2 / (2 sigma_k)).  Raises
    ValueError, before allocating, when B and B^T B (about 4 n^2 bytes)
    would not fit in the host's physical memory.
    """
    n = op.grid.n
    o = n // 2
    needed = 8 * n * o  # B, ceil(n/2) x o, and its o x o Gram matrix in float64
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > physical:
        raise ValueError(f"the spectrum at n={n} needs {needed} bytes, more than the "
                         f"{physical} bytes of physical memory")
    # The Gram matrix comes first: once glibc frees B (8 MB at n = 2048) it
    # raises its mmap threshold, and only in this order do later calls fit
    # LAPACK's copy of the Gram matrix into freed heap space (fresh-process
    # RSS after three more calls: +0.5 MB, against +8 MB with B first).
    gram = np.empty((o, o))
    B = _reversal_block(op)
    np.matmul(B.T, B, out=gram)
    del B
    try:
        s = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise RuntimeError(
            f"eigensolver failed for n={n}, quadrature={op.quadrature!r}: {exc}"
        ) from exc
    # s ascends and is >= 0, so the three parts join in ascending order
    return np.concatenate((0.5 - s[::-1], np.full(n - 2 * s.size, 0.5), 0.5 + s))
