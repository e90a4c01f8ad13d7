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
So the matrix is D T D + I/2 with T Hermitian Toeplitz: T's first column
fixes it (its first row is the column's conjugate), and no n x n array is
ever built.  A state nonzero only on the columns [s0, s0 + L) meets T's
offsets -(s0 + L - 1) .. n - 1 - s0 only, so applying the operator is one
linear convolution of its L supported values with those n + L - 1 entries,
sliced off the column, by FFTs of the smallest 2^a 3^b 5^c >= n + L - 1
points (8192 for a full support at n = 4096).  O((n + L) log(n + L)) time,
O(n) memory.

T = iR with R real, antisymmetric and Toeplitz, and d is palindromic, so the
grid reversal J (E <-> e_min e_max / E) gives J A J = conj(A) = I - A.  The
eigenvalues are therefore 1/2 +- sigma_k, with sigma_k the singular values
of the real ceil(n/2) x floor(n/2) block B that maps the J-odd vectors onto
the J-even ones (plus 1/2 itself once for odd n).  :func:`dense_spectrum`
takes sigma_k as the square roots of the eigenvalues of the Gram matrix
B^T B, a BLAS-3 product and a symmetric eigensolve of half the size;
measured, every eigenvalue stays within 2e-14 of an SVD of B up to n = 4096.

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

Both variants are Hermitian by construction, with eigenvalues strictly
inside (0, 1) up to roundoff.  The subtraction rule's self-term (the
truncated-interval log term minus the skip-sum) is purely imaginary in
weighted coordinates, so it is dropped; the tests add it back and recover
the subtraction quadrature exactly.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
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


def _endpoint_scale(n: int) -> np.ndarray:
    """d = sqrt(w_i / (E_i du)): 1/sqrt(2) at the two endpoints, 1 inside."""
    d = np.ones(n)
    d[[0, -1]] = 0.5**0.5
    return d


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """The operator in weighted coordinates, D T D + I/2 with T Hermitian Toeplitz.

    ``column`` is T's first column (T_k0 for k = 0..n-1), whose conjugate
    is T's first row; :func:`apply_m_direct` slices each support's kernel
    off it.  ``to_t`` = d sqrt(w) and ``from_t`` = d / sqrt(w), derived
    from the grid, scale into T's coordinates and back out.  Raises
    ValueError unless the quadrature is one of ``QUADRATURES`` and the
    column holds n entries.  Operators compare and hash by identity.
    """

    grid: LogEnergyGrid
    quadrature: str
    column: np.ndarray
    to_t: np.ndarray = field(init=False, repr=False)
    from_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.grid.n
        if self.quadrature not in QUADRATURES or np.shape(self.column) != (n,):
            raise ValueError(
                f"need a quadrature from {QUADRATURES} and a column of {n} entries, "
                f"got {self.quadrature!r} and shape {np.shape(self.column)}"
            )
        s = np.sqrt(self.grid.weights)
        d = _endpoint_scale(self.grid.n)
        object.__setattr__(self, "to_t", _readonly(d * s))
        object.__setattr__(self, "from_t", _readonly(d / s))

    @property
    def circulant_fft(self) -> np.ndarray:
        """FFT of T's 2n circulant embedding, computed on each access."""
        return np.fft.fft(np.concatenate((self.column, [0.0], self.column[:0:-1].conj())))


def build_dense_m(grid: LogEnergyGrid, quadrature: str = "parity") -> DenseOperator:
    """Sample the weighted Cauchy kernel on ``grid`` as a Toeplitz column.

    T_k0 = (i/2 pi) du / (2 sinh(k du/2)) for k >= 1, doubled at odd k and
    zero at even k for the parity rule; T_00 = 0.  O(n) memory.
    """
    k = np.arange(1, grid.n)
    column = np.zeros(grid.n, dtype=complex)
    column[1:] = (1j / (2.0 * np.pi)) * grid.du / (2.0 * np.sinh(0.5 * grid.du * k))
    if quadrature == "parity":
        column[1:] *= np.where(k & 1, 2.0, 0.0)
    return DenseOperator(grid=grid, quadrature=quadrature, column=_readonly(column))


@lru_cache(maxsize=1)
def _support_kernel(op: DenseOperator, start: int, stop: int) -> np.ndarray:
    """FFT of T's offsets -(stop - 1) .. n - 1 - start for the support [start, stop).

    Offset -k is the conjugate of ``op.column[k]`` and offset k is
    ``op.column[k]``; the n + stop - start - 1 entries are zero-padded to
    their :func:`_fft_length`.  Read-only; the last one is kept, since a
    trajectory applies one operator to one support.
    """
    column = op.column
    entries = np.concatenate((column[stop - 1:0:-1].conj(), column[:op.grid.n - start]))
    return _readonly(np.fft.fft(entries, _fft_length(entries.size)))


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
        kernel = _support_kernel(op, support.start, support.stop)
        x = np.fft.fft(op.to_t[support] * state.amplitudes[:, support], kernel.size, axis=-1)
        x *= kernel
        y = np.fft.ifft(x, axis=-1, out=x)[:, length - 1:length - 1 + op.grid.n]
        y *= op.from_t
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
    of B^T B.  Squaring B squares its condition number: sigma_k carries an
    absolute error of about eps ||B||^2 / (2 sigma_k), ||B|| <= 1/2, largest
    at the smallest sigma_k, about 1/(4n).  Raises ValueError, before
    allocating, when B and B^T B (about 4 n^2 bytes) would not fit in the
    host's physical memory, and numpy's LinAlgError, a ValueError, where the
    eigensolve fails.
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
    s = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
    # s ascends and is >= 0, so the three parts join in ascending order
    return np.concatenate((0.5 - s[::-1], np.full(n - 2 * s.size, 0.5), 0.5 + s))
