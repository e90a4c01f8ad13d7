import numpy as np
import pytest
from scipy.linalg import toeplitz

from arrowm import make_log_grid, tukey_window

# Cross-path comparisons need a wide log window: the fast path wraps the
# operator output around the grid period, so the Toeplitz/circulant mismatch
# decays like exp(-span/4) and only drops below 1e-8 for spans around 100.
WIDE_BOUNDS = (1e-22, 1e21)

# Geometry for windowed-eigenfunction residual tests: the operator kernel
# decays like exp(-|u - u'|/2), so the interior observation region must sit
# deep inside the window's flat top for leakage to stay under 1e-3.
RESIDUAL_BOUNDS = (1e-8, 1e8)
RESIDUAL_N = 2048
RESIDUAL_FLAT = 15.2
RESIDUAL_TAPER = 2.5
RESIDUAL_INTERIOR = 2.3


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def wide_grid():
    return make_log_grid(*WIDE_BOUNDS, 1024)


@pytest.fixture(scope="session")
def residual_setup():
    grid = make_log_grid(*RESIDUAL_BOUNDS, RESIDUAL_N)
    window = tukey_window(grid, RESIDUAL_FLAT, RESIDUAL_TAPER)
    interior = np.abs(grid.log_points - grid.center) <= RESIDUAL_INTERIOR
    return grid, window, interior


def interior_residual(grid, interior, state, applied, m0):
    """Relative L2 residual of (M - m0) on the interior observation window."""
    resid = applied.amplitudes - m0 * state.amplitudes
    w = grid.weights[interior]
    num = np.sqrt(np.sum(w * np.abs(resid[:, interior]) ** 2))
    den = np.sqrt(np.sum(w * np.abs(state.amplitudes[:, interior]) ** 2))
    return float(num / den)


def dense_assembly(grid, quadrature):
    """Entry-by-entry weighted matrix sqrt(w_i w_j) (i/2 pi)/(E_i - E_j), diagonal 1/2."""
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
    return A


def toeplitz_matrix(op):
    """The operator's n x n Hermitian matrix D T D + I/2, from its Toeplitz column."""
    A = toeplitz(op.column)
    A[[0, -1], :] *= 0.5**0.5
    A[:, [0, -1]] *= 0.5**0.5
    np.fill_diagonal(A, 0.5)
    return A
