import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.special import loggamma

from arrowm import CHANNELS, eigenvalue_of_frequency, make_log_grid, make_state, tukey_window
from arrowm.operator import QUADRATURES, _reversal_block

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


def _endpoint_scale(n):
    """The operator's d at n points, as a table: 1/sqrt(2) at the two endpoints, 1 inside.

    The oracle for the d the operator reads off the grid's halved end weights.
    """
    d = np.ones(n)
    d[[0, -1]] = 0.5**0.5
    return d


def _circulant_fft(column, row):
    """FFT of the 2n circulant whose leading n x n block is toeplitz(column, row)."""
    return np.fft.fft(np.concatenate((column, [0.0], row[:0:-1])))


def _toeplitz_apply(circulant_fft, x):
    """Toeplitz matrix times x along the last axis, by the zero-padded 2n convolution.

    The oracle for the operator's support-sized convolution.
    """
    n = x.shape[-1]
    return np.fft.ifft(circulant_fft * np.fft.fft(x, 2 * n, axis=-1), axis=-1)[..., :n]


def full_apply_m(state, op):
    """The operator applied to ``state`` by the 2n convolution over every column."""
    s = np.sqrt(state.grid.weights)
    d = _endpoint_scale(state.grid.n)
    v = s * state.amplitudes
    return (d * _toeplitz_apply(op.circulant_fft, d * v) + 0.5 * v) / s


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


def reversal_singular_values(op):
    """Singular values of the time-reversal block by SVD, descending."""
    return np.linalg.svd(_reversal_block(op), compute_uv=False)


def mellin_ndft(state, nu):
    """chat(nu) at arbitrary frequencies: the defining sum over the u grid, as a dense NDFT.

    The nonuniform DFT (2 pi)^{-1/2} sum_j du e^{i nu u_j} e^{u_j/2} f(E_j),
    built in chunks of 512 frequencies; shape (n_channels, len(nu)).
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    grid = state.grid
    u = grid.log_points
    F = np.exp(0.5 * u) * state.amplitudes
    chat = np.empty((len(state.channels), nu.size), dtype=complex)
    chunk = 512
    pref = (2.0 * np.pi) ** -0.5 * grid.du
    for start in range(0, nu.size, chunk):
        sl = slice(start, min(start + chunk, nu.size))
        kernel = np.exp(1j * np.outer(nu[sl], u))
        chat[:, sl] = pref * (kernel @ F.T).T
    return chat


# Uncached oracles of the fast path: the transform formulas with the scale c
# and the phase recomputed inline, in the order the library multiplies them,
# so the library's cached factors must reproduce them bit for bit.


def _fft_order_frequencies(grid):
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.du)


def _scale_oracle(grid):
    """c_i = (2 pi)^{-1/2} du e^{u_i/2}."""
    return (2.0 * np.pi) ** -0.5 * grid.du * np.exp(0.5 * grid.log_points)


def _phase_oracle(grid):
    """e^{i nu_k u_0} on the FFT-order lattice."""
    return np.exp(1j * _fft_order_frequencies(grid) * grid.log_points[0])


def forward_mellin_oracle(state):
    """Coefficients of ``forward_mellin(state)``, ascending frequency: phase ifft(c f)."""
    grid = state.grid
    F = _scale_oracle(grid) * state.amplitudes
    chat = _phase_oracle(grid) * np.fft.ifft(F, axis=-1, norm="forward")
    return np.fft.fftshift(chat, axes=-1)


def inverse_mellin_oracle(grid, coefficients):
    """Amplitudes of ``inverse_mellin`` for ascending-frequency coefficients."""
    chat = np.fft.ifftshift(coefficients, axes=-1) * np.conj(_phase_oracle(grid))
    return np.fft.fft(chat, axis=-1, norm="forward") / _scale_oracle(grid)


def apply_m_fast_oracle(state):
    """Amplitudes of ``apply_m_fast(state)``: fft(m ifft(c f)) / c, with no phase."""
    grid = state.grid
    m = eigenvalue_of_frequency(_fft_order_frequencies(grid))
    chat = m * np.fft.ifft(_scale_oracle(grid) * state.amplitudes, axis=-1, norm="forward")
    return np.fft.fft(chat, axis=-1, norm="forward") / _scale_oracle(grid)


def eigen_density_moments_oracle(state):
    """``eigen_density_moments(state)``: (mass, first moment).

    dnu times the sums of re^2 + im^2 and of m(nu) (re^2 + im^2) over the
    coefficients, each sum taken over (channel, FFT-order frequency, Re/Im).
    """
    grid = state.grid
    dnu = 2.0 * np.pi / (grid.n * grid.du)
    chat = np.fft.ifftshift(forward_mellin_oracle(state), axes=-1)
    squares = np.stack([chat.real**2, chat.imag**2], axis=-1)
    m = eigenvalue_of_frequency(_fft_order_frequencies(grid))[:, None]
    return float(np.sum(squares) * dnu), float(np.sum(m * squares) * dnu)


def spectral_weight_oracle(spec):
    """``spectral_weight(spec)``: dnu times the channel sum of re^2 + im^2."""
    c = spec.coefficients
    return spec.dnu * np.sum(c.real**2 + c.imag**2, axis=0)


def packet_chat_reference(params, nu, t):
    """chat_pm(nu, t) of the evolved Gaussian packet, grid-free: shape (2, len(nu)), (+, -).

    The packet stays Gaussian in p = sqrt(2 eta E), so expanding e^{+-a p}
    term by term gives, with 80 terms,

        chat_pm = (2 pi)^{-1/2} sqrt 2 (2 eta)^{-i nu} phi(0)
                  * sum_k (+-a)^k / k! 1/2 Gamma(z_k) b_t^{-z_k},

    z_k = (k + 1/2 + 2 i nu) / 2, a = p0 / xi0^2, b_t = 1/(2 xi0^2) + i t/(2 eta)
    and phi(0) = (pi xi0^2)^{-1/4} e^{-p0^2/(2 xi0^2)}.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    eta, p0, xi0 = params.eta, params.p0, params.xi0
    a = p0 / xi0**2
    b = 1.0 / (2.0 * xi0**2) + 1j * t / (2.0 * eta)
    k = np.arange(80)[:, None]
    z = (k + 0.5 + 2j * nu) / 2.0
    moments = 0.5 * np.exp(loggamma(z) - z * np.log(b))  # 1/2 Gamma(z_k) b^{-z_k}
    coef = np.cumprod(np.r_[1.0, a / k[1:, 0]])[:, None]  # a^k / k!
    phi0 = (np.pi * xi0**2) ** -0.25 * np.exp(-(p0**2) / (2.0 * xi0**2))
    pref = (2.0 * np.pi) ** -0.5 * 2.0**0.5 * phi0 * np.exp(-1j * nu * np.log(2.0 * eta))
    return np.stack([pref * np.sum(c * moments, axis=0) for c in (coef, (-1.0) ** k * coef)])


def packet_expectation_reference(params, t):
    """<M>(t) of the Gaussian packet, grid-free: the integral of m(nu) sum_pm |chat_pm|^2.

    The trapezoid rule on 1201 points of nu in [-20, 20].  The packet has unit
    mass on the half-line, which its closed form gives as exactly 1.0.
    """
    return superposition_expectation_reference([params], [1.0], t)


def _packet_overlap(a, b):
    """int phi_a(p) phi_b(p) dp of two momentum Gaussians, in closed form; 1 for a = b."""
    va, vb = a.xi0**2, b.xi0**2
    return (4.0 * va * vb / (va + vb) ** 2) ** 0.25 * np.exp(-((a.p0 - b.p0) ** 2)
                                                         / (2.0 * (va + vb)))


def superposition_expectation_reference(packets, coefficients, t):
    """<M>(t) of sum_k c_k (packet k), grid-free; the packets share one mass eta.

    chat is linear in the state, so chat_pm = sum_k c_k chat_pm[packet k], and
    the integral of m(nu) sum_pm |chat_pm|^2 is the trapezoid rule on 1201
    points of nu in [-20, 20].  The mass is taken in closed form, as
    sum_{k,l} conj(c_k) c_l int phi_k phi_l dp: |chat|^2 decays slowly for
    nu > 0, so a nu integral of it misses mass (by 1e-2 in one prototype).
    """
    nu = np.linspace(-20.0, 20.0, 1201)
    c = np.asarray(coefficients, dtype=complex)
    chat = sum(ck * packet_chat_reference(p, nu, t) for ck, p in zip(c, packets))
    weight = np.sum(np.abs(chat) ** 2, axis=0)
    overlaps = np.array([[_packet_overlap(a, b) for b in packets] for a in packets])
    mass = float(np.real(np.conj(c) @ overlaps @ c))
    return float(np.trapezoid(eigenvalue_of_frequency(nu) * weight, nu)) / mass


def zero_state(grid, channels=CHANNELS):
    return make_state(grid, channels, np.zeros((len(channels), grid.n), dtype=complex))


def gaussian_window(grid, sigma, center=None):
    """Gaussian taper exp(-(u - c)^2 / (2 sigma^2)) on the log grid."""
    c = grid.center if center is None else center
    return np.exp(-((grid.log_points - c) ** 2) / (2.0 * sigma**2))


def cauchy_kernel(e, e_prime):
    """Off-diagonal kernel value -(2 pi i)^{-1} / (E - E')."""
    return -1.0 / (2j * np.pi * (np.asarray(e) - np.asarray(e_prime)))


def _endpoint_log_term(grid):
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


def subtraction_selfterm(grid):
    """Residual L_i - S_i of the subtraction rule's principal-value self-term.

    L_i = ln((E_i - e_min)/(e_max - E_i)) is the exact truncated-interval
    principal value of the bare Cauchy kernel (endpoint-clamped) and S_i its
    skip-diagonal trapezoidal sum.  The operator omits the corresponding
    purely imaginary diagonal term -(2 pi i)^{-1} (L_i - S_i); adding it back
    reproduces the raw subtraction quadrature.

    S_i = sum_{j != i} w_j / (E_i - E_j) is Toeplitz in i - j, because
    E_j / (E_i - E_j) = 1 / (e^{(i - j) du} - 1); it is applied to the
    endpoint-halved weights w_j / (E_j du) by FFT convolution.
    """
    k = np.arange(1, grid.n) * grid.du
    column = np.concatenate(([0.0], 1.0 / np.expm1(k)))
    row = np.concatenate(([0.0], 1.0 / np.expm1(-k)))
    S = grid.du * _toeplitz_apply(_circulant_fft(column, row), _endpoint_scale(grid.n) ** 2).real
    return _endpoint_log_term(grid) - S


def pv_cauchy_quadrature(grid, values, rule):
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


def completeness_kernel_quadrature(e, e_prime, theta, span=None):
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

    def integrand(v):
        log_m = -np.logaddexp(0.0, -v)
        log_1m = -np.logaddexp(0.0, v)
        return np.exp(x * log_m + y * log_1m)

    re = quad(lambda v: integrand(v).real, -span, span, limit=4000)[0]
    im = quad(lambda v: integrand(v).imag, -span, span, limit=4000)[0]
    return complex((4.0 * np.pi**2) ** -1 * (e * e_prime) ** -0.5 * (re + 1j * im))


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv_rows(path, columns, rows) -> None:
    """Slow cross-check of ``cli.write_csv``: formats row by row, value by value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
