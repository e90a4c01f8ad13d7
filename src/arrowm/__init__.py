"""Time-ordering operator for quantum evolution on the energy half-line.

The package discretizes the positive, contractive operator obtained by
compressing the upper-half-plane Hardy projection onto the half-line, whose
expectation value decreases monotonically along every Schroedinger orbit
generated by multiplication by the energy.  Two independent realizations are
provided and cross-checked: a Hermitian quadrature of the singular Cauchy
kernel (Toeplitz in u = ln E, applied by FFT convolution), and an
FFT-diagonalized path that multiplies power-law mode
coefficients by the closed-form eigenvalue m(nu) = (1 + e^{2 pi nu})^{-1}.
On top of these sit trajectory diagnostics and the free-particle Gaussian
wave-packet scenarios exercised by the ``arrow-m`` command.
"""

import numpy as _np

from .dynamics import MONOTONE_TOL, Trajectory, evolve, expectation_m, trajectory
from .freeparticle import (
    GaussianPacketParams,
    momentum_wavefunction,
    packet_tail_mass,
    position_density,
    position_spread,
    position_wavefunction,
    to_energy_state,
)
from .grid import (
    CHANNELS,
    EnergyState,
    LogEnergyGrid,
    inner_product,
    make_log_grid,
    make_state,
    normalize_state,
    random_smooth_state,
    state_norm,
)
from .mellin import (
    MellinSpectrum,
    apply_m_fast,
    completeness_kernel_check,
    eigen_density,
    eigen_density_moments,
    eigenvalue_of_frequency,
    forward_mellin,
    frequency_grid,
    frequency_jacobian,
    frequency_of_eigenvalue,
    inverse_mellin,
    sample_eigenfunction,
    spectral_weight,
    tukey_window,
    windowed_eigenfunction,
)
from .operator import (
    DenseOperator,
    apply_m_direct,
    build_dense_m,
    dense_spectrum,
    hermiticity_residual,
)

# glibc's malloc maps blocks above a dynamic threshold (128 KiB at start) with
# mmap, and trims its heap when more than twice that lies free at the top.
# A direct trajectory step or a density frame allocates and frees a few
# (channels, n) complex arrays, 128 KiB each at n = 4096, so at the start
# thresholds each one faults its pages in afresh.  Freeing one untouched
# 4 MiB block raises both thresholds for the process (they never fall);
# other allocators are unaffected.  In a fresh process at n = 4096 on a
# 2-core host, with the block against without: a 200-step direct trajectory
# 375 against 51,415 faults (0.21 s against 0.35 s), 20 density frames 452
# against 7,530, a 4000-step fast trajectory 763 against 1,128 to 64,969.
_np.empty(4 << 20, dtype=_np.uint8)

__version__ = "0.1.0"

__all__ = [
    "CHANNELS",
    "DenseOperator",
    "EnergyState",
    "GaussianPacketParams",
    "LogEnergyGrid",
    "MONOTONE_TOL",
    "MellinSpectrum",
    "Trajectory",
    "apply_m_direct",
    "apply_m_fast",
    "build_dense_m",
    "completeness_kernel_check",
    "dense_spectrum",
    "eigen_density",
    "eigen_density_moments",
    "eigenvalue_of_frequency",
    "evolve",
    "expectation_m",
    "forward_mellin",
    "frequency_grid",
    "frequency_jacobian",
    "frequency_of_eigenvalue",
    "hermiticity_residual",
    "inner_product",
    "inverse_mellin",
    "make_log_grid",
    "make_state",
    "momentum_wavefunction",
    "normalize_state",
    "packet_tail_mass",
    "position_density",
    "position_spread",
    "position_wavefunction",
    "random_smooth_state",
    "sample_eigenfunction",
    "spectral_weight",
    "state_norm",
    "to_energy_state",
    "trajectory",
    "tukey_window",
    "windowed_eigenfunction",
]
