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

from . import dynamics, freeparticle, grid, mellin, operator
from .dynamics import *
from .freeparticle import *
from .grid import *
from .mellin import *
from .operator import *

# glibc's malloc maps blocks above a dynamic threshold (128 KiB at start) with
# mmap, and trims its heap when more than twice that lies free at the top.
# A direct trajectory step or a density frame allocates and frees a few
# (channels, n) complex arrays, 128 KiB each at n = 4096, so at the start
# thresholds each one faults its pages in afresh.  Freeing one untouched
# 4 MiB block raises both thresholds for the process (they never fall);
# other allocators are unaffected.  In a fresh process with the fig-1 packet
# at n = 4096 on a 2-core host, with the block against without: a 200-step
# direct trajectory 586 to 589 against 13,614 faults (0.09 to 0.11 s against
# 0.11 s), 20 density frames 123 to 126 against 3,784 to 3,788 (27 to 29 ms
# against 33 to 35 ms), a 4000-step fast trajectory 646 to 768 against 841
# to 963 (0.21 to 0.27 s either way).
_np.empty(4 << 20, dtype=_np.uint8)

__version__ = "0.1.0"

__all__ = sorted(
    {*dynamics.__all__, *freeparticle.__all__, *grid.__all__, *mellin.__all__, *operator.__all__}
)
