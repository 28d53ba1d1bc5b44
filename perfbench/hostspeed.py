"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed a process gets drifts by tens of percent over
tens of seconds, as neighbours come and go.  The benchmark times this
kernel next to every operation and reports each operation's latency
scaled to the kernel's time on the reference machine:

    scaled = latency * REFERENCE_S / (kernel time around the latency)

The kernel is plain SciPy and NumPy and never touches cavityconv, so a
change to the program moves the scaled times in the same proportion as the
raw ones, while the host's drift cancels.  Like the program's own kernels it
does sparse complex matrix-vector products and small dense products on
one thread.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse

# the kernel's median time on the reference machine (2 shared vCPUs,
# scipy-openblas 0.3.31, one BLAS thread)
REFERENCE_S = 0.013
_DIM = 1024
_MATVECS = 300
_DENSE = 48


class HostSpeed:
    """Times the reference kernel; ``sample`` returns seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = scipy.sparse.random(_DIM, _DIM, density=4.0 / _DIM, random_state=rng, format="csr")
        self.matrix = (a - a.T) * 1j
        self.vector = np.ones(_DIM, dtype=complex) / np.sqrt(_DIM)
        self.dense = np.linalg.qr(rng.normal(size=(_DENSE, _DENSE)))[0]

    def sample(self) -> float:
        start = time.perf_counter()
        v, d = self.vector, self.dense
        for _ in range(_MATVECS):
            v = self.matrix @ v
            v /= np.linalg.norm(v)
            d = d @ self.dense  # orthogonal, so d stays bounded
        return time.perf_counter() - start


def scale(latency: float, kernel: float) -> float:
    """``latency`` at reference speed, given the kernel's time around it."""
    return latency * REFERENCE_S / kernel
