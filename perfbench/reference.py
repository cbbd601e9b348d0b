"""Reference kernel: a fixed mix of the kinds of work cusplab does, written
without cusplab, so that its time measures the speed of the machine at the
moment and nothing about the program under test.

The worker times the kernel right before every pass, and the benchmark
reports pass times in seconds at the reference speed: measured seconds x
NOMINAL_S / kernel seconds.  On a shared machine the speed of a core drifts
by 20-50 % over minutes while other tenants contend for it (no steal time
shows, so the slowdown is in the hardware).  The ratio removes much of that
drift: over ten seeds it cut the spread of the median pass time from 25 % to
4 % on `classical` and from 22 % to 14 % on `strang2d`, and left `cn1d` at
5 %.  A change to cusplab leaves the kernel untouched, so it moves the
reported times by its own factor.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

# Median kernel time over the runs that set the benchmark's bounds (shared
# 2-vCPU Intel Xeon virtual machine, Python 3.11.7, numpy 2.4.6, scipy
# 1.17.1), so that reported times read as typical seconds on that machine.
NOMINAL_S = 0.26


def _interpreted():
    acc = 0.0
    for i in range(150_000):
        pair = (i * 0.5, i + 1.0)
        acc += pair[0] * pair[1] / (1.0 + i)
    return acc


def _small_arrays():
    g = np.eye(2)
    z = np.array([0.3, 0.4])
    for _ in range(8_000):
        g = g + 1e-9 * np.outer(z, z)
    return float(z @ g @ z)


def _fft():
    x = np.exp(1j * np.linspace(0.0, 50.0, 8192))
    for _ in range(150):
        x = np.fft.ifft(np.fft.fft(x))
    return x


def _banded():
    n = 8192
    ab = np.zeros((3, n), dtype=complex)
    ab[0], ab[1], ab[2] = -0.5, 2.0 + 1.0j, -0.5
    rhs = np.ones((n, 2), dtype=complex)
    for _ in range(40):
        out = solve_banded((1, 1), ab, rhs)
    return out


def _sparse_lu():
    n = 60
    size = n * n
    ones = np.ones(size - 1)
    far = np.ones(size - n)
    mat = sp.diags([np.full(size, 4.0), -ones, -ones, -far, -far],
                   [0, 1, -1, n, -n]).tocsc().astype(complex)
    rhs = np.ones(size, dtype=complex)
    for _ in range(6):
        out = spla.splu(mat).solve(rhs)
    return out


def run(clock=time.perf_counter):
    """Run the kernel once; returns its wall time in seconds."""
    start = clock()
    for part in (_interpreted, _small_arrays, _fft, _banded, _sparse_lu):
        part()
    return clock() - start
