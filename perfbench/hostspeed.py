"""Correction of wall times for the drifting speed of a shared host.

On a small shared machine the same command can take 50 % longer for
tens of seconds at a time, whatever the program does.  The loop
therefore times a fixed reference kernel before each command and once
after the last.  Each command's *corrected* time is its wall time scaled
by ``REF_S / k``.  Here ``k`` is the median kernel time in a window of
samples around the command, and ``REF_S`` is the kernel's time at the
reference speed, so corrected times stay in seconds.

The kernel mixes what the commands spend their time on: per-cell
interpreter work over a numpy array, an elementwise pass, a small
complex matrix product and a pass over 8 MB, beyond the per-core cache.
The commands' large arrays make them sensitive to the shared cache and
memory, and a kernel without that last pass missed drifts of 25 %.  The
kernel does not call the program and allocates nothing.  Only its
second and third passes are timed, after a first pass has brought its
arrays back in, so the state the program leaves behind (heap, caches)
does not move it; only the speed of the host does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.0008
WINDOW = 4  # samples on either side of a command

_ROW = np.array([1, 1j, -1, -1j] * 32)
_CHAR = {1 + 0j: "1", 1j: "i", -1 + 0j: "-", -1j: "j"}
_A = np.ones((64, 64), dtype=np.complex128)
_B = np.empty_like(_A)
_C = np.empty_like(_A)
_STREAM = np.zeros(1 << 20)  # 8 MB: beyond the per-core cache


def _kernel() -> None:
    "".join(_CHAR[complex(x)] for x in _ROW)
    np.multiply(_A, 1j, out=_B)
    np.matmul(_A, _B, out=_C)
    np.add(_STREAM, 1.0, out=_STREAM)


def kernel_s() -> float:
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    _kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples taken between commands, in order."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(kernel_s())

    def correct(self, times: list[float]) -> list[float]:
        """Times of commands that each followed one sample (with one more
        sample after the last), corrected to the reference speed."""
        s = self.samples
        return [t * REF_S / statistics.median(s[max(0, i - WINDOW):i + WINDOW + 2])
                for i, t in enumerate(times)]

    def factor(self) -> float:
        """Reference over measured speed, over all samples."""
        return REF_S / statistics.median(self.samples)
