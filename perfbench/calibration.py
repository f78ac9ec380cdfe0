"""Fixed probes that measure how fast this machine is running right now.

The host's speed drifts by up to 1.7x over tens of seconds, because other
guests share its cores; process CPU time drifts with wall time, so it is
not steal.  The benchmark runs a probe next to every operation and divides
the operation's wall time by the probe's, scaled by the probe's reference
time.  The result is the operation's time on this VM running at that
reference speed.  Interpreter-bound and array-bound code slow down by
different factors, so each workload uses the probe whose work resembles
its own:

* ``interpreter``: a pure-Python scan of a numpy bool grid with scalar
  indexing and a list stack, like ``postproc.connected_components``;
* ``array``: an im2col-style gather and a GEMM that stay in cache, like
  ``tensor.conv2d`` at desk scale;
* ``memory``: the same into 19 MB of fresh pages, like ``tensor.conv2d``
  at full scale, whose speed also follows the host's memory traffic and
  the cost of faulting in new pages.

The probes are the benchmark's own code, and nothing they do depends on
chestkit's heap.  Each is built once, with its gather indices and its
output buffers allocated; it then gathers with ``np.take(..., out=)`` and
multiplies with ``np.matmul(..., out=)``.  The interpreter probe keeps
plain ints, which the cyclic collector does not track.  The memory probe's
19 MB come from an anonymous ``mmap`` of its own, unmapped after each
probe, so its pages are fresh every time, whatever chestkit has allocated
or freed through ``malloc``.  So a change to chestkit moves the ratio only
through the operation's time.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

_SEED = 20040374


class _Gather:
    """An im2col-style gather, ``source[:, rows, cols]`` into a [C, 9 * N]
    buffer by one ``np.take`` per channel, then a GEMM over the first
    ``kernel_shape[1]`` of its C * 9 rows."""

    def __init__(self, shape: tuple[int, int, int], columns: int,
                 kernel_shape: tuple[int, int], shift: int):
        rng = np.random.default_rng(_SEED)
        channels, height, width = shape
        rows = rng.integers(0, height - 2, (9, columns))
        self.flat = (rows * width + rows[::-1] + shift).ravel()
        self.sources = list(rng.random(shape).reshape(channels, -1))
        self.kernel = rng.random(kernel_shape)
        self.out = np.empty((kernel_shape[0], columns))

    def run(self, cols: np.ndarray) -> None:
        for source, dest in zip(self.sources, cols):
            np.take(source, self.flat, out=dest, mode="clip")
        matrix = cols.reshape(9 * len(self.sources), -1)[:self.kernel.shape[1]]
        np.matmul(self.kernel, matrix, out=self.out)


def _interpreter():
    grid = np.random.default_rng(_SEED).random((96, 96)) > 0.45

    def probe() -> float:
        """Wall seconds of a fixed interpreter-bound scan of a bool grid."""
        start = time.perf_counter()
        h, w = grid.shape
        stack = []
        for r in range(1, h):
            for c in range(1, w):
                if grid[r, c] and not grid[r - 1, c]:
                    stack.append(r * w + c)
        while stack:
            stack.pop()
        return time.perf_counter() - start

    return probe


def _array():
    gather = _Gather((16, 42, 42), 1444, (128, 72), 0)
    cols = np.empty((16, gather.flat.size))

    def probe() -> float:
        """Wall seconds of 4 x (gather into 1.7 MB, 128x72 GEMM), in cache."""
        start = time.perf_counter()
        for _ in range(4):
            gather.run(cols)
        return time.perf_counter() - start

    return probe


def _memory():
    gather = _Gather((16, 130, 130), 128 * 128, (32, 144), 1)
    nbytes = 16 * gather.flat.size * 8

    def probe() -> float:
        """Wall seconds of a gather into 19 MB of fresh pages and a GEMM over it."""
        start = time.perf_counter()
        with mmap.mmap(-1, nbytes) as pages:
            cols = np.frombuffer(pages, dtype=np.float64).reshape(16, -1)
            gather.run(cols)
            del cols  # the mapping closes only once no array uses it
        return time.perf_counter() - start

    return probe


# kind -> (probe factory, reference seconds: the probe's least time on a
# 2-vCPU VM at its fast speed)
PROBES = {
    "interpreter": (_interpreter, 2.1e-3),
    "array": (_array, 2.9e-3),
    "memory": (_memory, 20.0e-3),
}


class Calibrator:
    """Runs one probe ``repeats`` times on demand and scales times by it."""

    def __init__(self, kind: str, repeats: int = 1):
        factory, self.reference = PROBES[kind]
        self.probe = factory()
        self.repeats = repeats
        self.readings: list[float] = []

    def measure(self) -> float:
        """Seconds per probe, averaged over the repeats."""
        reading = sum(self.probe() for _ in range(self.repeats)) / self.repeats
        self.readings.append(reading)
        return reading

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between two probe readings, in reference seconds."""
        return seconds * self.reference / (0.5 * (before + after))
