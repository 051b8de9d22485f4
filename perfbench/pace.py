"""The machine's pace, measured while the benchmark runs, so that times can
be reported at a fixed reference pace.

On a shared host the same code can run up to twice as long for minutes at
a time, and CPU time slows as much as wall time.  Raw times then follow the
host rather than the program.  So a fixed calibration kernel runs while
the timed code runs: a timer signal interrupts it every SAMPLE_EVERY_S
seconds of wall time and runs the kernel once.

The kernel is made of parts that each mirror one kind of work conjgf does:
`python`, a pure-Python union-find driven by numpy scalar reads (like the
oracles, the collector and the isomorphism search), and `numpy`, gathers
over a 256 KiB array (like the table checks).  The host's slow phases slow
the two kinds by different amounts, so each workload names the parts that
match its own work in MIX.

A time t measured while one kernel run took k seconds on average is
reported as t * ref / k, the time at reference pace, after the kernel's own
runs are taken out of t; ref is REF_PART_S per part.  ref is a fixed
constant, so at a steady pace the ratio of two reported times is the
ratio of the raw times.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_PART_S = 0.0005     # one kernel part's time at reference pace
SAMPLE_EVERY_S = 0.1    # wall time between two kernel runs inside a timed part
MIN_SAMPLES = 8         # a timed part with fewer samples is topped up after it

# The kernel parts per workload.  crosscheck spends nearly all its time in
# pure-Python loops (brute-force oracles, isoclinism search); table splits
# its time between the collector and numpy-bound table checks.
MIX = {
    "table": ("python", "numpy"),
    "b_recursion": ("python", "numpy"),
    "crosscheck": ("python",),
}

_rng = np.random.default_rng(20210309)
_MOVES = _rng.permutation(512).astype(np.int16)
_GATHER = _rng.permutation(1 << 16).astype(np.int32)


def _python_part() -> int:
    parent = list(range(512))
    moves = _MOVES
    for i in range(512):
        x = int(moves[i])
        while parent[x] != x:
            x = parent[x]
        y = i
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[max(x, y)] = min(x, y)
    return parent[-1]


def _numpy_part() -> int:
    g = _GATHER[_GATHER]
    g = _GATHER[g]
    return int(g[0])


PARTS = {"python": _python_part, "numpy": _numpy_part}


def kernel_s(mix: tuple[str, ...]) -> float:
    """Time of one kernel run made of the parts in `mix`."""
    t0 = time.perf_counter()
    for part in mix:
        PARTS[part]()
    return time.perf_counter() - t0


def reference_s(mix: tuple[str, ...]) -> float:
    return REF_PART_S * len(mix)


def measure(seconds: float, mix: tuple[str, ...]) -> float:
    """Mean kernel time over back-to-back runs for `seconds`."""
    samples = []
    end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < end:
        samples.append(kernel_s(mix))
    return statistics.fmean(samples)


class Sampler:
    """Runs the kernel on SIGALRM every SAMPLE_EVERY_S seconds while the
    `with` block runs (main thread only).  After the block, `elapsed_s` is
    its wall time without the kernel's runs."""

    def __init__(self, mix: tuple[str, ...]) -> None:
        self.mix = mix
        self.samples: list[float] = []
        self.elapsed_s = 0.0
        self._old = None
        self._t0 = 0.0

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(kernel_s(self.mix))

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed_s = time.perf_counter() - self._t0 - sum(self.samples)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(kernel_s(self.mix))

    def at_reference_pace(self) -> float:
        return self.elapsed_s * reference_s(self.mix) / statistics.fmean(self.samples)
