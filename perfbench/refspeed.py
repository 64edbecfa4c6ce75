"""Host speed reference for the in-process workloads.

The shared host this benchmark was tuned on runs the same Python code
up to 1.6x faster or slower in phases of 5-20 seconds (the speed of
the physical core behind the virtual CPU changes with its neighbours'
load).  A time measured in one run then says as much about the phase
as about the simulator.  To take the phase out, a reference process
pinned to the worker's CPU runs a fixed pure-Python loop right before
each timed operation; each operation's wall time is scaled by
``REF_MS`` over the local reference time (the median of the probes
around it).  The reference never imports the simulator, so a change
to the simulator cannot change the reference.

Run as a script, this file is the reference process: one line on
standard input asks for one timing, answered with one line holding the
loop's duration in milliseconds.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List

# Loop length: 0.6-1.0 ms on the tuning host, with its phases.
LOOP = 10_000
# The loop duration the scaled times refer to.
REF_MS = 1.0
# Probes on each side of an operation that set its local speed.
WINDOW = 2


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class Reference:
    """A reference process, timed on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: List[float] = []
        for _ in range(3):  # warm the loop's code and caches
            self.probe()
        self.samples.clear()

    def probe(self) -> int:
        """Time the loop once; returns the sample's index."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process exited")
        self.samples.append(float(line))
        return len(self.samples) - 1

    def median_ms(self, count: int) -> float:
        """Take ``count`` probes; the median of their times."""
        return statistics.median(
            self.samples[self.probe()] for _ in range(count))

    def local_ms(self, index: int) -> float:
        """The reference time around sample ``index``."""
        low = max(0, index - WINDOW)
        return statistics.median(self.samples[low:index + WINDOW + 1])

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=20)
        self.proc.stdout.close()


def main() -> None:
    # The CPU the benchmark's worker pins itself to.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for _ in sys.stdin:
        started = time.perf_counter()
        _loop(LOOP)
        sys.stdout.write(f"{(time.perf_counter() - started) * 1e3!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
