"""The host's speed, measured on fixed reference work, and times scaled by it.

The benchmark runs on shared hosts whose CPU speed swings by nearly a
factor of two over stretches of a second to minutes as other tenants load
the machine, so two runs of the same code minutes apart differ by that much.
Each timing is therefore paired with the times of a reference that does not
call mcmkit, taken just before and just after it, and reported as the time
it would have taken at the reference speed: ``seconds * nominal / reference
time``.  A change to mcmkit moves the scaled time as much as the raw one; a
change in the host's speed moves both the timing and its reference, and
cancels.

Work in one interpreter is scaled by ``loop()``, interpreter work and small
numpy calls.  A new process spends much of its time in the kernel, starting
up and importing, which the host's slow stretches slow less: children and
set-ups are scaled by ``child()``, a fresh interpreter that imports numpy.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# What each reference took on the host this benchmark was written on, in
# its fast stretches: scaled figures are seconds at that speed.
LOOP_S = 0.0045
CHILD_S = 0.15


def _loop():
    acc = 0
    table = {}
    for i in range(12000):
        acc = (acc * 31 + i) % 1000003
        table[i % 97] = table.get(i % 97, 0) + acc
    a = np.arange(64, dtype=np.int64).reshape(8, 8)
    for _ in range(450):
        a = (a @ a + 1) % 7
        np.nonzero(a[:, 0])
    return acc + int(a.sum())


def loop() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls,
    the kind of work mcmkit does, but none of mcmkit's code."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def child() -> float:
    """Seconds for a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def bracketing(refs):
    """For each of ``len(refs) - 1`` timings, the mean of the reference taken
    just before it and the one taken just after it: the host can change
    speed while a job runs."""
    return [(refs[i] + refs[i + 1]) / 2 for i in range(len(refs) - 1)]


def scaled(seconds: float, ref_s: float, nominal_s: float) -> float:
    """``seconds`` measured while the reference took ``ref_s``, at the speed
    where it takes ``nominal_s``."""
    return seconds * nominal_s / ref_s
