"""Host-speed reference that the runner scales its timings by.

The machine the benchmark was written on is shared with other tenants. Its
speed changes by up to a factor of two, in spells from under a second to
minutes, and a whole run can fall into a slow spell, so raw times of one
seed's run and the next differ more than any bound worth gating on. The
runner therefore times a fixed reference kernel every SPACING_S of job time,
and scales each job and set-up time by NOMINAL_S over the reference times
around it. A scaled time reads as seconds on a host where the kernel takes
NOMINAL_S.

The kernel is exact rational 4x4 matrix products and a dict-and-int loop:
the same kind of interpreter work as the package's exact kernel and its
bookkeeping, but only standard-library code. A change to `localaut` moves
the job times and not the kernel's, so it shows in full; a slow spell moves
both, and cancels. README.md gives how closely the two tracked each other.
"""
from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# the kernel's median time on the machine the baseline was measured on
NOMINAL_S = 0.006
# job time between two reference samples; a sample takes about NOMINAL_S
SPACING_S = 0.06
# a timing is scaled by the median of the WINDOW samples before it and the
# WINDOW after it, so one disturbed sample does not skew it
WINDOW = 2

_rng = random.Random(20240424)
_A = [[Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(4)] for _ in range(4)]
_B = [[Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(4)] for _ in range(4)]


def kernel() -> None:
    for _ in range(10):
        [[sum(_A[i][k] * _B[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    d: dict[int, int] = {}
    for i in range(12000):
        d[i % 97] = d.get(i % 97, 0) + i * 3


class HostSpeed:
    """Reference samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._since = 0.0
        kernel()  # the first call of a process runs cold; it is not a sample

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)
        self._since = 0.0

    def tick(self, seconds: float) -> None:
        """Account for `seconds` of timed work; sample when SPACING_S is due."""
        self._since += seconds
        if self._since >= SPACING_S:
            self.sample()

    def finish(self) -> None:
        """Take the samples that follow the last timing."""
        for _ in range(WINDOW):
            self.sample()

    def mark(self) -> int:
        """The position of a timing about to be taken, for `scale`."""
        return len(self.samples)

    def scale(self, seconds: float, mark: int) -> float:
        """`seconds`, taken at `mark`, as seconds at the nominal host speed."""
        ref = statistics.median(self.samples[max(0, mark - WINDOW) : mark + WINDOW])
        return seconds * NOMINAL_S / ref
