"""Machine-speed calibration for the benchmark.

The development box (2 vCPUs of a shared host) switches between a fast
and a slow state, about 1.8x apart, that last 10 to 30 seconds.  Wall
times of whole runs then spread by 20 to 50% between seeds.  The
harness therefore times a fixed pure-Python loop between jobs and
reports every time rescaled to a reference machine on which that loop
takes CAL_REF_S.  The loop is harness code and does not depend on
`modp`, so a change to `modp` moves reference seconds as it would move
wall seconds on a steady machine.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

CAL_REF_S = 0.01        # the reference machine runs calibration_kernel() in 10 ms
CAL_EVERY_S = 0.2       # sample the calibration loop about this often
CAL_WINDOW_S = 1.0      # and rescale a job by the samples this close to it

_CAL_A = [tuple((i * k) % 9 for k in (1, 2, 3, 5, 7, 11)) for i in range(40)]
_CAL_B = [tuple((i * k) % 8 for k in (1, 3, 5, 7, 11, 13)) for i in range(40)]
_CAL_RNG = random.Random(0)
_CAL_ROWS = [_CAL_RNG.getrandbits(250) for _ in range(250)]


def calibration_kernel() -> int:
    """Fixed pure-Python work with the instruction mix of the library: a
    sparse product with tuple exponents and dict accumulation, a
    recursive enumeration of exponent tuples, and an F_2 elimination on
    int bitmasks."""
    out: dict = {}
    for a in _CAL_A:
        for b in _CAL_B:
            m = tuple(x + y for x, y in zip(a, b))
            if (out.get(m, 0) + 1) % 2:
                out[m] = 1
            else:
                del out[m]
    monos = []
    e = [0] * 6

    def rec(i: int, rem: int) -> None:
        if i == len(e):
            if rem == 0:
                monos.append(tuple(e))
            return
        for k in range(rem, -1, -1):
            e[i] = k
            rec(i + 1, rem - k)
        e[i] = 0

    rec(0, 10)
    pivots: dict = {}
    for row in _CAL_ROWS:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                break
    return len(out) + len(monos) + len(pivots)


class Speed:
    """Samples the calibration loop between jobs, about every CAL_EVERY_S.

    A job's reference time is its wall time times CAL_REF_S over the mean
    calibration time within CAL_WINDOW_S of the job."""

    def __init__(self):
        self.stamps: list[float] = []    # midpoint of each sample
        self.samples: list[float] = []   # its duration

    def sample(self, force: bool = False) -> float:
        """Take a sample if one is due; return the time it took."""
        clock = time.perf_counter
        t0 = clock()
        if not force and self.stamps and t0 - self.stamps[-1] < CAL_EVERY_S:
            return 0.0
        calibration_kernel()
        t1 = clock()
        self.stamps.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        return t1 - t0

    def factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean sample within CAL_WINDOW_S of
        [start, end], or over the nearest sample on each side."""
        lo = bisect.bisect_left(self.stamps, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + CAL_WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.stamps, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.stamps, end) + 1, len(self.stamps)))
        return CAL_REF_S / statistics.fmean(self.samples[lo:hi])
