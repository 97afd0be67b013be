"""Machine-speed calibration, independent of frobgrow.

The 2-vCPU virtual machines this benchmark was tuned on change speed by
up to 2x, in stretches of a few seconds to tens of seconds (other
tenants share their cores and caches), and process CPU time slows down
with wall time, so neither can be compared between runs as it stands.
The benchmark measures process CPU time, which leaves out the time the
host takes the vCPU away (steal).  It runs `loop` a few times (PASSES)
before the first job and after every job, and scales each measured time
by

    REFERENCE_S / median(loop times within WINDOW_S seconds of it)

so that times read in reference seconds: the time the job would have
taken on that machine when the loop takes REFERENCE_S.  The window
follows the machine's speed through the run: one median over the whole
run mixes fast and slow stretches in a proportion that changes from run
to run, and the passes next to a job sample a few instants only.  The
loop does the three kinds of work the program does, because the
machine's slow stretches slow them by different amounts.  A change to
frobgrow cannot move the loop, so it moves the scaled times exactly as
it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.010  # the loop's time on that machine when quiet (Python 3.11)
PASSES = 3  # loop passes after each job
WINDOW_S = 4.0  # half-width of the window of passes that scales a time


class _Poly:
    """A dense polynomial over F_7, as small objects with arithmetic."""

    __slots__ = ("c",)

    def __init__(self, c):
        while c and not c[-1]:
            c = c[:-1]
        self.c = c

    def __mul__(self, other):
        a, b = self.c, other.c
        if not a or not b:
            return _Poly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % 7
        return _Poly(out)

    def __sub__(self, other):
        a, b = self.c, other.c
        a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
        return _Poly([(x - y) % 7 for x, y in zip(a, b)])


def loop() -> float:
    """CPU seconds taken by one fixed pass of the three kinds of work the
    program does: list arithmetic mod 7 (the univariate kernels), 2x2
    determinants of small polynomial objects (the minors), and
    subtracting dict polynomials keyed by packed-int monomials (the
    Buchberger reductions)."""
    t0 = time.process_time()
    p = 7
    counts = {}
    polys = [[(i * 7 + j) % p for j in range(24)] for i in range(650)]
    for k in range(1, len(polys)):
        a, b = polys[k - 1], polys[k]
        out = [0] * 47
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % p
        for i in range(0, 47, 3):
            key = (k % 97, i, out[i])
            counts[key] = counts.get(key, 0) + 1
        polys[k] = out[:24]

    objs = [_Poly([(i * j + 1) % p for j in range(1 + i % 5)]) for i in range(60)]
    for k in range(400):
        a, b, c, d = objs[k % 60], objs[k * 7 % 60], objs[k * 13 % 60], objs[k * 29 % 60]
        r = a * d - b * c
        counts[tuple(r.c)] = counts.get(tuple(r.c), 0) + 1
        objs[k % 60] = r if len(r.c) < 6 else _Poly(r.c[:5])

    dicts = [{(i * 37 + j * 11) % 4096 << 8 | (i + j) % 256: 1 + (i + j) % 6 for j in range(12)}
             for i in range(40)]
    for k in range(240):
        f, g = dicts[k % 40], dicts[k * 11 % 40]
        shift = k % 5 << 8
        h = dict(f)
        for m, c in g.items():
            m += shift
            v = (h.get(m, 0) - 3 * c) % p
            if v:
                h[m] = v
            else:
                h.pop(m, None)
        dicts[k % 40] = dict(sorted(h.items())[:16]) if len(h) > 16 else h
    return time.process_time() - t0


class Calibration:
    """Loop passes timed along one run, each kept with its midpoint."""

    def __init__(self):
        self.passes = []  # (perf_counter at the pass's midpoint, CPU seconds)

    def sample(self, n: int = PASSES):
        for _ in range(n):
            t0 = time.perf_counter()
            s = loop()
            self.passes.append(((t0 + time.perf_counter()) / 2, s))

    def scale(self, start: float, seconds: float) -> float:
        """Factor to reference seconds for a time measured from `start`
        over `seconds` (perf_counter readings): REFERENCE_S over the median
        of the passes within WINDOW_S of its midpoint, or within the
        interval and just after it when that is longer."""
        mid = start + seconds / 2
        half = max(WINDOW_S, seconds / 2 + 0.2)
        near = [s for t, s in self.passes if abs(t - mid) <= half]
        return REFERENCE_S / statistics.median(near or [s for _, s in self.passes])

    def median(self) -> float:
        return statistics.median(s for _, s in self.passes)
