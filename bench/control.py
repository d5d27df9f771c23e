"""A fixed control computation, timed between invocations, that rescales
every invocation time to a nominal machine speed.

On a shared machine the same invocation runs up to 50% slower or faster
from one minute to the next.  The cause is outside the process: CPU time
tracks wall time, and the counts of work stay the same.  A control that does
the same kind of work, timed right before and right after an invocation,
slows down with it.  Scaling the invocation time by ``NOMINAL / control``
removes most of that drift.

The control is the benchmark's own frozen code, or numpy.  A change to
``src/`` does not change it, so the scaled times still move with the
program.  Three kinds exist: ``python`` (dict polynomials with tuple
monomials, reduced in DRL order, like the Buchberger and normal-form loops),
``numpy`` (int64 Gaussian elimination mod p, like the Macaulay RREF) and
``import`` (a fresh interpreter importing numpy, the bulk of importing sgb).
"""

from __future__ import annotations

import bisect
import random
import subprocess
import sys
import time

import numpy as np

from workloads import monomials

P = 31
# median control time between invocations on the 2-core Xeon where the
# benchmark was written; scaled times are seconds at that speed
NOMINAL = {"python": 0.039, "numpy": 0.027, "import": 0.21}


def _drl(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _polys(rng, n, count):
    out = []
    for _ in range(count):
        f = {m: rng.randrange(1, P) for m in monomials(n, 2)}
        lm = max(f, key=_drl)
        inv = pow(f[lm], -1, P)
        out.append((lm, {m: c * inv % P for m, c in f.items()}))
    return out


def _product(f, g):
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            m = tuple(i + j for i, j in zip(a, b))
            out[m] = (out.get(m, 0) + x * y) % P
    return {m: c for m, c in out.items() if c}


def _remainder(f, reducers):
    work = dict(f)
    rem = {}
    while work:
        m = max(work, key=_drl)
        c = work.pop(m)
        for lm, g in reducers:
            if all(x <= y for x, y in zip(lm, m)):
                shift = tuple(y - x for x, y in zip(lm, m))
                for gm, gc in g.items():
                    key = tuple(a + b for a, b in zip(gm, shift))
                    if key != m:
                        v = (work.get(key, 0) - c * gc) % P
                        if v:
                            work[key] = v
                        else:
                            work.pop(key, None)
                break
        else:
            rem[m] = c
    return rem


_REDUCERS = _polys(random.Random(0), 6, 6)
_DIVIDENDS = [_product(f, g) for (_, f), (_, g) in zip(_REDUCERS, _REDUCERS[1:])]
_MATRIX = np.random.default_rng(0).integers(0, P, size=(180, 130))


def python_work():
    for f in _DIVIDENDS:
        _remainder(f, _REDUCERS)


def numpy_work():
    a = _MATRIX.copy()
    r = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, P) % P
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        a[hit] = (a[hit] - np.outer(col[hit], a[r])) % P
        r += 1


def import_work():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)


WORK = {"python": python_work, "numpy": numpy_work, "import": import_work}


class Control:
    """Control samples of one run; ``scale`` maps a raw duration that
    started at ``t`` to seconds at nominal speed."""

    def __init__(self, kind: str, every_s: float = 0.5):
        self.kind = kind
        self.work = WORK[kind]
        self.every_s = every_s
        self.starts = []
        self.seconds = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.work()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def due(self) -> bool:
        return not self.starts or time.perf_counter() - self.starts[-1] >= self.every_s

    def scale(self, t: float, seconds: float) -> float:
        """Scale by the mean of the last sample before ``t`` and the first
        after it."""
        j = bisect.bisect_right(self.starts, t)
        around = self.seconds[max(j - 1, 0)] + self.seconds[min(j, len(self.seconds) - 1)]
        return seconds * NOMINAL[self.kind] / (around / 2)

    def median_s(self) -> float:
        return float(np.median(self.seconds))
