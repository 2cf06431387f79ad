"""Time `similarity.intertwiner_basis` at growing n, on the checkout a path names.

    python3 tools/intertwiner_scaling.py CHECKOUT

Imports `localaut` from CHECKOUT/src and times the exact intertwiner solve
on two-pair fits (A_i, T A_i T^-1), T = `random_gl(n, regime, rng)`:

* `dense`: A_1, A_2 products of 8 random shears (`random_sl(..., 8)`, as
  in the `localcheck_mix` benchmark), n = 3..8, over QR and QC;
* `sparse`: A_1, A_2 products of the package default of 3 shears, which
  are seldom cyclic, n = 3..8, over QR and QC;
* `generating`: the recovery generating pair D, C of SL_n
  (`recover.generating_pair`), n = 3..16, over QR and QC.

Every case draws from `random.Random(f"{case}-{regime}-{n}")`. Prints one
JSON object: per case the median raw milliseconds of REPEATS calls, the
dimension of the space, and the sample whose Krylov basis the solve takes
with its chain count m (the first sample with one chain, else the first
with the fewest), which the tool computes itself from one
`exactlinalg.rref` of [e_1, A e_1, ..., A^(n-1) e_1, e_2, ...] per sample,
so that the column reads the same on any checkout whose solve keeps that
rule; and the median time of the `perfbench/hostspeed.py`
reference kernel of this repository, taken before and after the cases, so
two checkouts timed on a shared host can be set side by side. Run each
checkout in its own process: a process imports one `localaut`.
"""
from __future__ import annotations

import random
import statistics
import sys
import time

from scaling import main

REPEATS = 5
SAMPLED = range(3, 9)
GENERATING = (3, 4, 5, 6, 8, 10, 12, 16)


def cases(la):
    from localaut.recover import generating_pair

    for case, ns in (("dense", SAMPLED), ("sparse", SAMPLED), ("generating", GENERATING)):
        for regime in ("QR", "QC"):
            for n in ns:
                rng = random.Random(f"{case}-{regime}-{n}")
                if case == "generating":
                    mats = generating_pair(la.GroupTag("SL", "R" if regime == "QR" else "C", n))
                else:
                    mats = [la.random_sl(n, regime, rng, 8 if case == "dense" else 3) for _ in range(2)]
                t = la.random_gl(n, regime, rng)
                t_inv = la.inv(t)
                yield case, regime, n, [(a, la.mul(la.mul(t, a), t_inv)) for a in mats]


def chain_count(a, grid, rref) -> int:
    """The number of chains of the greedy Krylov basis of a from e_1, e_2,
    ...: the starts among the pivot columns of [e_1, A e_1, ...,
    A^(n-1) e_1, e_2, ...] for the integer grid A of a."""
    n = a.n
    _, re, im = grid(a)
    im = im or [0] * (n * n)
    vecs = []
    for j in range(n):
        x, y = [int(i == j) for i in range(n)], [0] * n
        for _ in range(n):
            vecs.append((x, y))
            # (re + i im)(x + i y), row by row
            x, y = (
                [sum(re[p * n + q] * x[q] - im[p * n + q] * y[q] for q in range(n)) for p in range(n)],
                [sum(re[p * n + q] * y[q] + im[p * n + q] * x[q] for q in range(n)) for p in range(n)],
            )
    _, pivots = rref([[v[0][p] for v in vecs] for p in range(n)], im=[[v[1][p] for v in vecs] for p in range(n)])
    return len({c // n for c in pivots})


def chosen_sample(pairs, grid, rref) -> tuple[int, int]:
    """The index of the sample whose Krylov basis the solve takes, and its m:
    the first with the fewest chains, which is the first with one if any."""
    counts = [chain_count(a, grid, rref) for a, _ in pairs]
    return counts.index(min(counts)), min(counts)


def rows(la):
    from localaut.exactlinalg import rref
    from localaut.matrices import grid
    from localaut.similarity import intertwiner_basis

    for case, regime, n, pairs in cases(la):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            basis = intertwiner_basis(pairs)
            times.append(time.perf_counter() - t0)
        sample, m = chosen_sample(pairs, grid, rref)
        yield {
            "case": case,
            "regime": regime,
            "n": n,
            "ms": round(1000 * statistics.median(times), 3),
            "dim": len(basis),
            "sample": sample,
            "m": m,
        }


if __name__ == "__main__":
    sys.exit(main(__doc__, rows))
