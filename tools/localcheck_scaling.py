"""Time `check_map` in process at growing n, on the checkout a path names.

    python3 tools/localcheck_scaling.py CHECKOUT

Imports `localaut` from CHECKOUT/src and, for each n, checks one sampled
map of 12 samples (66 pairs) per form: a standard and a contragredient
automorphism of SL_n(R), a sigma = id and a sigma = conj automorphism of
GL_n(C) with g(z) = z conj(z), and a standard automorphism of GL_n(R) with
g the first power. Each form's T is `random_gl(n, regime,
random.Random(1))` and its samples, drawn from the same generator, are
products of eight shears (GL samples: a `random_gl` draw times five more
shears), as in the benchmark's `localcheck_mix`. The samples are copied
before the check, so it starts cold, as on maps read from a file: no
kernel value computed while the outputs were made is reused. Prints one
JSON object: per form the raw seconds of the one `check_map` call, the map
status and the pair count of each verdict; and the median time of the
`perfbench/hostspeed.py` reference kernel of this repository, taken before
and after the forms, so two checkouts timed on a shared host can be set
side by side. Run each checkout in its own process: a process imports one
`localaut`.
"""
from __future__ import annotations

import copy
import random
import sys
import time
from fractions import Fraction

from scaling import main

NS = (3, 4, 5, 6)
SAMPLES = 12
SHEARS = 8
# (label, family, field, kind, sigma)
FORMS = (
    ("sl-r", "SL", "R", "standard", "id"),
    ("sl-r", "SL", "R", "contragredient", "id"),
    ("gl-c", "GL", "C", "standard", "id"),
    ("gl-c", "GL", "C", "standard", "conj"),
    ("gl-r", "GL", "R", "standard", "id"),
)


def sample(la, group, rng: random.Random):
    regime = group.regimes()[0]
    if group.family == "SL":
        return la.random_sl(group.n, regime, rng, SHEARS)
    return la.mul(la.random_gl(group.n, regime, rng), la.random_sl(group.n, regime, rng, SHEARS - 3))


def cases(la):
    for n in NS:
        for label, family, field, kind, sigma in FORMS:
            group = la.GroupTag(family, field, n)
            g = None
            if family == "GL":
                g = la.PowerFunc(Fraction(1)) if field == "R" else la.PowerConjFunc(Fraction(1), Fraction(1))
            rng = random.Random(1)
            auto = la.make_automorphism(group, kind, sigma, la.random_gl(n, group.regimes()[0], rng), g)
            sm = la.samples_from_automorphism(auto, [sample(la, group, rng) for _ in range(SAMPLES)])
            cold = tuple((copy.copy(a), copy.copy(out)) for a, out in sm.samples)
            yield f"{label}-{n}", auto, la.SampleMap(group, cold)


def rows(la):
    for label, auto, sample_map in cases(la):
        t0 = time.perf_counter()
        rep = la.check_map(sample_map, seed=1)
        seconds = time.perf_counter() - t0
        yield {
            "group": label,
            "kind": auto.kind,
            "sigma": auto.sigma,
            "seconds": round(seconds, 4),
            "status": rep.status,
            "pairs": rep.counts(),
        }


if __name__ == "__main__":
    sys.exit(main(__doc__, rows))
