"""Time `recover` in process at growing n, on the checkout a path names.

    python3 tools/recover_scaling.py CHECKOUT

Imports `localaut` from CHECKOUT/src and recovers, for each n, a standard
and a contragredient automorphism of SL_n(R), GL_n(R) (with g the power 2)
and SL_n(C), each with T = `random_gl(n, regime, random.Random(1))`, and a
sigma = id and a sigma = conj automorphism of SU_n and U_n, each with
T = `random_unitary(n, seed=1)`, through `AutomorphismOracle` at seed 1
with the default dets and verification probes. Prints one JSON object: per
case the raw seconds of the `recover` call, `probes_used`, and whether the
kind, sigma and T (up to a scalar) came back; and the median time of the `perfbench/hostspeed.py` reference
kernel of this repository, taken before and after the cases, so two
checkouts timed on a shared host can be set side by side. Run each
checkout in its own process: a process imports one `localaut`.
"""
from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from scaling import main

NS = (3, 4, 7, 12, 16)
# (label, family, field, g power or None)
GROUPS = (
    ("sl-r", "SL", "R", None),
    ("gl-r", "GL", "R", 2),
    ("sl-c", "SL", "C", None),
    ("sun", "SUn", "C", None),
    ("un", "Un", "C", None),
)
EXACT_BRANCHES = (("standard", "id"), ("contragredient", "id"))
UNITARY_BRANCHES = (("standard", "id"), ("standard", "conj"))


def cases(la):
    for n in NS:
        for label, family, field, power in GROUPS:
            group = la.GroupTag(family, field, n)
            g = la.PowerFunc(Fraction(power)) if power is not None else None
            for kind, sigma in UNITARY_BRANCHES if group.unitary else EXACT_BRANCHES:
                if group.unitary:
                    t = la.random_unitary(n, seed=1)
                else:
                    t = la.random_gl(n, group.regimes()[0], random.Random(1))
                yield f"{label}-{n}", la.make_automorphism(group, kind, sigma, t, g)


def rows(la):
    from localaut.matrices import flat, ratio
    from localaut.recover import recover

    for label, auto in cases(la):
        t0 = time.perf_counter()
        rep = recover(la.AutomorphismOracle(auto), seed=1)
        seconds = time.perf_counter() - t0
        found = rep.auto
        truth = found is not None and (found.kind, found.sigma) == (auto.kind, auto.sigma)
        if truth:
            # T is fixed up to a scalar: T_found T^-1 is a multiple of I
            quotient = la.mul(found.t, la.inv(auto.t))
            truth = ratio(flat(quotient), flat(la.identity(quotient.n, quotient.regime))) is not None
        yield {
            "group": label,
            "kind": auto.kind,
            "sigma": auto.sigma,
            "seconds": round(seconds, 4),
            "probes_used": rep.probes_used,
            "status": rep.status,
            "recovered_truth": truth,
        }


if __name__ == "__main__":
    sys.exit(main(__doc__, rows))
