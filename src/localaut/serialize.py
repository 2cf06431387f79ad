"""JSON wire formats for matrices, sampled maps, scalar maps, and reports.

Exact scalars travel as strings ("p/q" for rationals, {"re": .., "im": ..}
for Gaussian rationals); ApproxC entries as [re, im] float pairs. All
writers go through canonical_json so that byte-identical reports come out
of identical runs.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .errors import BadParameters, FileFormatError
from .matrices import C64, QC, QR, REGIMES, GroupTag, Mat, coerce_scalar, mat
from .scalarmaps import (
    CIRCLE,
    CSTAR,
    RSTAR,
    LatticeFunc,
    PowerConjFunc,
    PowerFunc,
    TableFunc,
)
from .scalars import MAX_LITERAL, GaussRational, format_rational, parse_rational

# finite scalar tables on the wire: type string and point regime by ambient;
# C* tables hold exact or numeric points, so each of their scalars is written
# as a QC dict or a C64 [re, im] pair by its type and read back by its shape
TABLE_WIRE = {RSTAR: ("table", QR), CSTAR: ("gausstable", None), CIRCLE: ("circletable", C64)}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def pretty_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# scalars


def scalar_to_json(x, regime: str):
    if regime == QR:
        return format_rational(Fraction(x))
    if regime == QC:
        g = coerce_scalar(QC, x)
        return {"re": format_rational(g.re), "im": format_rational(g.im)}
    z = complex(x)
    return [z.real, z.imag]


def scalar_from_json(obj, regime: str):
    try:
        if regime == QR:
            return parse_rational(obj)
        if regime == QC:
            return GaussRational(parse_rational(obj["re"]), parse_rational(obj["im"]))
        return complex(obj[0], obj[1])
    except (KeyError, ValueError, TypeError, IndexError, OverflowError, BadParameters) as exc:
        raise FileFormatError(f"bad scalar for regime {regime}: {obj!r}") from exc


# ---------------------------------------------------------------------------
# matrices and groups


def mat_to_json(a: Mat) -> dict:
    return {
        "regime": a.regime,
        "entries": [[scalar_to_json(a[i, j], a.regime) for j in range(a.n)] for i in range(a.n)],
    }


def mat_from_json(obj) -> Mat:
    try:
        regime = obj["regime"]
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"matrix object needs 'regime' and 'entries': {obj!r}") from exc
    if regime not in REGIMES:
        raise FileFormatError(f"unknown regime {regime!r}")
    rows = [[scalar_from_json(x, regime) for x in row] for row in entries]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise FileFormatError("entries must form a square matrix")
    return mat(rows, regime)


def group_to_json(g: GroupTag) -> dict:
    return {"family": g.family, "field": g.field, "n": g.n}


def group_from_json(obj) -> GroupTag:
    try:
        n = obj["n"]
        return GroupTag(obj["family"], obj["field"], int(_bounded_int(n) if isinstance(n, str) else n))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad group object: {obj!r}") from exc
    except Exception as exc:
        raise FileFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# scalar maps


def mulfunc_to_json(g) -> dict | None:
    if g is None:
        return None
    if isinstance(g, PowerFunc):
        return {
            "type": "power",
            "ambient": g.ambient,
            "c": format_rational(g.c),
            "neg": g.neg,
        }
    if isinstance(g, PowerConjFunc):
        return {
            "type": "powerconj",
            "k": format_rational(Fraction(g.k)),
            "m": format_rational(Fraction(g.m)),
        }
    if isinstance(g, TableFunc):
        wire, regime = TABLE_WIRE[g.ambient]
        out = lambda x: scalar_to_json(x, regime or (QC if isinstance(x, GaussRational) else C64))
        return {"type": wire, "points": [[out(a), out(v)] for a, v in g.points]}
    if isinstance(g, LatticeFunc):
        return {
            "type": "latticehom",
            "generators": [format_rational(s) for s in g.generators],
            "images": [format_rational(v) for v in g.images],
            "sign_image": g.sign_image,
        }
    raise FileFormatError(f"cannot serialize scalar map {type(g).__name__}")


def mulfunc_from_json(obj):
    if obj is None:
        return None
    try:
        t = obj["type"]
        if t == "power":
            return PowerFunc(parse_rational(obj["c"]), obj.get("neg", "same"), obj.get("ambient", "Rstar"))
        if t == "powerconj":
            return PowerConjFunc(parse_rational(obj["k"]), parse_rational(obj["m"]))
        for ambient, (wire, regime) in TABLE_WIRE.items():
            if t == wire:
                inp = lambda x: scalar_from_json(x, regime or (QC if isinstance(x, dict) else C64))
                return TableFunc(tuple((inp(a), inp(v)) for a, v in obj["points"]), ambient)
        if t == "latticehom":
            return LatticeFunc(
                tuple(parse_rational(s) for s in obj["generators"]),
                tuple(parse_rational(v) for v in obj["images"]),
                obj["sign_image"],
            )
    except FileFormatError:
        raise
    except Exception as exc:
        raise FileFormatError(f"bad scalar map object: {exc}") from exc
    raise FileFormatError(f"unknown scalar map type {obj.get('type')!r}")


# ---------------------------------------------------------------------------
# automorphisms and sample maps


def auto_to_json(auto) -> dict:
    return {
        "group": group_to_json(auto.group),
        "kind": auto.kind,
        "sigma": auto.sigma,
        "t": mat_to_json(auto.t),
        "g": mulfunc_to_json(auto.g),
    }


def auto_from_json(obj):
    from .autos import make_automorphism

    try:
        group = group_from_json(obj["group"])
        kind = obj["kind"]
        sigma = obj["sigma"]
        t = mat_from_json(obj["t"])
        g = mulfunc_from_json(obj.get("g"))
    except FileFormatError:
        raise
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"automorphism object missing field: {exc}") from exc
    return make_automorphism(group, kind, sigma, t, g)


def samples_to_json(sample_map) -> dict:
    return {
        "group": group_to_json(sample_map.group),
        "samples": [[mat_to_json(a), mat_to_json(b)] for a, b in sample_map.samples],
    }


def samples_from_json(obj):
    from .localcheck import SampleMap

    try:
        group = group_from_json(obj["group"])
        pairs = tuple((mat_from_json(a), mat_from_json(b)) for a, b in obj["samples"])
    except FileFormatError:
        raise
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"sample map object missing field: {exc}") from exc
    except ValueError as exc:
        raise FileFormatError(f"each sample must be an [input, output] pair: {exc}") from exc
    return SampleMap(group, pairs)


def _bounded_int(literal: str) -> int:
    if len(literal) > MAX_LITERAL:
        raise ValueError(f"integer literal of {len(literal)} digits, above the ceiling {MAX_LITERAL}")
    return int(literal)


def load_json(path: str):
    """The JSON in path, with number literals bounded like parse_rational's."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_bounded_int)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def dump_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(pretty_json(obj))
        fh.write("\n")
