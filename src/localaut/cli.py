"""Command line front end.

Every subcommand prints one JSON report to stdout. The report carries a
sha256 digest of its own content; the timing fields (elapsed_s, and the
seconds of each selftest criterion) are added after the digest is taken,
so two runs with the same inputs and seed are byte-identical except for
those fields. Exit code 0 means a verdict was computed, including
negative verdicts like Refuted or Obstructed; nonzero exit codes are
operational failures (bad arguments, unreadable files, exhausted or
misbehaving oracles) reported as machine-readable error JSON.
"""
from __future__ import annotations

import argparse
import random
import re
import shlex
import sys
import time
from dataclasses import replace
from fractions import Fraction

from .autos import Automorphism, apply, make_automorphism
from .errors import BadParameters, FileFormatError, LocalautError, NoEngine
from .matrices import (
    C64,
    GroupTag,
    Mat,
    close,
    mul,
    random_gl,
    random_pool,
    random_su,
    random_unitary,
    to_c64,
)
from .scalarmaps import CIRCLE, RSTAR, MulFunc, PowerConjFunc, PowerFunc, ambient
from .serialize import (
    auto_from_json,
    auto_to_json,
    dump_json,
    group_to_json,
    load_json,
    mat_from_json,
    mat_to_json,
    mulfunc_to_json,
    pretty_json,
    samples_from_json,
    sha256_digest,
)
from .scalars import FIT_TOL, parse_rational


class BadArgs(Exception):
    """Command line level validation failure (operational, exit 2)."""


# ---------------------------------------------------------------------------
# small converters


# the largest n a --group may name: on a 2-CPU Xeon, recover --auto took
# 10.2 s on sl-c-16 and 6.3 s on sl-r-16, and its time grows as about n^7
MAX_N = 16

GROUP_FORMS = "gl-r-N, gl-c-N, sl-r-N, sl-c-N, un-N (or u-N) and sun-N (or su-N)"
_GROUP = re.compile(r"(?:(gl|sl)-([rc])|(un|u|sun|su))-([0-9]+)")
_FAMILIES = {"gl": "GL", "sl": "SL", "un": "Un", "u": "Un", "sun": "SUn", "su": "SUn"}


def parse_group(text: str) -> GroupTag:
    """The group one of GROUP_FORMS names, in any case, with n at most
    MAX_N; any other text is BadArgs."""
    m = _GROUP.fullmatch(text.lower())
    if m is None:
        raise BadArgs(f"unknown group {text!r}; the forms are {GROUP_FORMS}")
    exact, field, unitary, digits = m.groups()
    try:
        n = int(digits)
        if n > MAX_N:
            raise BadArgs(f"group {text!r} has n = {n}, above the ceiling n <= {MAX_N}")
        return GroupTag(_FAMILIES[exact or unitary], (field or "c").upper(), n)
    except (ValueError, LocalautError) as exc:
        raise BadArgs(f"cannot parse group {text!r}: {exc}") from exc


def parse_gspec(text: str | None, group: GroupTag):
    """Scalar character mini-language for gen-auto.

    none | power:C | power:C:flip | powerconj:K:M | circle-power:K
    """
    if text is None or text == "none":
        return None
    parts = text.split(":")
    try:
        if parts[0] == "power":
            neg = parts[2] if len(parts) > 2 else "same"
            return PowerFunc(parse_rational(parts[1]), neg)
        if parts[0] == "powerconj":
            return PowerConjFunc(parse_rational(parts[1]), parse_rational(parts[2]))
        if parts[0] == "circle-power":
            return PowerFunc(parse_rational(parts[1]), "same", CIRCLE)
    except (ValueError, IndexError, ZeroDivisionError, BadParameters) as exc:
        raise BadArgs(f"cannot parse scalar spec {text!r}: {exc}") from exc
    raise BadArgs(f"unknown scalar spec {text!r}")


def _fraction_list(text: str) -> list[Fraction]:
    try:
        return [parse_rational(tok) for tok in text.split(",") if tok.strip()]
    except BadParameters as exc:
        raise BadArgs(f"cannot parse rational list {text!r}: {exc}") from exc


def _jsonable(x):
    """Recursive best-effort conversion of report payloads to JSON types."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        # a numeric circle point, in the [re, im] form of C64 entries
        return [x.real, x.imag]
    if isinstance(x, Automorphism):
        return auto_to_json(x)
    if isinstance(x, MulFunc):
        return mulfunc_to_json(x)
    if isinstance(x, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x)


def _check_numbers(args) -> None:
    """Refuse numeric options under which a verdict would check nothing, a
    probe could never be in the group, a seed could not seed every sampler
    or a gallery item would outgrow the size ceiling."""
    opts = vars(args)
    if opts.get("seed", 0) < 0:
        raise BadArgs(f"--seed must be at least 0, got {args.seed}")
    if opts.get("pairs", 1) < 1:
        raise BadArgs(f"--pairs must be at least 1, got {args.pairs}")
    if opts.get("verify_probes", 1) < 1:
        raise BadArgs(f"--verify-probes must be at least 1, got {args.verify_probes}")
    if opts.get("budget") is not None and args.budget < 1:
        raise BadArgs(f"--budget must be at least 1, got {args.budget}")
    if opts.get("n") is not None and args.n > MAX_N:
        raise BadArgs(f"--n is {args.n}, above the ceiling n <= {MAX_N}")


def _load_mats(path: str) -> tuple[list[Mat], bool]:
    """Matrix file: either a single matrix object or a list of them."""
    obj = load_json(path)
    if isinstance(obj, list):
        return [mat_from_json(m) for m in obj], True
    return [mat_from_json(obj)], False


# ---------------------------------------------------------------------------
# subcommand bodies; each returns the report dict


def _cmd_gen_auto(args) -> dict:
    group = parse_group(args.group)
    rng = random.Random(args.seed)
    if args.t is not None:
        t = mat_from_json(load_json(args.t))
    elif group.unitary:
        t = random_unitary(group.n, seed=args.seed) if group.family == "Un" else random_su(
            group.n, seed=args.seed
        )
    else:
        t = random_gl(group.n, group.regimes()[0], rng)
    g = parse_gspec(args.g, group)
    auto = make_automorphism(group, args.kind, args.sigma, t, g)
    payload = auto_to_json(auto)
    if args.out:
        dump_json(args.out, payload)
    return {
        "command": "gen-auto",
        "group": group_to_json(group),
        "seed": args.seed,
        "auto": payload,
        "written_to": args.out,
    }


def _cmd_apply(args) -> dict:
    auto = auto_from_json(load_json(args.auto))
    mats, was_list = _load_mats(args.inp)
    images = [apply(auto, m) for m in mats]
    payload = [mat_to_json(m) for m in images]
    if args.out:
        dump_json(args.out, payload if was_list else payload[0])
    return {
        "command": "apply",
        "count": len(images),
        "images": payload,
        "written_to": args.out,
    }


def _cmd_verify_auto(args) -> dict:
    auto = auto_from_json(load_json(args.auto))
    group = auto.group
    rng = random.Random(args.seed)
    pool = random_pool(group, rng, min(24, max(4, args.pairs // 8)))
    if pool[0].regime != auto.t.regime:
        # T and the samples sit in the two regimes of C: lift the exact side
        # and check in C64
        if auto.t.regime == C64:
            pool = [to_c64(a) for a in pool]
        else:
            auto = replace(auto, t=to_c64(auto.t), tinv=to_c64(auto.tinv))
    failures = []
    for k in range(args.pairs):
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        lhs = apply(auto, mul(a, b))
        rhs = mul(apply(auto, a), apply(auto, b))
        if not close(lhs, rhs, FIT_TOL):
            failures.append(k)
            if len(failures) >= 3:
                break
    verdict = "Verified" if not failures else "Refuted"
    return {
        "command": "verify-auto",
        "group": group_to_json(group),
        "pairs": args.pairs,
        "seed": args.seed,
        "verdict": verdict,
        "failed_pairs": failures,
    }


def _cmd_local_check(args) -> dict:
    from .localcheck import check_map

    sample_map = samples_from_json(load_json(args.samples))
    report = check_map(sample_map, seed=args.seed)
    verdicts = []
    for (i, j), v in report.pair_verdicts:
        entry = {
            "pair": [i, j],
            "status": v.status,
            "witness": auto_to_json(v.witness) if v.witness is not None else None,
            "refusals": v.refusal_reasons(),
        }
        verdicts.append(entry)
    return {
        "command": "local-check",
        "group": group_to_json(sample_map.group),
        "samples": len(sample_map.samples),
        "seed": args.seed,
        "status": report.status,
        "counts": report.counts(),
        "first_obstruction": list(report.first_obstruction)
        if report.first_obstruction
        else None,
        "pairs": verdicts,
    }


def _make_oracle(args, group: GroupTag):
    from .recover import AutomorphismOracle, SampleOracle, SubprocessOracle

    sources = [s for s in (args.samples, args.oracle_cmd, args.auto) if s]
    if len(sources) != 1:
        raise BadArgs("recover needs exactly one of --samples, --oracle-cmd, --auto")
    if args.samples:
        sample_map = samples_from_json(load_json(args.samples))
        if sample_map.group != group:
            raise BadArgs(
                f"sample file is for {sample_map.group.family}-{sample_map.group.field}-"
                f"{sample_map.group.n}, not {args.group}"
            )
        return SampleOracle(group, sample_map.samples, budget=args.budget)
    if args.oracle_cmd:
        try:
            cmd = shlex.split(args.oracle_cmd)
        except ValueError as exc:
            raise BadArgs(f"cannot parse --oracle-cmd {args.oracle_cmd!r}: {exc}") from exc
        return SubprocessOracle(group, cmd, budget=args.budget)
    auto = auto_from_json(load_json(args.auto))
    if auto.group != group:
        raise BadArgs("automorphism file group does not match --group")
    return AutomorphismOracle(auto, budget=args.budget)


def _cmd_recover(args) -> dict:
    from .recover import recover

    group = parse_group(args.group)
    if args.dets is not None and ambient(group) != RSTAR:
        raise BadArgs("--dets feeds the determinant probes of gl-r-n only")
    dets = _fraction_list(args.dets) if args.dets else None
    if dets and len(set(dets)) < len(dets):
        raise BadArgs(f"--dets names a determinant more than once: {args.dets!r}")
    oracle = _make_oracle(args, group)
    try:
        rep = recover(oracle, seed=args.seed, verify_probes=args.verify_probes, dets=dets)
    finally:
        if hasattr(oracle, "close"):
            oracle.close()
    out = {
        "command": "recover",
        "group": group_to_json(group),
        "engine": rep.engine,
        "seed": args.seed,
        "status": rep.status,
        "probes_used": rep.probes_used,
        "residual": rep.residual,
        "auto": auto_to_json(rep.auto) if rep.auto is not None else None,
        "g_points": _jsonable(rep.g_points),
        "f_table": _jsonable(rep.f_table),
        "notes": list(rep.notes),
        "refutation": _jsonable(rep.refutation),
    }
    if args.out and rep.auto is not None:
        dump_json(args.out, auto_to_json(rep.auto))
        out["written_to"] = args.out
    return out


def _cmd_gallery(args) -> dict:
    from .gallery import GALLERY, build_entry, verify_entry

    name = args.item.replace("-", "_")
    if name not in GALLERY:
        raise BadArgs(f"unknown gallery item {args.item!r}; have "
                      + ", ".join(g.replace("_", "-") for g in GALLERY))
    entry = build_entry(name, n=args.n, seed=args.seed)
    verification = verify_entry(entry, seed=args.seed)
    report = {
        "command": "gallery",
        "item": args.item,
        "description": entry.description,
        "group": group_to_json(entry.group) if entry.group else None,
        "certificate": {
            "claim": entry.certificate.claim,
            "evidence": _jsonable(entry.certificate.evidence),
        },
        "samples": [[mat_to_json(a), mat_to_json(b)] for a, b in entry.sample_map.samples]
        if entry.sample_map
        else None,
        "artifacts": _jsonable(entry.artifacts),
        "verification": _jsonable(verification),
    }
    if args.out:
        dump_json(args.out, report)
    return report


def _cmd_selftest(args) -> dict:
    from .acceptance import run_all

    numbers = None
    if args.only is not None:
        try:
            numbers = [int(tok) for tok in args.only.split(",") if tok.strip()]
        except ValueError as exc:
            raise BadArgs(f"cannot parse --only {args.only!r}") from exc
        if not numbers or any(k < 1 or k > 10 for k in numbers):
            raise BadArgs("--only takes criterion numbers between 1 and 10")
        if len(set(numbers)) < len(numbers):
            raise BadArgs(f"--only names a criterion more than once: {args.only!r}")
    results = run_all(args.seed, numbers=numbers)
    for r in results:
        print(r.line(), file=sys.stderr)
    return {
        "command": "selftest",
        "seed": args.seed,
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
        "_seconds": [round(r.seconds, 6) for r in results],
    }


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    # each subcommand declares only the options it reads, so an unread one
    # is an argparse error (exit 2) instead of being ignored
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="deterministic seed (default 0)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=None, help="oracle probe budget")

    p = argparse.ArgumentParser(
        prog="localaut",
        description="verify, separate and recover automorphisms of the classical matrix groups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-auto", parents=[seed], help="build and serialize an automorphism")
    g.add_argument("--group", required=True, help="gl-r-3, sl-c-3, un-3, sun-3 ...")
    g.add_argument("--kind", default="standard", choices=("standard", "contragredient"))
    g.add_argument("--sigma", default="id", choices=("id", "conj"))
    g.add_argument("--g", default=None, help="none | power:C[:flip] | powerconj:K:M | circle-power:K")
    g.add_argument("--t", default=None, help="matrix JSON file for T (default: seeded random)")
    g.add_argument("-o", "--out", default=None, help="write the automorphism JSON here")
    g.set_defaults(func=_cmd_gen_auto)

    a = sub.add_parser("apply", help="apply a stored automorphism to matrices")
    a.add_argument("--auto", required=True, help="automorphism JSON file")
    a.add_argument("--in", dest="inp", required=True, help="matrix JSON file (object or list)")
    a.add_argument("-o", "--out", default=None)
    a.set_defaults(func=_cmd_apply)

    v = sub.add_parser("verify-auto", parents=[seed], help="check the homomorphism law on random pairs")
    v.add_argument("auto", help="automorphism JSON file")
    v.add_argument("--pairs", type=int, default=200)
    v.set_defaults(func=_cmd_verify_auto)

    lc = sub.add_parser("local-check", parents=[seed], help="pairwise interpolation check of a sample map")
    lc.add_argument("samples", help="sample map JSON file")
    lc.set_defaults(func=_cmd_local_check)

    r = sub.add_parser("recover", parents=[seed, budget], help="reconstruct an automorphism from an oracle")
    r.add_argument("--group", required=True)
    r.add_argument("--samples", default=None, help="sample map JSON file used as a finite oracle")
    r.add_argument("--oracle-cmd", default=None, help="stateless child process, one matrix JSON per line")
    r.add_argument("--auto", default=None, help="automorphism JSON file used as the oracle")
    r.add_argument("--dets", default=None, help="comma separated distinct determinant probes, gl-r-n only")
    r.add_argument("--verify-probes", type=int, default=50)
    r.add_argument("-o", "--out", default=None, help="write the recovered automorphism JSON here")
    r.set_defaults(func=_cmd_recover)

    ga = sub.add_parser("gallery", parents=[seed], help="emit a named separating example")
    ga.add_argument("item", help="gl-local-not-global | additive-r | sign-twist")
    ga.add_argument("--n", type=int, default=None, help="size (or generator count for additive-r)")
    ga.add_argument("-o", "--out", default=None)
    ga.set_defaults(func=_cmd_gallery)

    st = sub.add_parser("selftest", parents=[seed], help="run the acceptance criteria")
    st.add_argument("--only", default=None, help="comma separated criterion numbers")
    st.set_defaults(func=_cmd_selftest)
    return p


def _emit(report: dict) -> None:
    t0 = report.pop("_t0")
    seconds = report.pop("_seconds", ())
    report["digest"] = sha256_digest(report)
    for criterion, s in zip(report.get("criteria", ()), seconds):
        criterion["seconds"] = s
    report["elapsed_s"] = round(time.perf_counter() - t0, 6)
    print(pretty_json(report))


def _error(code: str, message: str) -> None:
    print(pretty_json({"error": code, "message": message}))


def _join_negative_dets(argv: list[str]) -> list[str]:
    """argparse reads a value that starts with "-" as an option unless it is
    one number, so `--dets -1,2` is joined to `--dets=-1,2` before parsing;
    so is each prefix argparse takes for `--dets`, from `--d` on."""
    out = []
    for arg in argv:
        if out and len(out[-1]) >= 3 and "--dets".startswith(out[-1]) and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_dets(sys.argv[1:] if argv is None else list(argv)))
    t0 = time.perf_counter()
    # exact values print at any size while the command runs, and every input
    # literal is bounded on reading (scalars.MAX_LITERAL); 0 where no limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _check_numbers(args)
        report = args.func(args)
        report["_t0"] = t0
        _emit(report)
    except (BadArgs, NoEngine) as exc:
        _error("BadArgs", str(exc))
        return 2
    except FileFormatError as exc:
        _error("FileFormat", str(exc))
        return 3
    except FileNotFoundError as exc:
        _error("BadArgs", f"{exc.filename}: file not found")
        return 2
    except OSError as exc:
        # a path the command cannot open, read, write or run
        _error("BadArgs", f"{exc.filename}: {exc.strerror}")
        return 2
    except LocalautError as exc:
        print(pretty_json(exc.payload()))
        return 4
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
