"""The four benchmark workloads, built from a seed with the package's public
constructors, and the ground truth each job is checked against.

A workload is a list of jobs. A job is one user-visible call (`run`); the
runner times it, then, outside the timed region, `summarize` turns its output
into timing-free JSON (which feeds the output digest and the determinism
check between passes) and `check` compares it with the ground truth the
workload knows. Every check is an explicit `if`, so `python -O` keeps them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tracer import ENGINES

WORKLOADS = ("hom_suite", "recover_mix", "localcheck_mix", "cli_pipeline")
C64_TOL = 1e-8
ALIGN_TOL = 1e-6


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[object], list[str]]
    # the in-process call the traced run makes instead of `run` (cli_pipeline)
    run_traced: Callable[[], object] | None = None
    # why this job is expected to fail at this commit; it is still counted
    known_gap: str | None = None
    recovers: bool = False


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # spawns cli_pipeline's processes; None for the in-process workloads
    launcher: Launcher | None = None


def build(name: str, seed: int, workdir: Path, tiny: bool = False, plant: bool = False) -> Workload:
    """Build a workload's inputs from the seed. `workdir` receives the CLI
    input files, and the caller removes it. `tiny` shrinks every list for
    the smoke test; `plant` swaps in one job whose ground truth is wrong."""
    makers = {
        "hom_suite": _build_hom_suite,
        "recover_mix": _build_recover_mix,
        "localcheck_mix": _build_localcheck_mix,
        "cli_pipeline": _build_cli_pipeline,
    }
    return makers[name](seed, workdir, tiny, plant)


# ---------------------------------------------------------------------------
# shared helpers


def _regime(group) -> str:
    if group.unitary:
        return "C64"
    return "QR" if group.field == "R" else "QC"


def _sample(la, group, rng: random.Random, shears: int | None = None):
    """A random group element; exact ones are products of `shears` shears
    (the package default when None), GL ones then rescaled in one row."""
    if group.family == "SUn":
        return la.random_su(group.n, seed=rng.randrange(10**6))
    if group.family == "Un":
        return la.random_unitary(group.n, seed=rng.randrange(10**6))
    regime = _regime(group)
    if group.family == "SL":
        if shears is None:
            return la.random_sl(group.n, regime, rng)
        return la.random_sl(group.n, regime, rng, shears)
    if shears is None:
        return la.random_gl(group.n, regime, rng)
    return la.mul(la.random_gl(group.n, regime, rng), la.random_sl(group.n, regime, rng, shears - 3))


def _random_t(la, group, rng: random.Random):
    if group.unitary:
        return la.random_unitary(group.n, seed=rng.randrange(10**6))
    return la.random_gl(group.n, _regime(group), rng)


def _mat_text(m) -> list:
    """Exact entries as strings; C64 entries rounded to 6 decimals."""
    if m.regime == "C64":
        return [[_num_text(z) for z in row] for row in m.entries]
    return [[str(x) for x in row] for row in m.entries]


def _num_text(z) -> str:
    z = complex(z)
    re, im = round(z.real, 6) + 0.0, round(z.imag, 6) + 0.0
    return f"{re:.6f},{im:.6f}"


def sha256_json(obj) -> str:
    """sha256 of the canonical JSON of obj."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _same(la, x, y) -> bool:
    if x.regime == "C64":
        return la.close(x, y, ALIGN_TOL)
    return la.equal(x, y)


def _t_problems(la, t_found, t_true) -> list[str]:
    """T is determined up to a scalar: T' T^-1 must be scalar (exact), or T'
    must match T within ALIGN_TOL after phase alignment (C64)."""
    n = t_true.n
    if t_true.regime == "C64":
        p, q = max(((a, b) for a in range(n) for b in range(n)), key=lambda ij: abs(t_true[ij]))
        if abs(t_found[p, q]) == 0:
            return ["recovered T vanishes where the true T is largest"]
        aligned = la.smul(t_true[p, q] / t_found[p, q], t_found)
        err = max(abs(aligned[a, b] - t_true[a, b]) for a in range(n) for b in range(n))
        return [] if err <= ALIGN_TOL else [f"aligned T is off by {err:.2e}"]
    r = la.mul(t_found, la.inv(t_true))
    lam = r[0, 0]
    if lam == 0 or not la.equal(r, la.smul(lam, la.identity(n, r.regime))):
        return ["T' T^-1 is not a nonzero scalar"]
    return []


# ---------------------------------------------------------------------------
# hom_suite: criterion 1's job shape across every carried group form

# (label, group, automorphisms per pass, pairs per automorphism); n = 4 is
# the exact size up. Pair counts give the exact jobs about the same work, and
# the costliest form (contragredient GL4C/SL4C) has few enough jobs that the
# median and the tail job sit inside one population of jobs, not on a step
# between forms of very different cost.
HOM_FORMS = (
    ("GL3R", "gl-r-3", 12, 24),
    ("SL3R", "sl-r-3", 12, 30),
    ("GL3C", "gl-c-3", 12, 8),
    ("SL3C", "sl-c-3", 12, 10),
    ("U3", "un-3", 12, 100),
    ("SU3", "sun-3", 12, 100),
    ("GL4R", "gl-r-4", 8, 12),
    ("SL4R", "sl-r-4", 8, 15),
    ("GL4C", "gl-c-4", 4, 5),
    ("SL4C", "sl-c-4", 4, 5),
)


def _hom_auto(la, group, i: int, rng: random.Random):
    """Variant i cycles kind, sigma and g in {none, power, |z|^(2k)}."""
    if group.unitary:
        sigma = "id" if i % 2 == 0 else "conj"
        return la.make_automorphism(group, "standard", sigma, _random_t(la, group, rng))
    kind = "standard" if i % 2 == 0 else "contragredient"
    sigma = "id" if group.field == "R" or (i // 2) % 2 == 0 else "conj"
    g = None
    c = Fraction(i % 3)
    if group.family == "GL" and c:
        if group.field == "R":
            g = la.PowerFunc(c, "flip" if group.n % 2 == 0 and c == 2 else "same")
        else:
            g = la.PowerConjFunc(c, c)
    return la.make_automorphism(group, kind, sigma, _random_t(la, group, rng), g)


def _build_hom_suite(seed, workdir, tiny, plant) -> Workload:
    import localaut as la
    from localaut.cli import parse_group

    pool_size = 4 if tiny else 8
    jobs = []
    for fi, (label, spec, autos, pair_count) in enumerate(HOM_FORMS):
        pair_count = 4 if tiny else pair_count
        group = parse_group(spec)
        for i in range(2 if tiny else autos):
            # every job draws its own samples, so a run averages over many draws
            rng = random.Random(seed * 7919 + fi * 101 + i)
            pool = [_sample(la, group, rng) for _ in range(pool_size)]
            pairs = [(rng.randrange(pool_size), rng.randrange(pool_size)) for _ in range(pair_count)]
            products = [la.mul(pool[a], pool[b]) for a, b in pairs]
            auto = _hom_auto(la, group, i, rng)
            if plant and fi == 0 and i == 1:
                # not a homomorphism: the transpose reverses products
                phi = lambda m, auto=auto: la.transpose(la.apply(auto, m, check=False))
            else:
                phi = lambda m, auto=auto: la.apply(auto, m, check=False)
            jobs.append(_hom_job(la, f"{label}/{i}", phi, pool, pairs, products))
    return Workload("hom_suite", jobs)


def _hom_job(la, name, phi, pool, pairs, products) -> Job:
    def run():
        imgs = [phi(m) for m in pool]
        bad = 0
        for (a, b), prod in zip(pairs, products):
            lhs = phi(prod)
            rhs = la.mul(imgs[a], imgs[b])
            ok = la.close(lhs, rhs, C64_TOL) if lhs.regime == "C64" else la.equal(lhs, rhs)
            if not ok:
                bad += 1
        return bad, imgs

    def summarize(out):
        bad, imgs = out
        exact = imgs[0].regime != "C64"
        return {
            "verdicts": ["Verified" if bad == 0 else "Refuted"],
            "bad": bad,
            "images": sha256_json([_mat_text(m) for m in imgs]) if exact else None,
        }

    def check(out):
        bad, _ = out
        return [] if bad == 0 else [f"{bad} of {len(pairs)} product identities fail"]

    return Job(name, run, summarize, check)


# ---------------------------------------------------------------------------
# recover_mix: one recovery per job through an in-process oracle

# (engine, group, kind, sigma, g) for genuine automorphisms; g is a power c.
# Every map is at n <= 4, so a pass takes about 1.5 s and a run holds about
# ten passes, enough for a steady median of each job's time; with sl-r-7
# (8 to 10 s) or sl-r-5 (1 s) a run held two to ten.
# The shear jobs outnumber the cheap unitary and refutation jobs, so the
# median and the tail job both fall inside the sl-r-3 group, not on its edge.
RECOVER_CASES = (
    ("slnr_short", "sl-r-3", "standard", "id", None),
    ("slnr_short", "sl-r-3", "contragredient", "id", None),
    ("slnr_short", "sl-r-3", "standard", "id", None),
    ("slnr_short", "sl-r-3", "contragredient", "id", None),
    ("slnr_short", "sl-r-3", "standard", "id", None),
    ("slnr_short", "sl-r-3", "contragredient", "id", None),
    ("sln_common", "sl-r-4", "contragredient", "id", None),
    ("sln_common", "sl-r-4", "standard", "id", None),
    ("sln_common", "sl-r-4", "contragredient", "id", None),
    ("sln_common", "sl-r-4", "standard", "id", None),
    ("sln_common", "sl-c-3", "standard", "conj", None),
    ("sln_common", "sl-c-3", "contragredient", "id", None),
    ("sln_common", "sl-c-3", "contragredient", "conj", None),
    ("sln_common", "sl-c-3", "standard", "id", None),
    ("sln_common", "sl-c-3", "standard", "conj", None),
    ("glnr", "gl-r-3", "standard", "id", 1),
    ("glnr", "gl-r-3", "contragredient", "id", 2),
    ("glnr", "gl-r-3", "standard", "id", 2),
    ("sun", "sun-3", "standard", "conj", None),
    ("un", "un-3", "standard", "id", None),
)
TINY_RECOVER = (0, 6, 10, 15, 18, 19)

# maps that are not automorphisms; each must come back Refuted
REFUTE_CASES = (
    ("slnr_short", "sl-r-3", "transpose"),
    ("slnr_short", "sl-r-3", "inverse"),
    ("sln_common", "sl-c-3", "transpose"),
    ("glnr", "gl-r-3", "transpose"),
)

def _build_recover_mix(seed, workdir, tiny, plant) -> Workload:
    import localaut as la
    from localaut.cli import parse_group

    jobs = []
    cases = [RECOVER_CASES[i] for i in TINY_RECOVER] if tiny else RECOVER_CASES
    for k, (engine, spec, kind, sigma, c) in enumerate(cases):
        group = parse_group(spec)
        rng = random.Random(seed * 104729 + k)
        g = la.PowerFunc(Fraction(c)) if c is not None else None
        truth = la.make_automorphism(group, kind, sigma, _random_t(la, group, rng), g)
        job_seed = seed * 31 + k
        if plant and k == 0:
            other = la.make_automorphism(group, kind, sigma, _random_t(la, group, rng), g)
            oracle = _perturbed_oracle(la, truth, other)
        else:
            oracle = lambda truth=truth: la.AutomorphismOracle(truth)
        jobs.append(_recover_job(la, f"{engine}/{spec}/{k}", engine, oracle, truth, job_seed))
    for k, (engine, spec, fn) in enumerate(REFUTE_CASES[:1] if tiny else REFUTE_CASES):
        group = parse_group(spec)
        f = (lambda a: la.transpose(a)) if fn == "transpose" else (lambda a: la.inv(a))
        oracle = lambda group=group, f=f: la.FunctionOracle(group, f)
        jobs.append(_recover_job(la, f"{engine}/{spec}/{fn}", engine, oracle, None, seed * 37 + k))
    return Workload("recover_mix", jobs)


def _perturbed_oracle(la, truth, other):
    """Answers like `truth` for the first probes, then like `other`."""

    def make():
        calls = []

        def fn(a):
            calls.append(1)
            return la.apply(truth if len(calls) <= 10 else other, a)

        return la.FunctionOracle(truth.group, fn)

    return make


def _recover_job(la, name, engine, make_oracle, truth, job_seed) -> Job:
    def run():
        engine_fn = getattr(la, ENGINES[engine])
        return engine_fn(make_oracle(), seed=job_seed)

    def check(rep):
        if truth is None:
            return [] if rep.status == "Refuted" else [f"non-automorphism came back {rep.status}"]
        return _recovery_problems(la, rep.status, rep.auto, rep.g_points, truth, job_seed)

    return Job(name, run, _report_summary, check, recovers=True)


def _report_summary(rep) -> dict:
    auto = rep.auto
    return {
        "verdicts": [rep.status],
        "engine": rep.engine,
        "probes": rep.probes_used,
        "kind": auto.kind if auto else None,
        "sigma": auto.sigma if auto else None,
        "t": _mat_text(auto.t) if auto else None,
        "g": _g_text(rep.g_points),
        "refutation": (rep.refutation or {}).get("reason"),
    }


def _g_text(points) -> list:
    out = []
    for d, c in points:
        if isinstance(d, (list, tuple)):
            out.append([_num_text(complex(*d)), _num_text(complex(*c))])
        else:
            out.append([str(d), str(c)])
    return out


def _recovery_problems(la, status, found, g_points, truth, job_seed) -> list[str]:
    """Status, kind, sigma, T, the g table, and agreement on fresh probes."""
    if status != "Recovered" or found is None:
        return [f"expected Recovered, got {status}"]
    problems = []
    if found.kind != truth.kind or found.sigma != truth.sigma:
        problems.append(f"recovered {found.kind}/{found.sigma}, truth {truth.kind}/{truth.sigma}")
        return problems
    problems += _t_problems(la, found.t, truth.t)
    group = truth.group
    if group.family == "GL":
        for d, c in g_points:
            want = la.evaluate(truth.g, Fraction(d)) if truth.g is not None else Fraction(1)
            if Fraction(c) != want:
                problems.append(f"g({d}) = {c}, truth {want}")
    elif group.family == "Un":
        for _, c in g_points:
            if abs(complex(*c) - 1) > ALIGN_TOL:
                problems.append(f"g value {complex(*c)} where the truth has g = 1")
    if problems:
        return problems
    rng = random.Random(job_seed + 7777)
    for probe in _fresh_probes(la, found, rng):
        if not _same(la, la.apply(found, probe, 1e-6), la.apply(truth, probe, 1e-6)):
            return ["recovered map differs from the truth on a fresh probe"]
    return []


def _fresh_probes(la, found, rng: random.Random) -> list:
    """Three probes not in the recovery schedule, inside found's g domain."""
    group = found.group
    n = group.n
    probes = []
    for _ in range(3):
        if group.family == "SL":
            probes.append(la.random_sl(n, _regime(group), rng))
        elif group.family == "GL":
            dets = [d for d, _ in found.g.points] if found.g is not None else [Fraction(1)]
            diag = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            diag[0][0] = dets[rng.randrange(len(dets))]
            probes.append(la.mul(la.random_sl(n, "QR", rng), la.mat(diag, "QR")))
        else:
            base = la.random_su(n, seed=rng.randrange(10**6))
            if group.family == "Un":
                # the recovered g is tabulated at det i (or -i after sigma)
                diag = [[complex(int(i == j)) for j in range(n)] for i in range(n)]
                diag[0][0] = 1j
                base = la.mul(base, la.mat(diag, "C64"))
            probes.append(base)
    return probes


# ---------------------------------------------------------------------------
# localcheck_mix: check_pair over check_map's pair schedule on 4-sample maps

# (label, group, kind, sigma, g, mixed); g is |z|^(2k) over C, a power over R
LOCAL_MAPS = (
    ("GL3R", "gl-r-3", "standard", "id", 1, False),
    ("SL3C", "sl-c-3", "contragredient", "id", None, False),
    ("GL3C-id", "gl-c-3", "standard", "id", 1, False),
    ("GL3C-conj", "gl-c-3", "standard", "conj", 1, False),
    ("SL4R", "sl-r-4", "contragredient", "id", None, False),
    ("U3", "un-3", "standard", "conj", None, False),
    ("SL3C-mixed", "sl-c-3", "contragredient", "id", None, True),
)
# Exact samples are products of 8 shears, not the package default of 3.
# Sparse 3-shear samples often share invariant subspaces, and such a pair
# pays the full (n+1)^d determinant sweep in simultaneous_similarity (0.2 to
# 1.5 s at n = 4). How many pairs do so depends on the seed, which swung one
# map's time fourfold between seeds; generic samples keep seeds comparable.
LOCAL_SHEARS = 8
# Maps of 12 samples (66 pairs each) made a pass take 8 to 12 s, so a 22 s
# run held two passes. A map's cost depends on its drawn T and samples, and
# with one 5-sample map per label the per-label cost moved by about 10%
# between seeds: job_p50_s spread 10% over five seeds. Each label therefore
# gets LOCAL_DRAWS independent maps of 4 samples (6 pairs, each sample in 3
# of them); with two such maps the spread was 7.6%, with three 7.2%.
LOCAL_SAMPLES = 4
LOCAL_DRAWS = 3
TINY_LOCAL = (0, 1, 3, 5, 6)


def _build_localcheck_mix(seed, workdir, tiny, plant) -> Workload:
    import localaut as la
    from localaut.cli import parse_group

    m = 4 if tiny else LOCAL_SAMPLES
    jobs = []
    maps = [LOCAL_MAPS[i] for i in TINY_LOCAL] if tiny else LOCAL_MAPS
    draws = 1 if tiny else LOCAL_DRAWS
    for k, (label, spec, kind, sigma, c, mixed) in enumerate(maps * draws):
        group = parse_group(spec)
        rng = random.Random(seed * 65537 + k)
        g = None
        if c is not None:
            g = la.PowerFunc(Fraction(c)) if group.field == "R" else la.PowerConjFunc(Fraction(c), Fraction(c))
        autos = [la.make_automorphism(group, kind, sigma, _random_t(la, group, rng), g)]
        if mixed:
            autos.append(la.make_automorphism(group, kind, sigma, _random_t(la, group, rng), g))
        # a mixed map takes its first half from one automorphism, the rest from another
        source = [0 if (not mixed or i < m // 2) else 1 for i in range(m)]
        mats = [_sample(la, group, rng, LOCAL_SHEARS) for _ in range(m)]
        samples = la.SampleMap(group, tuple((a, la.apply(autos[s], a)) for a, s in zip(mats, source)))
        if plant and mixed:
            source = [0] * m  # claims a single source, so Obstructed pairs are wrong
        map_seed = seed * 131 + k
        for i in range(m):
            for j in range(i + 1, m):
                jobs.append(
                    _pair_job(la, f"{label}.{k}/{i}-{j}", samples, i, j, map_seed * 9973 + i * m + j, source)
                )
    return Workload("localcheck_mix", jobs)


def _pair_job(la, name, sample_map, i, j, pair_seed, source) -> Job:
    group = sample_map.group
    s_i, s_j = sample_map.samples[i], sample_map.samples[j]

    def run():
        return la.check_pair(group, s_i, s_j, seed=pair_seed)

    def summarize(v):
        w = v.witness
        return {
            "verdicts": [v.status],
            "witness": None
            if w is None
            else [w.kind, w.sigma, _mat_text(w.t) if w.t.regime != "C64" else None],
        }

    def check(v):
        problems = []
        if v.status == "Obstructed" and source[i] == source[j]:
            problems.append("a pair drawn from one automorphism came back Obstructed")
        if v.status == "Interpolable":
            for a, out in (s_i, s_j):
                if not _same(la, la.apply(v.witness, a, 1e-7), out):
                    problems.append("the witness does not reproduce its sample")
                    break
        return problems

    return Job(name, run, summarize, check)


# ---------------------------------------------------------------------------
# cli_pipeline: one `python -m localaut.cli` process per job


@dataclass
class CliResult:
    code: int
    stdout: str


class Launcher:
    """Client of launcher.py, which spawns the CLI processes so that their
    peak RSS does not include the benchmark's own."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.peak_kb = 0
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "launcher.py")],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str]) -> CliResult:
        request = {"argv": [sys.executable, "-m", "localaut.cli", *argv], "cwd": str(self.workdir), "timeout": 60}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.peak_kb = max(self.peak_kb, reply["children_maxrss_kb"])
        return CliResult(reply["code"], reply["stdout"])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
            self.proc.stdout.close()


def _build_cli_pipeline(seed, workdir, tiny, plant) -> Workload:
    import localaut as la
    import localaut.cli as cli
    from localaut.cli import parse_group

    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed * 7 + 3)
    truths = {}

    def auto_file(fname, spec, kind, sigma, g=None):
        group = parse_group(spec)
        truths[fname] = la.make_automorphism(group, kind, sigma, _random_t(la, group, rng), g)
        la.dump_json(str(workdir / fname), la.auto_to_json(truths[fname]))

    auto_file("auto_glr3.json", "gl-r-3", "contragredient", "id", la.PowerFunc(Fraction(1)))
    auto_file("auto_slc3.json", "sl-c-3", "standard", "conj")
    auto_file("auto_slr3.json", "sl-r-3", "standard", "id")
    auto_file("auto_slr5.json", "sl-r-5", "contragredient", "id")
    auto_file("auto_sun3.json", "sun-3", "standard", "conj")
    auto_file("auto_slr4.json", "sl-r-4", "standard", "id")
    auto_file("auto_glc3.json", "gl-c-3", "standard", "id", la.PowerConjFunc(Fraction(1), Fraction(1)))

    slc3 = truths["auto_slc3.json"]
    mats = [la.random_sl(3, "QC", rng) for _ in range(6)]
    la.dump_json(str(workdir / "mats_slc3.json"), [la.mat_to_json(m) for m in mats])
    glr3 = truths["auto_glr3.json"]
    local_map = la.samples_from_automorphism(glr3, [_sample(la, glr3.group, rng) for _ in range(4 if tiny else 8)])
    la.dump_json(str(workdir / "samples_glr3.json"), la.samples_to_json(local_map))
    # the sample oracle must answer every probe the engine makes with this seed
    oracle = la.AutomorphismOracle(truths["auto_slr3.json"])
    la.recover_slnr_short(oracle, seed=seed)
    probe_map = la.SampleMap(oracle.group, tuple(oracle.transcript))
    la.dump_json(str(workdir / "samples_slr3.json"), la.samples_to_json(probe_map))

    child = shlex.join([sys.executable, str(Path(__file__).resolve().parent / "oracle_child.py"), "auto_slr5.json"])
    s = str(seed)
    gen_glr3 = la.make_automorphism(
        glr3.group, "contragredient", "id", la.random_gl(3, "QR", random.Random(seed)), la.PowerFunc(Fraction(1))
    )
    gen_un3 = la.make_automorphism(la.GroupTag("Un", "C", 3), "standard", "conj", la.random_unitary(3, seed=seed))
    recover_truth = dict(truths)
    if plant:
        recover_truth["auto_slc3.json"] = truths["auto_slr3.json"]

    def rec(spec, source, fname, gap=None):
        argv = ["recover", "--group", spec, *source, "--seed", s]
        return argv, lambda out: _cli_recover_problems(la, out, recover_truth[fname], seed), gap

    commands = [
        (
            ["gen-auto", "--group", "gl-r-3", "--kind", "contragredient", "--g", "power:1", "--seed", s],
            lambda out: _cli_equal(out, "auto", la.auto_to_json(gen_glr3)),
            None,
        ),
        (
            ["gen-auto", "--group", "un-3", "--sigma", "conj", "--seed", s],
            lambda out: _cli_equal(out, "auto", la.auto_to_json(gen_un3)),
            None,
        ),
        (
            ["apply", "--auto", "auto_slc3.json", "--in", "mats_slc3.json"],
            lambda out: _cli_equal(out, "images", [la.mat_to_json(la.apply(slc3, m)) for m in mats]),
            None,
        ),
        (
            ["verify-auto", "auto_glr3.json", "--pairs", "8" if tiny else "40", "--seed", s],
            lambda out: _cli_verified(out),
            None,
        ),
        (
            ["local-check", "samples_glr3.json", "--seed", s],
            lambda out: _cli_local_problems(la, out, local_map),
            None,
        ),
        rec("sl-r-3", ["--samples", "samples_slr3.json"], "auto_slr3.json"),
        rec("sl-r-5", ["--oracle-cmd", child], "auto_slr5.json"),
        rec("sl-c-3", ["--auto", "auto_slc3.json"], "auto_slc3.json"),
        rec("gl-r-3", ["--auto", "auto_glr3.json"], "auto_glr3.json"),
        rec("sun-3", ["--auto", "auto_sun3.json"], "auto_sun3.json"),
        rec("sl-r-4", ["--auto", "auto_slr4.json"], "auto_slr4.json", "no engine handles even n for SL_n(R) in the CLI"),
        rec("gl-c-3", ["--auto", "auto_glc3.json"], "auto_glc3.json", "the CLI has no recovery engine for GL_n(C)"),
    ]
    if tiny:
        commands = [commands[i] for i in (0, 2, 3, 4, 5, 7, 10)]
    launcher = Launcher(workdir, dict(os.environ, PYTHONPATH=str(Path(la.__file__).resolve().parent.parent)))
    jobs = [_cli_job(cli, workdir, launcher, argv, check, gap) for argv, check, gap in commands]
    return Workload("cli_pipeline", jobs, launcher)


def _cli_job(cli, workdir, launcher, argv, truth_check, gap) -> Job:
    def run():
        return launcher.run(argv)

    def run_traced():
        return _cli_in_process(cli, workdir, argv)

    def check(out):
        problems = []
        ref = _cli_in_process(cli, workdir, argv)
        if (out.code, _report(out)) != (ref.code, _report(ref)):
            problems.append("exit code or report differs from the in-process run")
        if out.code != 0:
            problems.append(f"exit code {out.code}: {_report(out).get('error')}")
            return problems
        return problems + truth_check(_report(out))

    def summarize(out):
        rep = _report(out)
        verdicts = []
        if "verdict" in rep:
            verdicts.append(rep["verdict"])
        if rep.get("command") == "recover":
            verdicts.append(rep["status"])
        if rep.get("command") == "local-check":
            verdicts += [p["status"] for p in rep["pairs"]]
        return {"verdicts": verdicts, "code": out.code, "digest": rep.get("digest") or sha256_json(rep)}

    return Job(
        " ".join(argv[:3]),
        run,
        summarize,
        check,
        run_traced=run_traced,
        known_gap=gap,
        recovers=argv[0] == "recover",
    )


def _cli_in_process(cli, workdir, argv) -> CliResult:
    buf = io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    finally:
        os.chdir(here)
    return CliResult(code, buf.getvalue())


def _report(out: CliResult) -> dict:
    """The printed report without its timing field."""
    try:
        rep = json.loads(out.stdout)
    except json.JSONDecodeError:
        return {"error": "unparsable output", "stdout": out.stdout[-200:]}
    rep.pop("elapsed_s", None)
    return rep


def elapsed_of(out: CliResult) -> float | None:
    try:
        return json.loads(out.stdout).get("elapsed_s")
    except json.JSONDecodeError:
        return None


def _cli_equal(rep, key, want) -> list[str]:
    return [] if rep.get(key) == want else [f"{key} differs from the in-process value"]


def _cli_verified(rep) -> list[str]:
    if rep.get("verdict") == "Verified" and rep.get("failed_pairs") == []:
        return []
    return [f"verify-auto says {rep.get('verdict')} on a genuine automorphism"]


def _cli_local_problems(la, rep, sample_map) -> list[str]:
    problems = []
    if rep["counts"]["Obstructed"]:
        problems.append("a genuine sample map has Obstructed pairs")
    for p in rep["pairs"]:
        if p["status"] != "Interpolable":
            continue
        witness = la.auto_from_json(p["witness"])
        for k in p["pair"]:
            a, out = sample_map.samples[k]
            if not _same(la, la.apply(witness, a), out):
                problems.append(f"witness for pair {p['pair']} does not reproduce sample {k}")
    return problems


def _cli_recover_problems(la, rep, truth, seed) -> list[str]:
    found = la.auto_from_json(rep["auto"]) if rep.get("auto") else None
    g_points = rep.get("g_points") or []
    return _recovery_problems(la, rep.get("status"), found, g_points, truth, seed)

