"""Digest a fixed grid of command line runs, to compare two trees.

Runs `localaut.cli.main` in-process over a fixed grid and prints one JSON
object {argv: digest}. A digest is the sha256 of the exit code and the
report with its timing fields (`elapsed_s`, each criterion's `seconds`)
dropped, so a refactor that keeps every report byte-identical apart from
timings prints the same object on both trees. The grid covers:

* `gen-auto` of every automorphism the grid uses;
* `local-check` of genuine, mixed-source, repeated-sample and one-sample
  maps on GL_3(R), GL_3(C) (sigma id and conj, both kinds), SL_3(R),
  SL_3(C), U_3 (sigma id and conj) and SU_3; of the GL_3(C) maps lifted
  to C64, both kinds and sigma id and conj, so the numeric spectra are
  pinned; of exact GL_3(R) and GL_3(C) maps on companion matrices of
  trace 0, so the scalar is read off a higher coefficient; and of maps
  whose samples are not cyclic from e_1, so the Krylov basis of the
  intertwiner solve holds more than one chain: SL_4(R) samples of the
  default three shears, a GL_3(R) map whose first sample is 2I and an
  SL_3(C) map whose first sample is I;
* `recover` through every engine, with and without `--dets`, at n = 3
  and, both kinds each, on SL_4(R), SL_5(R), SL_4(C) and GL_5(R), so the
  verification sampler runs above n = 3, and sigma id and conj each on
  SU_5 and U_5, so the unitary fit runs above n = 3; and through
  oracle children whose scalar refutes the class at a det, on a pair and
  on a relation; and on GL_4(R) with a fractional det among `--dets`,
  so the verification probes scale their grid by a denominator; and
  through oracle children that no automorphism explains, so the rows pin
  how recovery refuses: A -> A^t on SL_3(R), SL_3(C) and GL_3(R), and
  A -> I on SL_3(R), SU_3 and U_3;
* the three `gallery` items;
* `verify-auto` of generated SL_4(C) and GL_5(R) files, both kinds, so
  the exact random pool runs above n = 3;
* `apply` and `verify-auto` over automorphism files of every character
  wire type (`power` on R* and the circle, `powerconj`, `table`,
  `gausstable`, `circletable`, `latticehom`), written from literal JSON
  so both trees read the same bytes, applied to inputs whose
  determinants lie inside and outside the finite characters' domains;
* two finite tables the class screen refuses, applied to I: the
  `gausstable` g(1) = 2 on GL_3(C) with T = I, whose f(1) = 8 leaves
  the torsion order of 1, and the `circletable` g(1) = e^{0.5i} on U_3,
  whose f(1) = e^{1.5i} is not 1;
* the `latticehom` record on <4, 9>: dets 2 and 6 in its divisible hull
  but outside the subgroup, det 36 inside it, a sign twist at odd n, and
  malformed files (dependent generators, an image short, a sign image 2,
  a zero image).

Run from the repository root, against the tree on PYTHONPATH:

    PYTHONPATH=src python tools/parity_grid.py > grid.json

File arguments are relative to a temporary working directory, so the keys
are the same on every tree and host.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import localaut
from localaut.cli import main
from localaut.autos import apply
from localaut.localcheck import SampleMap
from localaut.matrices import identity, mat, random_gl, random_sl, random_su, random_unitary, smul, to_c64
from localaut.scalars import GQ_I, GaussRational
from localaut.serialize import auto_from_json, dump_json, load_json, samples_to_json

# (file stem, gen-auto group, gen-auto options)
AUTOS = [
    ("glr-std", "gl-r-3", ["--g", "power:2"]),
    ("glr-std1", "gl-r-3", ["--g", "power:1"]),
    ("glr-con", "gl-r-3", ["--g", "power:2", "--kind", "contragredient"]),
    ("glr4-flip", "gl-r-4", ["--g", "power:1:flip"]),
    ("glc-id-std", "gl-c-3", ["--g", "powerconj:1:1"]),
    ("glc-id-con", "gl-c-3", ["--g", "powerconj:1:1", "--kind", "contragredient"]),
    ("glc-conj-std", "gl-c-3", ["--g", "powerconj:1:1", "--sigma", "conj"]),
    ("glc-conj-con", "gl-c-3", ["--g", "powerconj:1:1", "--sigma", "conj", "--kind", "contragredient"]),
    ("glc-none", "gl-c-3", ["--sigma", "conj"]),
    ("slr", "sl-r-3", []),
    ("slr-con", "sl-r-3", ["--kind", "contragredient"]),
    ("slc-conj", "sl-c-3", ["--sigma", "conj"]),
    ("un-id", "un-3", ["--g", "circle-power:0"]),
    ("un-conj", "un-3", ["--g", "circle-power:0", "--sigma", "conj"]),
    ("un-none", "un-3", ["--sigma", "conj"]),
    ("sun-id", "sun-3", []),
    ("sun-conj", "sun-3", ["--sigma", "conj"]),
    ("slr4", "sl-r-4", []),
    ("slr4-con", "sl-r-4", ["--kind", "contragredient"]),
    ("slr5", "sl-r-5", []),
    ("slr5-con", "sl-r-5", ["--kind", "contragredient"]),
    ("slc4", "sl-c-4", []),
    ("slc4-con", "sl-c-4", ["--kind", "contragredient", "--sigma", "conj"]),
    ("glr5", "gl-r-5", ["--g", "power:2"]),
    ("glr5-con", "gl-r-5", ["--g", "power:2", "--kind", "contragredient"]),
    ("sun5-id", "sun-5", []),
    ("sun5-conj", "sun-5", ["--sigma", "conj"]),
    ("un5-id", "un-5", ["--g", "circle-power:0"]),
    ("un5-conj", "un-5", ["--g", "circle-power:0", "--sigma", "conj"]),
]

# local-check sample maps: (name, automorphism stems, one per sample,
# factor on every output); a factor off the character's class puts the
# scalar screens to work
MAPS = [
    ("glr", ["glr-std"] * 4, 1),
    ("glr-con", ["glr-con"] * 4, 1),
    ("glr-mixed-g", ["glr-std", "glr-std1", "glr-std", "glr-std1"], 1),
    ("glr-mixed-kind", ["glr-std", "glr-con", "glr-std"], 1),
    ("glr-negated", ["glr-std"] * 3, -1),
    ("glr-doubled", ["glr-con"] * 3, 2),
    ("glr4-flip", ["glr4-flip"] * 3, 1),
    ("glr4-negated", ["glr4-flip"] * 3, -1),
    ("glc-id-std", ["glc-id-std"] * 3, 1),
    ("glc-id-con", ["glc-id-con"] * 3, 1),
    ("glc-conj-std", ["glc-conj-std"] * 3, 1),
    ("glc-conj-con", ["glc-conj-con"] * 3, 1),
    ("glc-mixed-sigma", ["glc-id-std", "glc-conj-std", "glc-id-std"], 1),
    ("glc-none", ["glc-none"] * 3, 1),
    ("glc-conj-doubled", ["glc-conj-std"] * 3, 2),
    ("glc-conj-turned", ["glc-conj-con"] * 3, GQ_I),
    ("slr", ["slr"] * 3, 1),
    ("slr-mixed-kind", ["slr", "slr-con", "slr"], 1),
    ("slc-conj", ["slc-conj"] * 3, 1),
    ("un-id", ["un-id"] * 3, 1),
    ("un-conj", ["un-conj"] * 3, 1),
    ("un-mixed-sigma", ["un-id", "un-conj", "un-id"], 1),
    ("un-conj-turned", ["un-conj"] * 3, 1j),
    ("sun-id", ["sun-id"] * 3, 1),
    ("sun-conj", ["sun-conj"] * 3, 1),
    ("glc-id-std-c64", ["glc-id-std"] * 3, 1),
    ("glc-id-con-c64", ["glc-id-con"] * 3, 1),
    ("glc-conj-std-c64", ["glc-conj-std"] * 3, 1),
    ("glc-conj-con-c64", ["glc-conj-con"] * 3, 1),
    ("glr-trace0", ["glr-std"] * 3, 1),
    ("glc-trace0", ["glc-id-std", "glc-conj-con", "glc-id-std"], 1),
    ("slr4-shear", ["slr4"] * 3, 1),
    ("glr-scalar", ["glr-std"] * 3, 1),
    ("slc-identity", ["slc-conj"] * 3, 1),
]

# maps whose samples and images are lifted to C64
LIFTED = {"glc-id-std-c64", "glc-id-con-c64", "glc-conj-std-c64", "glc-conj-con-c64"}

# maps on companion matrices of t^3 - a t - b, one (a, b) per sample: each
# has trace 0 and tr A^2 = 2a, so at a = 0 the scalar is read off tr A^3
COMPANIONS = {
    "glr-trace0": [(0, 2), (3, -1), (0, -5)],
    "glc-trace0": [(0, GaussRational(2, 1)), (GQ_I, 3), (0, GaussRational(-1, -2))],
}

# maps whose first sample is this multiple of I: its Krylov chains from
# e_1, e_2, ... have length 1
SCALAR_FIRST = {"glr-scalar": 2, "slc-identity": 1}

# A -> h(det A) A on GL_3(R), h a finite table; h is 1 at det +-1
CHILD = """\
import json, sys
from fractions import Fraction
from localaut.matrices import det, smul
from localaut.serialize import mat_from_json, mat_to_json
H = {table}
for line in sys.stdin:
    a = mat_from_json(json.loads(line))
    print(json.dumps(mat_to_json(smul(H.get(str(abs(det(a))), Fraction(1)), a))), flush=True)
"""

# (name, |det| -> value table, --dets)
CHILDREN = [
    ("negative-at-det", {"2": "-1", "3": "-1"}, "3,2"),
    ("pair-transport", {"2": "1", "4": "2"}, "4,2"),
    ("relation", {"2": "1", "3": "1", "6": "2"}, "2,3,6"),
    ("legal", {"2": "4", "3": "9"}, "3,-2"),
]

# A -> A^t or A -> I, in the probe's regime: no automorphism explains either
REFUSED_CHILD = """\
import json, sys
from localaut.matrices import identity, transpose
from localaut.serialize import mat_from_json, mat_to_json
for line in sys.stdin:
    a = mat_from_json(json.loads(line))
    print(json.dumps(mat_to_json({answer})), flush=True)
"""

# (name, answer expression, groups)
REFUSED_CHILDREN = [
    ("transpose", "transpose(a)", ("sl-r-3", "sl-c-3", "gl-r-3")),
    ("identity", "identity(a.n, a.regime)", ("sl-r-3", "sun-3", "un-3")),
]


# matrices and character files for the apply and verify-auto rows
I, ONE, ZERO = [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]
GLR3 = {"family": "GL", "field": "R", "n": 3}
GLC3 = {"family": "GL", "field": "C", "n": 3}
U3 = {"family": "Un", "field": "C", "n": 3}
T_QR = {"regime": "QR", "entries": [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "2"]]}
T_QC = {
    "regime": "QC",
    "entries": [
        [{"re": "1", "im": "0"}, {"re": "0", "im": "1"}, {"re": "0", "im": "0"}],
        [{"re": "0", "im": "0"}, {"re": "1", "im": "0"}, {"re": "0", "im": "0"}],
        [{"re": "0", "im": "0"}, {"re": "0", "im": "0"}, {"re": "2", "im": "0"}],
    ],
}
T_C64 = {"regime": "C64", "entries": [[ZERO, I, ZERO], [ZERO, ZERO, ONE], [ONE, ZERO, ZERO]]}
HALF_RADIAN = [0.8775825618903728, 0.479425538604203]  # e^{0.5i}


def _qr_diag(d):
    return {"regime": "QR", "entries": [[d, "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


def _qc_diag(re, im):
    zero, one = {"re": "0", "im": "0"}, {"re": "1", "im": "0"}
    return {"regime": "QC", "entries": [[{"re": re, "im": im}, zero, zero], [zero, one, zero], [zero, zero, one]]}


def _c64_diag(z):
    return {"regime": "C64", "entries": [[z, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]}


# input file -> one matrix or a list of them
INPUTS = {
    "glr-in.json": [_qr_diag("2"), _qr_diag("3"), _qr_diag("-2")],
    "glr-six.json": _qr_diag("6"),
    "glr-five.json": [_qr_diag("2"), _qr_diag("5")],
    "glr-two.json": _qr_diag("2"),
    "glr-thirty-six.json": _qr_diag("36"),
    "glc-in.json": [_qc_diag("1", "1"), _qc_diag("2", "0"), _qc_diag("0", "1")],
    "glc-out.json": _qc_diag("3", "0"),
    "glc-one.json": _qc_diag("1", "0"),
    "un-in.json": [_c64_diag(ONE), _c64_diag(I), _c64_diag([-1.0, 0.0])],
    "un-out.json": _c64_diag([0.0, -1.0]),
    "un-one.json": _c64_diag(ONE),
}

# g(4) = 2, g(9) = 3 on <4, 9>: 2 and 6 lie in the divisible hull only
LATTICE = {"type": "latticehom", "generators": ["4", "9"], "images": ["2", "3"], "sign_image": 1}

# (character file, group, kind, sigma, t, g, input files)
CHARACTERS = [
    ("power-rstar", GLR3, "standard", "id", T_QR,
     {"type": "power", "ambient": "Rstar", "c": "2", "neg": "same"}, ["glr-in", "glr-six", "glr-five"]),
    ("power-circle", U3, "standard", "conj", T_C64,
     {"type": "power", "ambient": "Circle", "c": "0", "neg": "same"}, ["un-in", "un-out"]),
    ("powerconj", GLC3, "contragredient", "conj", T_QC,
     {"type": "powerconj", "k": "1", "m": "1"}, ["glc-in", "glc-out"]),
    ("table", GLR3, "standard", "id", T_QR,
     {"type": "table", "points": [["-2", "4"], ["2", "4"], ["3", "9"]]}, ["glr-in", "glr-six", "glr-five"]),
    ("gausstable", GLC3, "standard", "id", T_QC,
     {"type": "gausstable", "points": [
         [{"re": "1", "im": "1"}, {"re": "2", "im": "0"}],
         [{"re": "2", "im": "0"}, {"re": "4", "im": "0"}],
         [{"re": "0", "im": "1"}, {"re": "1", "im": "0"}],
     ]}, ["glc-in", "glc-out"]),
    ("circletable", U3, "standard", "id", T_C64,
     {"type": "circletable", "points": [[ONE, ONE], [I, [-1.0, 0.0]], [[-1.0, 0.0], ONE]]}, ["un-in", "un-out"]),
    ("gausstable-refused", GLC3, "standard", "id", _qc_diag("1", "0"),
     {"type": "gausstable", "points": [[{"re": "1", "im": "0"}, {"re": "2", "im": "0"}]]}, ["glc-one"]),
    ("circletable-refused", U3, "standard", "id", T_C64,
     {"type": "circletable", "points": [[ONE, HALF_RADIAN]]}, ["un-one"]),
    ("latticehom", GLR3, "contragredient", "id", T_QR,
     {"type": "latticehom", "generators": ["2", "3"], "images": ["4", "9"], "sign_image": 1},
     ["glr-in", "glr-six", "glr-five"]),
    ("lattice-hull", GLR3, "standard", "id", T_QR, LATTICE, ["glr-two", "glr-six", "glr-thirty-six"]),
    ("lattice-twisted", GLR3, "standard", "id", T_QR, {**LATTICE, "sign_image": -1}, ["glr-thirty-six"]),
    ("lattice-dependent", GLR3, "standard", "id", T_QR, {**LATTICE, "generators": ["2", "4"]}, ["glr-two"]),
    ("lattice-short", GLR3, "standard", "id", T_QR, {**LATTICE, "images": ["2"]}, ["glr-two"]),
    ("lattice-sign-2", GLR3, "standard", "id", T_QR, {**LATTICE, "sign_image": 2}, ["glr-two"]),
    ("lattice-zero-image", GLR3, "standard", "id", T_QR, {**LATTICE, "images": ["0", "3"]}, ["glr-two"]),
]


def _mats(group, count, rng):
    if group.family == "Un":
        return [random_unitary(group.n, seed=rng.randrange(10**6)) for _ in range(count)]
    if group.family == "SUn":
        return [random_su(group.n, seed=rng.randrange(10**6)) for _ in range(count)]
    regime = group.regimes()[0]
    if group.family == "SL":
        return [random_sl(group.n, regime, rng) for _ in range(count)]
    return [random_gl(group.n, regime, rng) for _ in range(count)]


def _run(argv: list[str], digests: dict) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report = json.loads(out.getvalue())
    report.pop("elapsed_s", None)
    for criterion in report.get("criteria", ()):
        criterion.pop("seconds", None)
    blob = json.dumps({"code": code, "report": report}, sort_keys=True)
    key = " ".join(argv).replace(sys.executable, "python")
    digests[key] = hashlib.sha256(blob.encode()).hexdigest()


def _write_maps() -> list[str]:
    autos = {stem: auto_from_json(load_json(f"{stem}.json")) for stem, _, _ in AUTOS}
    files = []
    for name, stems, factor in MAPS:
        group = autos[stems[0]].group
        if name in COMPANIONS:
            regime = group.regimes()[0]
            mats = [mat([[0, 0, b], [1, 0, a], [0, 1, 0]], regime) for a, b in COMPANIONS[name]]
        else:
            mats = _mats(group, len(stems), random.Random(name))
        if name in SCALAR_FIRST:
            mats[0] = smul(SCALAR_FIRST[name], identity(group.n, group.regimes()[0]))
        samples = tuple(
            (a, smul(factor, apply(autos[stem], a))) for stem, a in zip(stems, mats)
        )
        if name in LIFTED:
            samples = tuple((to_c64(a), to_c64(out)) for a, out in samples)
        variants = {
            name: samples,
            f"{name}-repeat": samples[:2] + samples[:1],
            f"{name}-one": samples[:1],
        }
        for label, chosen in variants.items():
            dump_json(f"{label}.samples.json", samples_to_json(SampleMap(group, chosen)))
            files.append(f"{label}.samples.json")
    return files


def grid() -> dict:
    digests: dict = {}
    for stem, group, extra in AUTOS:
        _run(["gen-auto", "--group", group, *extra, "--seed", "5", "-o", f"{stem}.json"], digests)
    for path in _write_maps():
        for seed in ("0", "1"):
            _run(["local-check", path, "--seed", seed], digests)
    recoveries = [
        ("sl-r-3", "slr", []), ("sl-r-3", "slr-con", []), ("sl-c-3", "slc-conj", []),
        ("gl-r-3", "glr-std", []), ("gl-r-3", "glr-con", ["--dets", "3,-5,2"]),
        ("gl-r-4", "glr4-flip", ["--dets", "2,-3"]), ("gl-r-4", "glr4-flip", ["--dets", "2,-3,1/2"]),
        ("sun-3", "sun-id", []),
        ("sun-3", "sun-conj", []), ("un-3", "un-id", []), ("un-3", "un-conj", []),
        ("un-3", "un-none", []), ("sl-r-4", "slr4", []), ("sl-r-4", "slr4-con", []),
        ("sl-r-5", "slr5", []), ("sl-r-5", "slr5-con", []), ("sl-c-4", "slc4", []),
        ("sl-c-4", "slc4-con", []), ("gl-r-5", "glr5", []), ("gl-r-5", "glr5-con", []),
        ("sun-5", "sun5-id", []), ("sun-5", "sun5-conj", []), ("un-5", "un5-id", []),
        ("un-5", "un5-conj", []),
    ]
    for group, stem, extra in recoveries:
        for seed in ("1", "2"):
            _run(["recover", "--group", group, "--auto", f"{stem}.json", *extra, "--seed", seed], digests)
    _run(["recover", "--group", "gl-r-3", "--samples", "glr.samples.json", "--seed", "1"], digests)
    for name, table, dets in CHILDREN:
        values = "{" + ", ".join(f"{k!r}: Fraction({v!r})" for k, v in table.items()) + "}"
        Path(f"{name}.py").write_text(CHILD.format(table=values))
        cmd = f"{sys.executable} {name}.py"
        _run(["recover", "--group", "gl-r-3", "--oracle-cmd", cmd, "--dets", dets, "--seed", "1"], digests)
    for name, answer, groups in REFUSED_CHILDREN:
        Path(f"{name}.py").write_text(REFUSED_CHILD.format(answer=answer))
        for group in groups:
            _run(["recover", "--group", group, "--oracle-cmd", f"{sys.executable} {name}.py", "--seed", "1"], digests)
    for item in ("gl-local-not-global", "additive-r", "sign-twist"):
        for seed in ("0", "1"):
            _run(["gallery", item, "--seed", seed, "-o", f"{item}-{seed}.json"], digests)
    for seed in ("0", "1"):
        entry = load_json(f"gl-local-not-global-{seed}.json")
        dump_json("gallery.samples.json", {"group": entry["group"], "samples": entry["samples"]})
        _run(["local-check", "gallery.samples.json", "--seed", seed], digests)
    for stem in ("slc4", "slc4-con", "glr5", "glr5-con"):
        for seed in ("0", "1"):
            _run(["verify-auto", f"{stem}.json", "--pairs", "20", "--seed", seed], digests)
    for path, obj in INPUTS.items():
        Path(path).write_text(json.dumps(obj))
    for name, group, kind, sigma, t, g, inputs in CHARACTERS:
        auto = {"group": group, "kind": kind, "sigma": sigma, "t": t, "g": g}
        Path(f"{name}.json").write_text(json.dumps(auto))
        for inp in inputs:
            _run(["apply", "--auto", f"{name}.json", "--in", f"{inp}.json"], digests)
        for seed in ("0", "1"):
            _run(["verify-auto", f"{name}.json", "--pairs", "20", "--seed", seed], digests)
    return digests


def run() -> dict:
    package_root = str(Path(localaut.__file__).resolve().parent.parent)
    old_cwd, old_path = os.getcwd(), os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, old_path]))
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return grid()
        finally:
            os.chdir(old_cwd)
            if old_path is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = old_path


if __name__ == "__main__":
    print(json.dumps(run(), indent=1, sort_keys=True))
