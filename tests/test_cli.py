"""Command line contract: JSON reports, digests, exit codes."""
import cmath
import errno
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import localaut
from localaut.autos import SIGMA_ID, STANDARD, apply, make_automorphism
from localaut.cli import MAX_N, BadArgs, _build_parser, _check_numbers, main, parse_group
from localaut.errors import ResidualFail
from localaut.localcheck import SampleMap, samples_from_automorphism
from localaut.matrices import (
    C64,
    QC,
    QR,
    GroupTag,
    coerce_scalar,
    diag_first,
    equal,
    identity,
    mat,
    mul,
    random_gl,
    random_sl,
    smul,
    to_c64,
)
from localaut.scalarmaps import CIRCLE, CSTAR, MAX_POWER_BITS, PowerConjFunc, PowerFunc, TableFunc
from localaut.scalars import MAX_LITERAL, GaussRational
from localaut.serialize import (
    auto_from_json,
    auto_to_json,
    dump_json,
    load_json,
    mat_from_json,
    mat_to_json,
    mulfunc_from_json,
    mulfunc_to_json,
    samples_to_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_group_forms(capsys):
    assert parse_group("gl-r-3") == GroupTag("GL", "R", 3)
    assert parse_group("sl-c-4") == GroupTag("SL", "C", 4)
    assert parse_group("un-3") == GroupTag("Un", "C", 3)
    assert parse_group("su-5") == GroupTag("SUn", "C", 5)
    # a part the form does not have is refused, never ignored
    for text in ("un-3-4", "un-r-3", "sun-x-y-5", "gl-r-3-9", "sl-c-4-foo", "gl-3", "gl-q-3", "su-"):
        with pytest.raises(BadArgs, match=f"unknown group {text!r}; the forms are gl-r-N, gl-c-N, sl-r-N"):
            parse_group(text)
    code, rep = run_cli(capsys, "gen-auto", "--group", "un-3-4")
    assert code == 2 and rep["error"] == "BadArgs" and "un-N (or u-N) and sun-N (or su-N)" in rep["message"]


def test_group_above_the_ceiling_is_refused(capsys):
    """n above MAX_N is BadArgs before anything is built; the 10^6 case is
    only parsed, since a command that accepted it would never end."""
    assert parse_group(f"sl-r-{MAX_N}") == GroupTag("SL", "R", MAX_N)
    with pytest.raises(BadArgs, match=f"n = 1000000, above the ceiling n <= {MAX_N}"):
        parse_group("sl-r-1000000")
    big = f"gl-r-{MAX_N + 1}"
    message = f"group {big!r} has n = {MAX_N + 1}, above the ceiling n <= {MAX_N}"
    for argv in (["gen-auto", "--group", big], ["recover", "--group", big, "--auto", "missing.json"]):
        assert run_cli(capsys, *argv) == (2, {"error": "BadArgs", "message": message})
    for text in (f"un-{MAX_N + 1}", f"su-{MAX_N + 1}", f"sl-c-{MAX_N + 1}"):
        with pytest.raises(BadArgs, match="above the ceiling"):
            parse_group(text)


@pytest.mark.parametrize("item", ["gl-local-not-global", "additive-r", "sign-twist"])
def test_gallery_size_above_the_ceiling_is_refused(capsys, item):
    """`gallery --n` above MAX_N is BadArgs before any sample is built; the
    10^6 case is only parsed and checked, never run."""
    big = str(MAX_N + 1)
    message = f"--n is {big}, above the ceiling n <= {MAX_N}"
    assert run_cli(capsys, "gallery", item, "--n", big) == (2, {"error": "BadArgs", "message": message})
    with pytest.raises(BadArgs, match=f"--n is 1000000, above the ceiling n <= {MAX_N}"):
        _check_numbers(_build_parser().parse_args(["gallery", item, "--n", "1000000"]))


def test_gen_verify_recover_round_trip(tmp_path, capsys):
    auto_file = str(tmp_path / "auto.json")
    code, rep = run_cli(
        capsys, "gen-auto", "--group", "sl-r-3", "--kind", "contragredient",
        "--seed", "5", "-o", auto_file,
    )
    assert code == 0 and rep["auto"]["kind"] == "contragredient"

    code, rep = run_cli(capsys, "verify-auto", auto_file, "--pairs", "40")
    assert code == 0 and rep["verdict"] == "Verified"

    code, rep = run_cli(capsys, "recover", "--group", "sl-r-3", "--auto", auto_file, "--seed", "1")
    assert code == 0
    assert rep["status"] == "Recovered"
    assert rep["auto"]["kind"] == "contragredient"


def test_gallery_feeds_local_check(tmp_path, capsys):
    code, rep = run_cli(capsys, "gallery", "gl-local-not-global", "--n", "3")
    assert code == 0
    assert rep["certificate"]["claim"] == "IsLocalNotGlobal"
    assert rep["verification"]["ok"] is True

    samples_file = tmp_path / "samples.json"
    samples_file.write_text(json.dumps({"group": rep["group"], "samples": rep["samples"]}))
    code, rep2 = run_cli(capsys, "local-check", str(samples_file), "--seed", "7")
    assert code == 0
    assert rep2["status"] == "LocallyConsistent"
    assert rep2["counts"]["Interpolable"] == 3


def test_reports_are_deterministic_modulo_timing(capsys):
    code1, rep1 = run_cli(capsys, "gallery", "additive-r")
    code2, rep2 = run_cli(capsys, "gallery", "additive-r")
    assert code1 == code2 == 0
    rep1.pop("elapsed_s")
    rep2.pop("elapsed_s")
    assert rep1 == rep2


def test_bad_group_is_bad_args(capsys):
    code, rep = run_cli(capsys, "gen-auto", "--group", "sp-r-3")
    assert code == 2 and rep["error"] == "BadArgs"


def test_missing_file_is_bad_args(capsys):
    code, rep = run_cli(capsys, "local-check", "no-such-file.json")
    assert code == 2 and rep["error"] == "BadArgs"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-auto", "--group", "sl-r-3", "-o", "{dir}"],
        ["gen-auto", "--group", "sl-r-3", "--t", "{dir}"],
        ["apply", "--auto", "{dir}", "--in", "{dir}"],
        ["verify-auto", "{dir}"],
        ["local-check", "{dir}"],
        ["recover", "--group", "sl-r-3", "--samples", "{dir}"],
    ],
    ids=lambda argv: argv[0] + " " + argv[-2],
)
def test_a_directory_for_a_file_is_bad_args(tmp_path, capsys, argv):
    code, rep = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert (code, rep) == (2, {"error": "BadArgs", "message": f"{tmp_path}: {os.strerror(errno.EISDIR)}"})


def test_an_oracle_command_that_cannot_run_is_bad_args(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("not a program\n")
    plain.chmod(0o644)
    code, rep = run_cli(capsys, "recover", "--group", "sl-r-3", "--oracle-cmd", str(plain))
    assert (code, rep) == (2, {"error": "BadArgs", "message": f"{plain}: {os.strerror(errno.EACCES)}"})


def test_an_oracle_child_that_closed_its_input_is_residual_fail():
    from localaut.recover import SubprocessOracle

    oracle = SubprocessOracle(GroupTag("SL", "R", 3), [sys.executable, "-c", "pass"])
    oracle.proc.wait()
    with pytest.raises(ResidualFail, match="oracle subprocess closed its input"):
        oracle.query(identity(3, QR))
    oracle.close()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-auto", "--group", "un-3"],
        ["recover", "--group", "sun-3", "--auto", "sun-3.json"],
        ["local-check", "su-3.samples.json"],
        ["selftest", "--only", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_negative_seed_is_bad_args(capsys, argv):
    code, rep = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, rep) == (2, {"error": "BadArgs", "message": "--seed must be at least 0, got -1"})


def test_broken_json_is_file_format(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    code, rep = run_cli(capsys, "local-check", str(bad))
    assert code == 3 and rep["error"] == "FileFormat"


def test_slminus_group_file_is_file_format(tmp_path, capsys):
    """SLminus is no family: a sample file naming it is malformed."""
    path = tmp_path / "slminus.json"
    path.write_text(json.dumps({"group": {"family": "SLminus", "field": "R", "n": 3}, "samples": []}))
    code, rep = run_cli(capsys, "local-check", str(path))
    assert code == 3 and rep["error"] == "FileFormat"


def test_domain_errors_surface_with_their_names(capsys):
    code, rep = run_cli(capsys, "gallery", "sign-twist", "--n", "3")
    assert code == 4 and rep["error"] == "OddN"


@pytest.mark.parametrize(
    "item, error",
    [("gl-local-not-global", "TooFewGenerators"), ("additive-r", "TooFewGenerators"), ("sign-twist", "BadParameters")],
)
def test_gallery_size_zero_is_refused_not_defaulted(capsys, item, error):
    code, rep = run_cli(capsys, "gallery", item, "--n", "0")
    assert code == 4 and rep["error"] == error


def test_selftest_subset(capsys):
    code, rep = run_cli(capsys, "selftest", "--only", "8")
    assert code == 0
    assert rep["all_passed"] is True
    assert [c["number"] for c in rep["criteria"]] == [8]


@pytest.mark.parametrize("only", [",", ""])
def test_selftest_only_selecting_nothing_is_bad_args(capsys, only):
    """An empty selection would report all_passed over zero criteria."""
    code, rep = run_cli(capsys, "selftest", "--only", only)
    assert code == 2 and rep["error"] == "BadArgs"


@pytest.mark.parametrize("only", ["8,8", "3,8,3"])
def test_selftest_only_naming_a_criterion_twice_is_bad_args(capsys, only):
    """A repeated number would run and list its criterion twice."""
    code, rep = run_cli(capsys, "selftest", "--only", only)
    assert code == 2 and rep["error"] == "BadArgs"
    assert "more than once" in rep["message"]


@pytest.fixture
def child_imports_package(monkeypatch):
    """Child processes import the package under test, however pytest found it."""
    src = str(Path(localaut.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _recover_through_child(tmp_path, capsys, tail=""):
    """recover sl-r-3 through a child answering with a fixed automorphism;
    tail runs in the child after its stdin closes."""
    phi = tmp_path / "phi.py"
    phi.write_text(
        "import json, sys\n"
        "from localaut.autos import apply, make_automorphism\n"
        "from localaut.matrices import GroupTag, QR, mat\n"
        "from localaut.serialize import mat_from_json, mat_to_json\n"
        "T = mat([[1, 2, 0], [0, 1, 0], [3, 0, 1]], QR)\n"
        "AUTO = make_automorphism(GroupTag('SL', 'R', 3), 'standard', 'id', T)\n"
        "for line in sys.stdin:\n"
        "    a = mat_from_json(json.loads(line))\n"
        "    print(json.dumps(mat_to_json(apply(AUTO, a))), flush=True)\n" + tail
    )
    code, rep = run_cli(
        capsys, "recover", "--group", "sl-r-3",
        "--oracle-cmd", f"{sys.executable} {phi}", "--seed", "1",
    )
    return code, rep


def test_subprocess_oracle(tmp_path, capsys, child_imports_package):
    code, rep = _recover_through_child(tmp_path, capsys)
    assert code == 0 and rep["status"] == "Recovered"
    assert rep["auto"]["t"]["entries"] == [["1", "2", "0"], ["0", "1", "0"], ["3", "0", "1"]]


def test_lingering_oracle_child_is_killed_after_the_recovery(tmp_path, capsys, child_imports_package):
    start = time.monotonic()
    code, rep = _recover_through_child(tmp_path, capsys, tail="import time\ntime.sleep(12)\n")
    assert time.monotonic() - start < 10
    assert code == 0 and rep["status"] == "Recovered"
    assert rep["auto"]["t"]["entries"] == [["1", "2", "0"], ["0", "1", "0"], ["3", "0", "1"]]


@pytest.mark.parametrize(
    "reply",
    ['"not json {"', 'json.dumps({"regime": "QR"})', "json.dumps([[1, 0], [0, 1]])"],
    ids=["garbage", "no-entries", "bare-list"],
)
def test_malformed_oracle_reply_is_error_json(tmp_path, capsys, reply):
    child = tmp_path / "child.py"
    child.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        f"    print({reply}, flush=True)\n"
    )
    code, rep = run_cli(
        capsys, "recover", "--group", "sl-r-3", "--oracle-cmd", f"{sys.executable} {child}",
    )
    assert code == 4
    assert rep["error"] == "ResidualFail"
    assert "not a matrix" in rep["message"]


def test_stalled_oracle_child_ends_in_error_json(tmp_path, capsys, monkeypatch):
    import localaut.recover as recover

    monkeypatch.setattr(recover, "ORACLE_REPLY_S", 1)
    child = tmp_path / "child.py"
    child.write_text("import sys, time\nsys.stdin.readline()\ntime.sleep(30)\n")
    start = time.monotonic()
    code, rep = run_cli(
        capsys, "recover", "--group", "sl-r-3", "--oracle-cmd", f"{sys.executable} {child}",
    )
    assert time.monotonic() - start < 10
    assert code == 4 and rep["error"] == "ResidualFail"
    assert rep["message"] == "oracle subprocess sent no reply within 1 s"


def test_unparsable_oracle_cmd_is_bad_args(capsys):
    code, rep = run_cli(capsys, "recover", "--group", "sl-r-3", "--oracle-cmd", "'unbalanced")
    assert code == 2 and rep["error"] == "BadArgs"
    assert rep["message"].startswith("cannot parse --oracle-cmd")


def test_selftest_digest_ignores_timings(capsys, monkeypatch):
    import localaut.acceptance as acceptance

    reports = []
    for scale in (0.5, 7.25):
        results = [acceptance.CriterionResult(k, f"criterion {k}", True, "ok", scale * k) for k in (1, 2)]
        monkeypatch.setattr(acceptance, "run_all", lambda seed, numbers=None, results=results: results)
        code, rep = run_cli(capsys, "selftest")
        assert code == 0
        reports.append(rep)
    first, second = reports
    assert first["digest"] == second["digest"]
    assert [c["seconds"] for c in first["criteria"]] == [0.5, 1.0]
    assert [c["seconds"] for c in second["criteria"]] == [7.25, 14.5]


def test_console_script_smoke(child_imports_package):
    """The installed console script, or the module entry point of the
    package under test when the script is not on PATH."""
    import shutil

    exe = shutil.which("localaut")
    cmd = [exe] if exe else [sys.executable, "-m", "localaut.cli"]
    proc = subprocess.run(cmd + ["gallery", "additive-r"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certificate"]["claim"] == "IsLocalNotGlobal"


def test_cold_factoring_commands_load_no_sympy(tmp_path, child_imports_package):
    """recover on GL_n(R) reads determinant relations in-package."""
    auto = str(tmp_path / "auto.json")
    script = (
        "import sys\n"
        "from localaut.cli import main\n"
        f"main(['gen-auto', '--group', 'gl-r-3', '--g', 'power:2', '-o', {auto!r}])\n"
        f"code = main(['recover', '--group', 'gl-r-3', '--auto', {auto!r}])\n"
        "print(code, 'sympy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.stderr.split() == ["0", "False"]


def _gen(capsys, tmp_path, group, *extra):
    path = str(tmp_path / f"{group}.json")
    code, _ = run_cli(capsys, "gen-auto", "--group", group, *extra, "--seed", "5", "-o", path)
    assert code == 0
    return path


def test_recover_even_sl_real_uses_the_shear_engine(tmp_path, capsys):
    auto_file = _gen(capsys, tmp_path, "sl-r-4")
    code, rep = run_cli(capsys, "recover", "--group", "sl-r-4", "--auto", auto_file, "--seed", "1")
    assert code == 0
    assert (rep["status"], rep["engine"], rep["probes_used"]) == ("Recovered", "sln_common", 63)


def test_recover_gl_complex_has_no_engine(tmp_path, capsys):
    auto_file = _gen(capsys, tmp_path, "gl-c-3")
    code, rep = run_cli(capsys, "recover", "--group", "gl-c-3", "--auto", auto_file, "--seed", "1")
    assert code == 2
    assert rep == {"error": "BadArgs", "message": "no recovery engine for gl-c-3"}


@pytest.mark.parametrize(
    "group, gen_extra, rec_extra, digest",
    [
        ("sl-r-3", ["--kind", "contragredient"], [],
         "ac302a08a5e57a5be3aeb40a5e1a6157cdae76510e84314cb1deb42fa15f88ab"),
        ("sl-c-3", ["--sigma", "conj"], [],
         "e26aff69f78ce153c69c8797c9e4a6d7b3d1ef30e5a2862d05b6c5b7938b93aa"),
        ("gl-r-3", ["--g", "power:2"], ["--dets", "2,3,-5"],
         "91f70a68680ae5605f35080f033514cf2bd0201b01fe30d5847d0457ffbe9217"),
    ],
)
def test_exact_recover_digests_are_pinned(tmp_path, capsys, group, gen_extra, rec_extra, digest):
    auto_file = _gen(capsys, tmp_path, group, *gen_extra)
    code, rep = run_cli(
        capsys, "recover", "--group", group, "--auto", auto_file, "--seed", "1", *rec_extra
    )
    assert code == 0 and rep["status"] == "Recovered"
    assert rep["digest"] == digest


def test_budget_stop_reports_partial_progress(tmp_path, capsys):
    auto_file = _gen(capsys, tmp_path, "gl-r-3", "--g", "power:2")
    code, rep = run_cli(
        capsys, "recover", "--group", "gl-r-3", "--auto", auto_file, "--seed", "1", "--budget", "4"
    )
    assert code == 4 and rep["error"] == "BudgetExceeded"
    assert rep["partial"] == {"engine": "glnr", "probes_used": 4}


def test_unset_budget_is_the_default_and_one_probe_is_a_budget(tmp_path, capsys, monkeypatch):
    oracles = []

    class Recording(localaut.recover.AutomorphismOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            oracles.append(self)

    monkeypatch.setattr(localaut.recover, "AutomorphismOracle", Recording)
    auto_file = _gen(capsys, tmp_path, "gl-r-3", "--g", "power:2")
    code, rep = run_cli(capsys, "recover", "--group", "gl-r-3", "--auto", auto_file)
    assert code == 0 and rep["status"] == "Recovered"
    assert oracles[0].budget == 10 * 3**2 + 200
    code, rep = run_cli(capsys, "recover", "--group", "gl-r-3", "--auto", auto_file, "--budget", "1")
    assert code == 4 and rep["error"] == "BudgetExceeded"
    assert rep["partial"]["probes_used"] == 1


def test_circle_power_with_a_sign_twist_is_file_format(tmp_path, capsys):
    """The sign twist lives on R*; on the circle it would be ignored by
    evaluation yet written back by serialization."""
    obj = load_json(_gen(capsys, tmp_path, "un-3", "--g", "circle-power:0"))
    assert obj["g"] == {"type": "power", "ambient": "Circle", "c": "0", "neg": "same"}
    obj["g"]["neg"] = "flip"
    path = str(tmp_path / "flip.json")
    dump_json(path, obj)
    code, rep = run_cli(capsys, "verify-auto", path)
    assert code == 3 and rep["error"] == "FileFormat"
    assert "sign twist" in rep["message"]


def test_circle_lattice_character_is_file_format(tmp_path, capsys):
    """U_n characters travel as `power` or `circletable`; the retired
    `circlehom` wire type is an unknown scalar map type."""
    obj = load_json(_gen(capsys, tmp_path, "un-3", "--g", "circle-power:0"))
    obj["g"] = {
        "type": "circlehom",
        "generators": [{"label": "z", "angle": None, "witness": [0.5403023058681398, 0.8414709848078965]}],
        "images": [[0]],
    }
    auto_file, in_file = str(tmp_path / "circlehom.json"), str(tmp_path / "in.json")
    dump_json(auto_file, obj)
    dump_json(in_file, mat_to_json(identity(3, C64)))
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", in_file)
    assert code == 3 and rep["error"] == "FileFormat"
    assert "circlehom" in rep["message"]


def test_table_breaking_a_relation_among_the_dets_is_refused(tmp_path, capsys):
    """A GL_3(R) file whose table g(2) = 2, g(3) = 9, g(6) = 6 passes every
    pair screen but breaks g(2) g(3) = g(6) names no automorphism."""
    obj = load_json(_gen(capsys, tmp_path, "gl-r-3", "--g", "power:1"))
    points = tuple((Fraction(d), Fraction(v)) for d, v in ((2, 2), (3, 9), (6, 6)))
    obj["g"] = mulfunc_to_json(TableFunc(points))
    auto_file, in_file = str(tmp_path / "table.json"), str(tmp_path / "in.json")
    dump_json(auto_file, obj)
    dump_json(in_file, mat_to_json(diag_first(3, Fraction(6), QR)))
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", in_file)
    assert (code, rep["error"]) == (4, "IllegalScalarClass")
    assert "relation {'2': -1, '3': -1, '6': 1}" in rep["message"]


def test_table_whose_f_is_not_injective_is_refused(tmp_path, capsys):
    """g(2/5) = 2/3, g(5/3) = 5/2, g(30) = 3/10 on GL_3(R) passes every
    point, pair and det relation, but f(2/5)^14 f(5/3)^10 f(30)^13 = 1."""
    obj = load_json(_gen(capsys, tmp_path, "gl-r-3", "--g", "power:1"))
    points = tuple((Fraction(d), Fraction(v)) for d, v in (("2/5", "2/3"), ("5/3", "5/2"), (30, "3/10")))
    obj["g"] = mulfunc_to_json(TableFunc(points))
    auto_file, in_file = str(tmp_path / "table.json"), str(tmp_path / "in.json")
    dump_json(auto_file, obj)
    dump_json(in_file, mat_to_json(diag_first(3, Fraction(30), QR)))
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", in_file)
    assert (code, rep["error"]) == (4, "IllegalScalarClass")
    assert "relation {'2/5': 14, '5/3': 10, '30': 13}" in rep["message"]


@pytest.mark.parametrize(
    "group, table, identity_regime, reason",
    [
        ("gl-c-3", TableFunc(((GaussRational(1), GaussRational(2)),), CSTAR), QC,
         "f must preserve the torsion order of 1+0i"),
        ("un-3", TableFunc(((1 + 0j, cmath.exp(0.5j)),), CIRCLE), C64, "f(1) must be 1"),
    ],
    ids=["gausstable", "circletable"],
)
def test_table_off_the_class_at_one_is_refused(tmp_path, capsys, group, table, identity_regime, reason):
    """A gausstable g(1) = 2 on GL_3(C) with T = I would map I to 2I, and a
    circletable g(1) = e^{0.5i} on U_3 would give f(1) = e^{1.5i}; the class
    screen refuses both files before anything is applied."""
    obj = load_json(_gen(capsys, tmp_path, group))
    obj["t"] = mat_to_json(identity(3, identity_regime))
    obj["g"] = mulfunc_to_json(table)
    auto_file, in_file = str(tmp_path / "table.json"), str(tmp_path / "in.json")
    dump_json(auto_file, obj)
    dump_json(in_file, mat_to_json(identity(3, identity_regime)))
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", in_file)
    assert (code, rep["error"], rep["message"]) == (4, "IllegalScalarClass", reason)


@pytest.mark.parametrize(
    "spec, code, error",
    [
        ("power:x", 2, "BadArgs"),
        ("power:1:bogus", 2, "BadArgs"),
        ("circle-power:1/2", 2, "BadArgs"),
        ("powerconj:1/2:1", 2, "BadArgs"),
        ("power:-1/4", 4, "IllegalScalarClass"),
    ],
)
def test_malformed_scalar_specs_are_bad_args(capsys, spec, code, error):
    """A spec that no character constructor accepts is a command line
    error; a well-formed character outside the group's class is not."""
    got, rep = run_cli(capsys, "gen-auto", "--group", "gl-r-4", "--g", spec)
    assert (got, rep["error"]) == (code, error)


@pytest.mark.parametrize(
    "group, dets, message",
    [
        ("gl-r-3", "2,2", "--dets names a determinant more than once: '2,2'"),
        ("gl-r-3", "2,3,4/2", "--dets names a determinant more than once: '2,3,4/2'"),
        ("sl-r-3", "2,3", "--dets feeds the determinant probes of gl-r-n only"),
        ("un-3", "2", "--dets feeds the determinant probes of gl-r-n only"),
    ],
)
def test_dets_that_check_nothing_are_bad_args(tmp_path, capsys, group, dets, message):
    auto_file = _gen(capsys, tmp_path, group)
    code, rep = run_cli(capsys, "recover", "--group", group, "--auto", auto_file, "--dets", dets)
    assert code == 2 and rep == {"error": "BadArgs", "message": message}


def test_a_det_list_starting_with_a_minus_sign_parses_in_every_spelling(tmp_path, capsys):
    auto_file = _gen(capsys, tmp_path, "gl-r-3", "--g", "power:1")
    reports = []
    for dets in (["--dets", "-1,2"], ["--dets=-1,2"], ["--det", "-1,2"], ["--d", "-1,2"]):
        code, rep = run_cli(capsys, "recover", "--group", "gl-r-3", "--auto", auto_file, *dets)
        assert (code, rep["status"]) == (0, "Recovered")
        rep.pop("elapsed_s")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_recover_with_an_empty_det_list_is_refused(tmp_path, capsys):
    """`--dets ,` would leave every verification probe at det 1."""
    auto_file = _gen(capsys, tmp_path, "gl-r-3", "--g", "power:1")
    code, rep = run_cli(capsys, "recover", "--group", "gl-r-3", "--auto", auto_file, "--dets", ",")
    assert code == 4 and rep["error"] == "BadParameters"
    assert "at least one determinant probe" in rep["message"]


@pytest.mark.parametrize(
    "command, group, option, value",
    [
        ("verify-auto", "gl-r-3", "--pairs", "0"),
        ("verify-auto", "gl-r-3", "--pairs", "-3"),
        ("recover", "gl-r-3", "--verify-probes", "-1"),
        ("recover", "sl-r-3", "--verify-probes", "0"),
        ("recover", "un-3", "--tol", "-1"),
        ("recover", "gl-r-3", "--tol", "nan"),
        ("recover", "gl-r-3", "--budget", "0"),
        ("recover", "sl-r-3", "--budget", "-1"),
    ],
)
def test_numeric_options_that_check_nothing_are_bad_args(tmp_path, capsys, command, group, option, value):
    auto_file = _gen(capsys, tmp_path, group)
    args = [auto_file] if command == "verify-auto" else ["--group", group, "--auto", auto_file]
    if option == "--tol":
        # no command takes a tolerance any more, so argparse refuses the option itself
        with pytest.raises(SystemExit) as stop:
            main([command, *args, option, value])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
        return
    code, rep = run_cli(capsys, command, *args, option, value)
    assert code == 2 and rep["error"] == "BadArgs"
    assert rep["message"].startswith(option)


@pytest.mark.parametrize(
    "group, gen_extra, table, digest",
    [
        ("gl-c-3", ["--g", "powerconj:1:1"], "gausstable",
         "7013b7b150c275b8aeaec55497f141482c83096c971fb795892bccf03cbbc597"),
        ("gl-r-3", ["--g", "power:2", "--kind", "contragredient"], "table",
         "08e38e307d5dc6d5f86479d4d375ffc82f82c130dd29408d98fb1616fb1031b1"),
        ("gl-c-3", ["--g", "powerconj:1:1", "--sigma", "conj"], "gausstable",
         "274c7062a5d2980291397d21d8c161a9eac7198ccddf8f42ccd024534de6949c"),
        ("gl-c-3", ["--g", "powerconj:1:1", "--sigma", "conj", "--kind", "contragredient"], "gausstable",
         "46d414910426552ef4b00276c852fd86dfcc5e6aa9041c80e5f1bfa4a1e6ab0c"),
    ],
)
def test_exact_local_check_digests_are_pinned(tmp_path, capsys, group, gen_extra, table, digest):
    auto = auto_from_json(load_json(_gen(capsys, tmp_path, group, *gen_extra)))
    rng = random.Random(3)
    mats = [random_gl(3, auto.t.regime, rng) for _ in range(3)]
    samples_file = str(tmp_path / "samples.json")
    dump_json(samples_file, samples_to_json(samples_from_automorphism(auto, mats)))
    code, rep = run_cli(capsys, "local-check", samples_file, "--seed", "1")
    assert code == 0 and rep["status"] == "LocallyConsistent"
    assert {p["witness"]["g"]["type"] for p in rep["pairs"]} == {table}
    assert rep["digest"] == digest


_T_C64 = mat([[1 + 0.5j, 0, 2], [0, 1, -1j], [0.5, 0, 1]], C64)
_T_QC_UNITARY = mat(
    [[GaussRational(0, 0), GaussRational(1, 0), GaussRational(0, 0)],
     [GaussRational(0, 1), GaussRational(0, 0), GaussRational(0, 0)],
     [GaussRational(0, 0), GaussRational(0, 0), GaussRational(1, 0)]],
    QC,
)


@pytest.mark.parametrize(
    "group, t, gen_extra",
    [
        ("gl-c-3", _T_C64, ["--g", "powerconj:1:1", "--sigma", "conj"]),
        ("un-3", _T_QC_UNITARY, ["--sigma", "conj"]),
        ("sun-3", _T_QC_UNITARY, []),
    ],
    ids=["gl-c-3-c64", "un-3-qc", "sun-3-qc"],
)
def test_verify_auto_across_regimes(tmp_path, capsys, group, t, gen_extra):
    """T in the other regime of C than the group's samples: checked in C64."""
    t_file = str(tmp_path / "t.json")
    dump_json(t_file, mat_to_json(t))
    auto_file = _gen(capsys, tmp_path, group, "--t", t_file, *gen_extra)
    code, rep = run_cli(capsys, "verify-auto", auto_file, "--pairs", "24")
    assert code == 0
    assert (rep["verdict"], rep["failed_pairs"]) == ("Verified", [])


def _scaled_map_file(tmp_path, group, regime, dets, scale):
    """A sample map A -> scale * A on matrices of the given determinants."""
    rng = random.Random(1)
    n = parse_group(group).n
    mats = [mul(random_sl(n, regime, rng), diag_first(n, coerce_scalar(regime, d), regime)) for d in dets]
    path = str(tmp_path / "scaled.json")
    pairs = tuple((a, smul(coerce_scalar(regime, scale), a)) for a in mats)
    dump_json(path, samples_to_json(SampleMap(parse_group(group), pairs)))
    return path


@pytest.mark.parametrize(
    "group, regime, dets, code, field, value",
    [
        ("gl-r-3", QR, [2, 3], 0, "status", "LocallyConsistent"),
        ("gl-c-3", QC, [2, GaussRational(1, -1)], 0, "status", "Obstructed"),
    ],
)
def test_local_check_beyond_float_range(tmp_path, capsys, group, regime, dets, code, field, value):
    """Outputs 2^400 times their inputs: the trace scalars are exact
    integers far past the float range. Over C the pair is a certificate:
    2 = i (1 - i)^2 with i torsion, so |f(2)| = |f(1 - i)|^2 for the
    induced f(d) = g(d)^3 d, yet g = 2^400 at both gives 2^1201 != 2^2401."""
    samples_file = _scaled_map_file(tmp_path, group, regime, dets, 2**400)
    got, rep = run_cli(capsys, "local-check", samples_file)
    assert (got, rep[field]) == (code, value)


def test_local_check_c64_ratio_beyond_float_range(tmp_path, capsys):
    """diag(1e300, 1, 1) -> diag(1e300 + 1e300 i, 1, 1): the contragredient
    determinant ratio is infinite, so that branch has no scalar candidates."""
    pairs = tuple(
        (diag_first(3, x, C64), diag_first(3, y, C64)) for x, y in ((1e300, 1e300 + 1e300j), (2.0, 2.0))
    )
    path = str(tmp_path / "huge.json")
    dump_json(path, samples_to_json(SampleMap(GroupTag("GL", "C", 3), pairs)))
    code, rep = run_cli(capsys, "local-check", path)
    assert code == 0
    assert [p["status"] for p in rep["pairs"]] == ["Inconclusive"]


def test_apply_square_root_character_beyond_float_range(tmp_path, capsys):
    group = GroupTag("GL", "R", 3)
    auto = make_automorphism(group, STANDARD, SIGMA_ID, identity(3, QR), PowerFunc(Fraction(1, 2)))
    auto_file, in_file = str(tmp_path / "auto.json"), str(tmp_path / "in.json")
    dump_json(auto_file, auto_to_json(auto))
    a = diag_first(3, Fraction(2**1100), QR)
    dump_json(in_file, mat_to_json(a))
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", in_file)
    assert code == 0
    assert equal(mat_from_json(rep["images"][0]), smul(Fraction(2**550), a))


def _power_auto_file(tmp_path, c):
    """GL_3(R), T = I, g = |t|^c."""
    auto = make_automorphism(GroupTag("GL", "R", 3), STANDARD, SIGMA_ID, identity(3, QR), PowerFunc(Fraction(c)))
    path = str(tmp_path / f"power-{c}.json")
    dump_json(path, auto_to_json(auto))
    return path


def _mat_file(tmp_path, name, a):
    """A matrix file holding a, or the list a of matrices."""
    path = str(tmp_path / name)
    dump_json(path, [mat_to_json(m) for m in a] if isinstance(a, list) else mat_to_json(a))
    return path


def test_exact_values_past_the_int_digit_limit_print(tmp_path, capsys):
    """g = |t|^20000 at det 2 gives entries of over 6,000 digits, past
    Python's default int-to-str limit of 4,300; apply and recover print them,
    and the limit is back in force once main returns. Such an output is past
    the input literal ceiling, so it is read here as text."""
    auto_file = _power_auto_file(tmp_path, 20000)
    a = diag_first(3, Fraction(2), QR)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", _mat_file(tmp_path, "in.json", a))
        assert sys.get_int_max_str_digits() == 5000
        assert code == 0
        entries = rep["images"][0]["entries"]
        sys.set_int_max_str_digits(0)
        assert [entries[0][0], entries[1][1], entries[0][1]] == [str(2**20001), str(2**20000), "0"]
    finally:
        sys.set_int_max_str_digits(limit)
    code, rep = run_cli(capsys, "recover", "--group", "gl-r-3", "--auto", auto_file, "--dets", "2")
    assert (code, rep["status"]) == (0, "Recovered")


def test_a_power_past_the_bit_ceiling_is_refused_before_it_is_computed(tmp_path, capsys):
    """2^(10^10) would take minutes and gigabytes; g at det 2 is refused at
    once, while g at det +-1 still evaluates."""
    auto_file = _power_auto_file(tmp_path, 10**10)
    a = diag_first(3, Fraction(2), QR)
    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", _mat_file(tmp_path, "in.json", a))
    assert time.perf_counter() - t0 < 1.0
    assert (code, rep["error"]) == (4, "BadParameters")
    assert str(MAX_POWER_BITS) in rep["message"]
    ones = [identity(3, QR), diag_first(3, Fraction(-1), QR)]
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", _mat_file(tmp_path, "ones.json", ones))
    assert code == 0
    assert [mat_from_json(m) for m in rep["images"]] == ones


@pytest.mark.parametrize(
    "k", [3000, Fraction(3001, 2), 1000, -1000], ids=["z^k-conj-z^m", "abs-z^2k", "product", "underflow"]
)
def test_a_c64_power_past_the_float_range_is_bad_parameters(tmp_path, capsys, k):
    """g(z) = z^3000 conj(z)^3000, or |z|^3001, at det 2 is far past the
    largest float: apply ends in BadParameters (exit 4), not an
    OverflowError traceback. At k = m = 1000 each power is a float but
    their product is not, and apply printed Infinity and NaN entries; at
    k = m = -1000 the value underflows to 0, and apply printed the zero
    matrix."""
    auto = make_automorphism(GroupTag("GL", "C", 3), STANDARD, SIGMA_ID, identity(3, C64), PowerConjFunc(k, k))
    auto_file = str(tmp_path / "auto.json")
    dump_json(auto_file, auto_to_json(auto))
    in_file = _mat_file(tmp_path, "in.json", diag_first(3, 2.0, C64))
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", in_file)
    assert (code, rep) == (4, {"error": "BadParameters", "message": "g's value at (2+0j) leaves the machine float range"})
    assert "Traceback" not in capsys.readouterr().err


def test_powers_under_the_bit_ceiling_are_computed(tmp_path, capsys):
    """g = |t|^100000 reaches 400,000 bits at the det 16 products of
    verify-auto's pool, under MAX_POWER_BITS, and is checked; apply of
    diag(6, 1, 1) evaluates 6^100000, about 258,500 bits."""
    auto_file = _power_auto_file(tmp_path, 100000)
    code, rep = run_cli(capsys, "verify-auto", auto_file, "--pairs", "4")
    assert (code, rep["verdict"]) == (0, "Verified")
    a = diag_first(3, Fraction(6), QR)
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", _mat_file(tmp_path, "in.json", a))
    assert code == 0
    assert rep["images"][0]["entries"][0][1] == "0"


def test_literals_past_the_digit_ceiling_are_file_format(tmp_path, capsys):
    """A group n of 5,001 digits, as a JSON number or a string, and a matrix
    entry of 4,301 characters."""
    samples_file = str(tmp_path / "samples.json")
    for n, message in (("9" * 5001, "5001 digits"), ('"' + "9" * 5001 + '"', "bad group object")):
        with open(samples_file, "w") as fh:
            fh.write('{"group": {"family": "GL", "field": "R", "n": ' + n + '}, "samples": []}')
        code, rep = run_cli(capsys, "local-check", samples_file)
        assert (code, rep["error"]) == (3, "FileFormat")
        assert message in rep["message"]
    obj = mat_to_json(identity(3, QR))
    obj["entries"][0][0] = "1" + "0" * (MAX_LITERAL)
    in_file = str(tmp_path / "in.json")
    dump_json(in_file, obj)
    code, rep = run_cli(capsys, "apply", "--auto", _power_auto_file(tmp_path, 1), "--in", in_file)
    assert (code, rep["error"]) == (3, "FileFormat")
    obj["entries"][0][0] = "1" + "0" * (MAX_LITERAL - 1)
    dump_json(in_file, obj)
    code, rep = run_cli(capsys, "apply", "--auto", _power_auto_file(tmp_path, 1), "--in", in_file)
    assert code == 0


HUGE = "1e1000000000"  # twelve characters for 10^(10^9)


def test_exponent_literals_are_refused_at_once(tmp_path, capsys):
    """An exponent form is short but its value is not: as a file entry, a
    power c or an option it ends in FileFormat or BadArgs without being
    computed."""
    t0 = time.perf_counter()
    obj = mat_to_json(identity(3, QR))
    obj["entries"][0][0] = HUGE
    in_file = str(tmp_path / "in.json")
    dump_json(in_file, obj)
    code, rep = run_cli(capsys, "apply", "--auto", _power_auto_file(tmp_path, 1), "--in", in_file)
    assert (code, rep["error"]) == (3, "FileFormat")
    obj = json.loads(Path(_power_auto_file(tmp_path, 1)).read_text())
    obj["g"]["c"] = HUGE
    auto_file = str(tmp_path / "huge.json")
    dump_json(auto_file, obj)
    code, rep = run_cli(capsys, "verify-auto", auto_file)
    assert (code, rep["error"]) == (3, "FileFormat")
    code, rep = run_cli(capsys, "gen-auto", "--group", "gl-r-3", "--g", "power:" + HUGE)
    assert (code, rep["error"]) == (2, "BadArgs")
    code, rep = run_cli(capsys, "recover", "--group", "gl-r-3", "--auto", _power_auto_file(tmp_path, 1), "--dets", HUGE)
    assert (code, rep["error"]) == (2, "BadArgs")
    assert time.perf_counter() - t0 < 2.0


def test_numeric_entries_past_the_float_range_are_file_format(tmp_path, capsys):
    """A C64 entry given as an integer past the float range."""
    obj = mat_to_json(identity(3, C64))
    obj["entries"][0][0] = [10**400, 0]
    in_file = str(tmp_path / "in.json")
    dump_json(in_file, obj)
    auto = make_automorphism(GroupTag("GL", "C", 3), STANDARD, SIGMA_ID, identity(3, C64), None)
    auto_file = str(tmp_path / "auto.json")
    dump_json(auto_file, auto_to_json(auto))
    code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", in_file)
    assert (code, rep["error"]) == (3, "FileFormat")


def test_local_check_numeric_gl_complex_map(tmp_path, capsys):
    """C64 samples give numeric C* witness tables, written as [re, im] pairs
    under the gausstable wire type."""
    t_file = str(tmp_path / "t.json")
    dump_json(t_file, mat_to_json(_T_C64))
    auto = auto_from_json(load_json(_gen(capsys, tmp_path, "gl-c-3", "--t", t_file, "--g", "powerconj:1:1")))
    rng = random.Random(3)
    samples_file = str(tmp_path / "samples.json")
    mats = [to_c64(random_gl(3, QC, rng)) for _ in range(3)]
    dump_json(samples_file, samples_to_json(samples_from_automorphism(auto, mats)))
    code, rep = run_cli(capsys, "local-check", samples_file, "--seed", "1")
    assert (code, rep["status"]) == (0, "LocallyConsistent")
    tables = [p["witness"]["g"] for p in rep["pairs"]]
    assert {t["type"] for t in tables} == {"gausstable"}
    for t in tables:
        g = mulfunc_from_json(t)
        assert all(isinstance(x, complex) for point in g.points for x in point)
        assert mulfunc_to_json(g) == t


def test_recover_reads_relations_among_determinants_beyond_10_to_the_40(tmp_path, capsys):
    auto_file = str(tmp_path / "auto.json")
    code, _ = run_cli(capsys, "gen-auto", "--group", "gl-r-3", "--g", "power:2", "--seed", "1", "-o", auto_file)
    assert code == 0
    big = 10**41 + 3
    code, rep = run_cli(
        capsys, "recover", "--group", "gl-r-3", "--auto", auto_file, "--dets", f"2,{big},3", "--seed", "1",
    )
    assert code == 0 and rep["status"] == "Recovered"
    assert rep["g_points"] == [["2", "4"], [str(big), str(big**2)], ["3", "9"]]


def test_un_recovery_writes_every_circle_point_as_a_re_im_pair(tmp_path, capsys):
    """g_points and f_table carry circle points in the [re, im] form of C64 entries."""
    auto_file = _gen(capsys, tmp_path, "un-3")
    code, rep = run_cli(capsys, "recover", "--group", "un-3", "--auto", auto_file, "--seed", "1")
    assert code == 0 and rep["status"] == "Recovered"
    points = [x for table in ("g_points", "f_table") for pair in rep[table] for x in pair]
    assert len(points) == 4
    assert all(isinstance(x, list) and len(x) == 2 and all(isinstance(v, float) for v in x) for x in points)


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--auto", "a.json", "--in", "m.json", "--budget", "3"],
        ["apply", "--auto", "a.json", "--in", "m.json", "--seed", "3"],
        ["gallery", "additive-r", "--tol", "1e-6"],
        ["selftest", "--budget", "3"],
        ["gen-auto", "--group", "un-3", "--tol", "1e-6"],
        ["apply", "--auto", "a.json", "--in", "m.json", "--tol", "1e-6"],
        ["verify-auto", "a.json", "--tol", "1e-6"],
        ["local-check", "s.json", "--tol", "1e-6"],
    ],
    ids=[
        "apply-budget", "apply-seed", "gallery-tol", "selftest-budget",
        "gen-auto-tol", "apply-tol", "verify-auto-tol", "local-check-tol",
    ],
)
def test_unread_options_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]


def _c64_text(token: str) -> str:
    """The JSON text of the C64 identity with entry (0, 0) read as token."""
    obj = mat_to_json(identity(3, C64))
    obj["entries"][0][0] = ["X", 0]
    return json.dumps(obj).replace('"X"', token)


def _refused_as_file_format(capsys, *argv) -> None:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert (code, json.loads(out)["error"]) == (3, "FileFormat")
    assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("token", _NON_FINITE)
@pytest.mark.parametrize("group", ["gl-c-3", "sl-c-3"])
def test_non_finite_t_is_file_format(tmp_path, capsys, group, token):
    """JSON NaN, Infinity and 1e999 parse as floats; as an entry of T they
    would print NaN or Infinity, which is not JSON."""
    t_file = tmp_path / "t.json"
    t_file.write_text(_c64_text(token))
    _refused_as_file_format(capsys, "gen-auto", "--group", group, "--t", str(t_file))


@pytest.mark.parametrize("token", _NON_FINITE)
def test_non_finite_sample_is_file_format(tmp_path, capsys, token):
    in_file = tmp_path / "in.json"
    in_file.write_text(_c64_text(token))
    _refused_as_file_format(capsys, "apply", "--auto", _gen(capsys, tmp_path, "gl-c-3"), "--in", str(in_file))
    one = json.dumps(mat_to_json(identity(3, C64)))
    samples_file = tmp_path / "samples.json"
    samples_file.write_text(
        '{"group": {"family": "GL", "field": "C", "n": 3}, "samples": [[%s, %s]]}' % (_c64_text(token), one)
    )
    _refused_as_file_format(capsys, "local-check", str(samples_file))


@pytest.mark.parametrize(
    "group, gspec, message",
    [
        ("gl-c-3", "power:2", "GL over C supports the |z|^(2k) family here"),
        ("gl-c-3", "powerconj:1:2", "g(z) = z^k conj(z)^m needs k = m for f to stay bijective"),
        ("gl-c-3", "powerconj:-1/6:-1/6", "f collapses all magnitudes: |z|^0"),
        ("gl-r-3", "circle-power:1", "GL over R needs a scalar map on R*"),
        ("un-3", "power:1", "U_n needs a scalar map on the circle"),
    ],
)
def test_gen_auto_refuses_a_character_outside_its_class(capsys, group, gspec, message):
    got = run_cli(capsys, "gen-auto", "--group", group, "--g", gspec)
    assert got == (4, {"error": "IllegalScalarClass", "message": message})


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gallery", "bogus"], "unknown gallery item 'bogus'; have gl-local-not-global, additive-r, sign-twist"),
        (
            ["recover", "--group", "gl-r-3", "--auto", "{auto}", "--samples", "{samples}"],
            "recover needs exactly one of --samples, --oracle-cmd, --auto",
        ),
        (["recover", "--group", "sl-r-3", "--samples", "{samples}"], "sample file is for GL-R-3, not sl-r-3"),
        (["recover", "--group", "sl-r-3", "--auto", "{auto}"], "automorphism file group does not match --group"),
    ],
    ids=["gallery-item", "two-oracles", "samples-group", "auto-group"],
)
def test_bad_args_refusals(tmp_path, capsys, argv, message):
    auto_file = _gen(capsys, tmp_path, "gl-r-3")
    auto = auto_from_json(load_json(auto_file))
    samples_file = str(tmp_path / "samples.json")
    dump_json(samples_file, samples_to_json(samples_from_automorphism(auto, [random_gl(3, QR, random.Random(1))])))
    argv = [a.format(auto=auto_file, samples=samples_file) for a in argv]
    assert run_cli(capsys, *argv) == (2, {"error": "BadArgs", "message": message})


def test_apply_and_recover_write_the_file_they_name(tmp_path, capsys):
    auto_file = _gen(capsys, tmp_path, "sl-r-3")
    a = random_sl(3, QR, random.Random(2))
    for name, payload in (("one.json", mat_to_json(a)), ("list.json", [mat_to_json(a)])):
        in_file, out_file = str(tmp_path / name), str(tmp_path / f"images-{name}")
        dump_json(in_file, payload)
        code, rep = run_cli(capsys, "apply", "--auto", auto_file, "--in", in_file, "-o", out_file)
        assert (code, rep["written_to"]) == (0, out_file)
        assert load_json(out_file) == (rep["images"] if isinstance(payload, list) else rep["images"][0])
    rec_file = str(tmp_path / "recovered.json")
    code, rep = run_cli(capsys, "recover", "--group", "sl-r-3", "--auto", auto_file, "-o", rec_file)
    assert (code, rep["status"], rep["written_to"]) == (0, "Recovered", rec_file)
    assert load_json(rec_file) == rep["auto"]
    recovered, truth = (auto_from_json(load_json(f)) for f in (rec_file, auto_file))
    assert equal(apply(recovered, a), apply(truth, a))
