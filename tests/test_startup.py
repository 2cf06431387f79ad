"""What a cold process loads, and the names the package root keeps.

The package root imports a submodule on first access to one of its names,
and the command line imports the recovery, local-check and gallery modules
inside the subcommands that run them. So a cold `gen-auto`, `apply` or
`verify-auto` compiles only the core modules. Each start-up check runs in a
fresh interpreter, since this one has long loaded every module.
"""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import localaut

SRC = Path(localaut.__file__).resolve().parent.parent
ORACLE_CHILD = SRC.parent / "perfbench" / "oracle_child.py"

CORE = {"autos", "errors", "exactlinalg", "matrices", "mullattice", "scalarmaps", "scalars", "serialize"}
LATE = {"recover", "similarity", "localcheck", "gallery", "acceptance"}

PUBLIC = [
    "Automorphism", "AutomorphismOracle", "Basis", "C64", "CIRCLE", "CONTRAGREDIENT", "CSTAR",
    "Certificate", "FunctionOracle", "GALLERY", "GalleryEntry", "GroupTag", "LatticeFunc",
    "LocalautError", "MapReport", "Mat", "Oracle", "PairVerdict", "PowerConjFunc", "PowerFunc", "QC",
    "QR", "RSTAR", "RecoveryReport", "SIGMA_CONJ", "SIGMA_ID", "STANDARD", "SampleMap",
    "SampleOracle", "SubprocessOracle", "TableFunc", "additive_r", "apply", "auto_from_json",
    "auto_to_json", "autos", "build_basis", "build_entry", "canonical_json", "charpoly",
    "check_character", "check_map", "check_pair", "close", "default_budget", "det",
    "det_relation_refutations", "dump_json", "equal", "errors", "evaluate", "exactlinalg", "gallery",
    "gl_local_not_global", "group_from_json", "group_to_json", "identity", "inv", "load_json",
    "localcheck", "make_automorphism", "mat", "mat_from_json", "mat_to_json", "matrices", "member",
    "mul", "mulfunc_from_json", "mulfunc_to_json", "mullattice", "pretty_json", "random_gl",
    "random_sl", "random_su", "random_unitary", "recover", "recover_glnr", "recover_sln_common",
    "recover_slnr_short", "recover_sun", "recover_un", "samples_from_automorphism",
    "samples_from_json", "samples_to_json", "scalarmaps", "scalars", "serialize", "sha256_digest",
    "sign_twist", "similarity", "simultaneous_similarity", "smul", "trace", "transpose",
    "unitary_intertwiner", "verify_entry",
]

# prints the package modules (without the "localaut." prefix) and whether
# numpy is loaded, as one JSON line
REPORT = (
    "import json, sys\n"
    "def loaded():\n"
    "    mods = sorted(m.partition('.')[2] or m for m in sys.modules if m.split('.')[0] == 'localaut')\n"
    "    return {'localaut': mods, 'numpy': 'numpy' in sys.modules}\n"
)


def _fresh(code: str, cwd) -> list:
    """Run code in a cold interpreter on this package; the JSON lines it
    prints after a line `---`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", REPORT + code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.split("---\n", 1)[1].splitlines()]


def test_cold_import_loads_the_core_modules_only(tmp_path):
    first, cli = _fresh(
        "import localaut\n"
        "print('---'); print(json.dumps(loaded()))\n"
        "import localaut.cli\n"
        "print(json.dumps(loaded()))\n",
        tmp_path,
    )
    assert first == {"localaut": ["localaut"], "numpy": False}
    assert cli == {"localaut": sorted(CORE | {"localaut", "cli"}), "numpy": False}


def test_oracle_child_import_line_loads_no_engine(tmp_path):
    """The benchmark's oracle child imports five names from the package root."""
    tree = ast.parse(ORACLE_CHILD.read_text())
    (line,) = [ast.unparse(node) for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "localaut"]
    assert line.startswith("from localaut import apply, auto_from_json")
    (state,) = _fresh(f"{line}\nprint('---'); print(json.dumps(loaded()))\n", tmp_path)
    assert {"autos", "serialize"} <= set(state["localaut"])
    assert set(state["localaut"]) & LATE == set()


def test_core_subcommands_leave_recovery_unloaded_and_recover_loads_it(tmp_path):
    entries = [["2", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    (tmp_path / "a.json").write_text(json.dumps({"regime": "QR", "entries": entries}))
    states = _fresh(
        "import contextlib, io\n"
        "from localaut.cli import main\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(list(argv)) == 0, argv\n"
        "    return loaded()\n"
        "steps = [\n"
        "    run('gen-auto', '--group', 'gl-r-3', '--seed', '1', '--g', 'power:2', '-o', 'auto.json'),\n"
        "    run('apply', '--auto', 'auto.json', '--in', 'a.json'),\n"
        "    run('verify-auto', 'auto.json', '--pairs', '4'),\n"
        "    run('recover', '--group', 'gl-r-3', '--auto', 'auto.json', '--seed', '1'),\n"
        "]\n"
        "print('---')\n"
        "for step in steps:\n"
        "    print(json.dumps(step))\n",
        tmp_path,
    )
    for state in states[:3]:
        assert state == {"localaut": sorted(CORE | {"localaut", "cli"}), "numpy": False}
    assert "recover" in states[3]["localaut"]


def test_package_root_keeps_every_public_name():
    assert localaut.__all__ == PUBLIC
    assert all(getattr(localaut, name) is not None for name in PUBLIC)
    assert localaut.apply is localaut.autos.apply
    assert localaut.AutomorphismOracle is localaut.recover.AutomorphismOracle
    namespace = {}
    exec("from localaut import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert set(PUBLIC) <= set(dir(localaut))


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=re.escape("module 'localaut' has no attribute 'no_such_name'")):
        localaut.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name' from 'localaut'"):
        exec("from localaut import no_such_name", {})
