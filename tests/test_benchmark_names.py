"""The package names the benchmark binds still resolve.

`perfbench/tracer.py` wraps package functions and methods by name, and
`perfbench/workloads.py` calls `localaut.<name>` and the recovery engines by
name. A rename or deletion in the package breaks `perfbench/run.py --trace 1`
and the smoke run, which take far longer than this check.
"""
import ast
import sys
from pathlib import Path

import localaut
import localaut.cli
import localaut.matrices
import localaut.recover

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_tracer_installs_and_uninstalls_on_the_package():
    tracer = _tracer()
    before = (localaut.matrices.mul, localaut.recover.mul, localaut.matrices.Basis.__dict__["gram"])
    t = tracer.Tracer()
    t.install()
    try:
        assert localaut.matrices.mul is not before[0] and localaut.recover.mul is localaut.matrices.mul
    finally:
        t.uninstall()
    assert (localaut.matrices.mul, localaut.recover.mul, localaut.matrices.Basis.__dict__["gram"]) == before


def test_workload_names_resolve():
    tracer = _tracer()
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "la"
    }
    assert "recover_slnr_short" in names
    missing = sorted(name for name in names | set(tracer.ENGINES.values()) if not hasattr(localaut, name))
    missing += sorted(fn for fn in tracer.ENGINES.values() if not hasattr(localaut.recover, fn))
    assert missing == []
    assert callable(localaut.cli.main)
