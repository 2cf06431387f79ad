"""The package names the benchmark binds still resolve.

`perfbench/tracer.py` wraps package functions and methods by name, and
`perfbench/workloads.py` calls `localaut.<name>` and the recovery engines by
name. A rename or deletion in the package breaks `perfbench/run.py --trace 1`
and the smoke run, which take far longer than this check.
"""
import ast
import random
import sys
from pathlib import Path

import pytest

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


def _truth(spec, seed):
    """A seeded automorphism of the group named spec, e.g. sl-r-3, with
    conjugation wherever the field is C."""
    group = localaut.cli.parse_group(spec)
    sigma = "conj" if group.field == "C" else "id"
    if group.unitary:
        t = (localaut.random_su if group.family == "SUn" else localaut.random_unitary)(group.n, seed=seed)
        return localaut.make_automorphism(group, "standard", sigma, t)
    t = localaut.random_gl(group.n, group.regimes()[0], random.Random(seed))
    return localaut.make_automorphism(group, "contragredient", sigma, t)


@pytest.mark.parametrize("spec, seed", [("sl-r-3", 1), ("sl-r-3", 2), ("sl-r-5", 1)])
def test_slnr_short_transcript_answers_every_probe_of_recover(spec, seed):
    """cli_pipeline writes the transcript of `recover_slnr_short` to a sample
    file and runs `recover --samples` on it at the same seed: the two probe
    schedules must agree, or that job ends in OracleIncomplete."""
    oracle = localaut.AutomorphismOracle(_truth(spec, seed))
    localaut.recover_slnr_short(oracle, seed=seed)
    rep = localaut.recover.recover(localaut.SampleOracle(oracle.group, oracle.transcript), seed=seed)
    assert rep.status == "Recovered" and rep.probes_used == len(oracle.transcript)


ENGINE_GROUPS = {"slnr_short": "sl-r-3", "sln_common": "sl-c-3", "glnr": "gl-r-3", "sun": "sun-3", "un": "un-3"}


@pytest.mark.parametrize("engine", sorted(ENGINE_GROUPS))
def test_engine_names_give_the_report_of_recover(engine):
    assert set(ENGINE_GROUPS) == set(_tracer().ENGINES)
    truth = _truth(ENGINE_GROUPS[engine], 3)
    by_name, by_group = localaut.AutomorphismOracle(truth), localaut.AutomorphismOracle(truth)
    rep = getattr(localaut, _tracer().ENGINES[engine])(by_name, seed=3, verify_probes=10)
    assert rep.status == "Recovered"
    assert rep == localaut.recover.recover(by_group, seed=3, verify_probes=10)
    assert by_name.transcript == by_group.transcript
