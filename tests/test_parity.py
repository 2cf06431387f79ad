"""Report parity pinned to a golden file.

`tools/parity_grid.py` digests a fixed grid of command line runs. A
refactor keeps every report byte-identical apart from timings, so this test
fails on any digest that moves and names its argv. A change that moves one
on purpose regenerates the golden file in the same commit, from the
repository root:

    PYTHONPATH=src python tools/parity_grid.py > tests/golden/parity_grid.json

and names the moved rows, and why they moved, in CHANGES.md. The selftest
digest is pinned beside the criteria it hashes, in test_acceptance.py.
"""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parity_grid():
    spec = importlib.util.spec_from_file_location("parity_grid", ROOT / "tools" / "parity_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_grid_matches_the_golden_file():
    want = json.loads((ROOT / "tests" / "golden" / "parity_grid.json").read_text())
    got = _parity_grid().run()
    assert sorted(argv for argv in want.keys() & got.keys() if want[argv] != got[argv]) == [], "digests moved"
    assert sorted(want.keys() - got.keys()) == [], "rows left the grid"
    assert sorted(got.keys() - want.keys()) == [], "rows joined the grid"

