"""Child oracle for `localaut recover --oracle-cmd`: reads one matrix JSON per
line on stdin and answers with its image under the automorphism stored in
the file named by the first argument, one JSON object per line.

    python3 perfbench/oracle_child.py auto.json
"""
import json
import sys
from pathlib import Path

# the package under test is the one in this checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from localaut import apply, auto_from_json, load_json, mat_from_json, mat_to_json  # noqa: E402


def main() -> int:
    auto = auto_from_json(load_json(sys.argv[1]))
    for line in sys.stdin:
        if line.strip():
            out = apply(auto, mat_from_json(json.loads(line)))
            sys.stdout.write(json.dumps(mat_to_json(out)) + "\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
