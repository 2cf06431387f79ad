"""Spawns the cli_pipeline jobs, so that their peak RSS is their own.

On Linux a child's peak RSS includes the peak RSS of the process that
spawned it (exec records the old address space's high-water mark), so CLI
processes spawned straight from the benchmark would read as large as the
benchmark. This small process spawns them instead. It reads one request a
line on stdin, {"argv", "cwd", "timeout"}, runs it to the end, and answers
one line: {"code", "stdout", "children_maxrss_kb"}, the last being the
largest peak RSS of any child it has run so far. It exits at end of input.

    python3 perfbench/launcher.py
"""
import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        try:
            proc = subprocess.run(
                req["argv"], cwd=req["cwd"], capture_output=True, text=True, timeout=req["timeout"]
            )
            code, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, stdout = -1, ""
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps({"code": code, "stdout": stdout, "children_maxrss_kb": peak}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
