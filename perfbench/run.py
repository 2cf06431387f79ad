"""localaut benchmark runner: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload hom_suite --seed 0 --seconds 26 --trace 0

Imports `localaut` from `src/` of the checkout this file sits in, builds the
workload's inputs from the seed, then runs the workload's job list in
passes, one job at a time, until `--seconds` of passes have gone by (always
at least one whole pass). The set-up (import and build) is repeated
SETUP_REPEATS times, spread between the passes. Between jobs a fixed
reference kernel is timed (hostspeed.py), and every job and set-up time is
reported scaled to a nominal host speed. Every job is checked against
ground truth outside the timed region. With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` the run first measures untraced passes for half the time,
then one traced pass, and the last line carries the per-layer metrics. The
full record (metadata, digests, failures) is written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_localaut():
    """Import the package from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    la = importlib.import_module("localaut")
    if not Path(la.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"localaut was imported from {la.__file__}, not from {src}")
    return la


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU, so that
    the host-speed samples are taken where the timed work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def purge_localaut() -> None:
    for name in [m for m in sys.modules if m == "localaut" or m.startswith("localaut.")]:
        del sys.modules[name]


# ---------------------------------------------------------------------------
# running


class Execution:
    """One run of job number k, timed at host-speed mark `at`. It holds no
    reference to the job, whose inputs a later set-up replaces, so old
    inputs are freed."""

    __slots__ = ("k", "seconds", "at", "output", "error", "summary", "problems")

    def __init__(self, k, seconds, at, output, error):
        self.k = k
        self.seconds = seconds
        self.at = at
        self.output = output
        self.error = error
        self.summary = None
        self.problems: list[str] = []


def run_pass(wl, host, traced: bool = False, tracer=None) -> tuple[float, list[Execution]]:
    """Run the job list once, closed loop, sampling the host's speed between
    jobs. Returns (wall seconds, executions); the wall includes the samples."""
    done = []
    t_pass = time.perf_counter()
    for k, job in enumerate(wl.jobs):
        fn = job.run_traced if traced and job.run_traced is not None else job.run
        if tracer is not None:
            tracer.job = k
        at = host.mark()
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a raising job is a failed job, not a crashed benchmark
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        done.append(Execution(k, seconds, at, out, err))
        host.tick(seconds)
    return time.perf_counter() - t_pass, done


def judge(jobs, executions: list[Execution], reference: list | None) -> None:
    """Summarize every execution; check ground truth on the first pass, and
    require later passes to reproduce the first pass exactly. Outputs are
    dropped once judged, except the small CLI results the layer metrics
    read, so peak RSS does not grow with the number of passes."""
    for ex in executions:
        job = jobs[ex.k]
        if ex.error is None:
            try:
                ex.summary = job.summarize(ex.output)
                if reference is None:
                    ex.problems = job.check(ex.output)
            except Exception as exc:  # an output the checks cannot read is a failed job
                ex.error = f"checking raised {type(exc).__name__}: {exc}"
        if ex.error is not None:
            ex.summary = {"verdicts": [], "error": ex.error.split(":")[0]}
            ex.problems = [ex.error]
        elif reference is not None:
            ref = reference[ex.k]
            if ex.summary == ref.summary:
                # share the first pass's objects, so memory does not grow with the pass count
                ex.summary, ex.problems = ref.summary, ref.problems
            else:
                ex.problems = ["output differs from the first pass"]
        if not isinstance(ex.output, workloads.CliResult):
            ex.output = None


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, plant: bool = False) -> dict:
    meta = {"loadavg_start": _loadavg()}
    workdir = OUT / f"work-{name}-{os.getpid()}"
    setup_times = []
    setup_marks = []
    launchers = []
    host = hostspeed.HostSpeed()

    def set_up():
        """Import and build afresh; the caller has dropped the last workload."""
        for launcher in launchers:
            launcher.close()
        purge_localaut()
        gc.collect()
        host.sample()
        setup_marks.append(host.mark())
        t0 = time.perf_counter()
        import_localaut()
        built = workloads.build(name, seed, workdir, tiny=tiny, plant=plant)
        setup_times.append(time.perf_counter() - t0)
        host.sample()
        if built.launcher is not None:
            launchers.append(built.launcher)
        return built

    try:
        limit = seconds / 2 if trace else seconds
        passes: list[tuple[float, list[Execution]]] = []
        wl = None
        t_start = time.perf_counter()
        measured = 0.0
        while not passes or measured < limit:
            # Set-up k runs once k/SETUP_REPEATS of the run's passes are done,
            # so one slow spell of the host does not hold every set-up. Each
            # rebuild replaces the inputs, and the next pass must reproduce
            # the first pass on them.
            while len(setup_times) < SETUP_REPEATS and measured >= len(setup_times) * limit / SETUP_REPEATS:
                wl = None
                wl = set_up()
            wall, done = run_pass(wl, host)
            judge(wl.jobs, done, passes[0][1] if passes else None)
            passes.append((wall, done))
            measured = time.perf_counter() - t_start - sum(setup_times)
        while len(setup_times) < SETUP_REPEATS:
            wl = None
            wl = set_up()
        host.finish()
        traced = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.on = True
            try:
                traced = run_pass(wl, host, traced=True, tracer=tracer)
            finally:
                tracer.on = False
                tracer.uninstall()
            host.finish()
            judge(wl.jobs, traced[1], passes[0][1])
    finally:
        for launcher in launchers:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    meta["loadavg_end"] = _loadavg()
    child_peak_kb = max((launcher.peak_kb for launcher in launchers), default=None)

    executions = [ex for _, done in passes for ex in done]
    if traced is not None:
        executions += traced[1]
    failed = [ex for ex in executions if ex.problems]
    unexpected = [ex for ex in failed if wl.jobs[ex.k].known_gap is None]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "metadata": {**metadata(seed), **meta},
        "passes": len(passes),
        "pass_walls_s": [w for w, _ in passes],
        "setup_runs_s": setup_times,
        "host_nominal_s": hostspeed.NOMINAL_S,
        "host_samples_s": host.samples,
        "output_digest": output_digest(wl.jobs, passes[0][1]),
        "attempted": len(executions),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(executions),
        "correct": not unexpected,
        "failures": _failure_list(wl.jobs, failed),
        "job_s": dict(zip((job.name for job in wl.jobs), job_latencies(passes, host))),
        "pass_job_seconds": [[ex.seconds for ex in done] for _, done in passes],
    }
    if trace:
        record["traced_wall_s"] = traced[0]
        record["untraced_wall_s"] = statistics.median(w for w, _ in passes)
        record["metrics"] = layer_metrics(tracer, host, wl.jobs, passes, traced)
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        setups = [host.scale(s, at) for s, at in zip(setup_times, setup_marks)]
        record["metrics"], extra = end_to_end_metrics(passes, host, setups, child_peak_kb)
        record.update(extra)
    return record


def _failure_list(jobs, failed: list[Execution]) -> list[dict]:
    seen = {}
    for ex in failed:
        key = jobs[ex.k].name
        if key not in seen:
            seen[key] = {"job": key, "count": 0, "known_gap": jobs[ex.k].known_gap, "problems": ex.problems}
        seen[key]["count"] += 1
    return list(seen.values())


def output_digest(jobs, first_pass: list[Execution]) -> str:
    """sha256 of the canonical JSON of every job's timing-free summary."""
    return workloads.sha256_json([[jobs[ex.k].name, ex.summary] for ex in first_pass])


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def job_latencies(passes, host) -> list[float]:
    """Each job's median execution time over the run's passes, each
    execution scaled to the nominal host speed."""
    scaled = ([host.scale(ex.seconds, ex.at) for ex in done] for _, done in passes)
    return [statistics.median(ts) for ts in zip(*scaled)]


def end_to_end_metrics(passes, host, setup_times, child_peak_kb) -> tuple[dict, dict]:
    """setup_times: scaled to the nominal host speed. child_peak_kb: the
    largest peak RSS of the CLI processes, for the workload that spawns
    them; otherwise peak_rss_mb is this process's."""
    executions = [ex for _, done in passes for ex in done]
    latencies = job_latencies(passes, host)
    verdicts = [v for ex in executions for v in ex.summary["verdicts"]]
    certified = sum(1 for v in verdicts if v != "Inconclusive")
    failed = sum(1 for ex in executions if ex.problems)
    tail_value, tail_pct = tail(latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if child_peak_kb is None else child_peak_kb
    metrics = {
        "wall_s": _metric(sum(latencies), "s"),
        "job_p50_s": _metric(statistics.median(latencies), "s"),
        "job_tail_s": _metric(tail_value, "s"),
        "certified_ratio": _metric(certified / len(verdicts) if verdicts else 1.0, "ratio"),
        "passed_ratio": _metric(1 - failed / len(executions), "ratio"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
    }
    extra = {
        "job_tail_percentile": tail_pct,
        "job_count": len(latencies),
        "pass_wall_median_s": statistics.median(w for w, _ in passes),
        "verdicts_issued": len(verdicts),
    }
    return metrics, extra


def layer_metrics(tracer, host, jobs, passes, traced) -> dict:
    specs = tracing.layer_metric_specs()
    values = dict.fromkeys((n for n, _, _ in specs), 0)
    for span_name, calls in tracer.calls.items():
        values[f"{span_name}.calls"] = calls
        values[f"{span_name}.self_s"] = tracer.self_s[span_name]
    for key, count in tracer.counters.items():
        if key in values:
            values[key] = count
    for cmd in tracing.CLI_COMMANDS:
        span = f"cli.main.{cmd}"
        values[f"{span}.busy_s"] = sum(e - s for n, s, e, _, _ in tracer.spans if n == span)
    candidates = tracer.candidates()
    values["similarity.candidates"] = candidates
    values["similarity.solved_per_candidate"] = (
        tracer.counters["similarity.solved"] / candidates if candidates else 0.0
    )
    values["similarity.dim_mean"] = statistics.mean(tracer.dims) if tracer.dims else 0.0
    recover_jobs = sum(1 for ex in traced[1] if jobs[ex.k].recovers)
    queries = tracer.calls["recover.Oracle.query"]
    values["recover.probes_per_job"] = queries / recover_jobs if recover_jobs else 0.0
    values["serialize.report_bytes"] = sum(
        len(ex.output.stdout.encode()) for ex in traced[1] if isinstance(ex.output, workloads.CliResult)
    )
    startup = [
        ex.seconds - workloads.elapsed_of(ex.output)
        for _, done in passes
        for ex in done
        if isinstance(ex.output, workloads.CliResult) and workloads.elapsed_of(ex.output) is not None
    ]
    values["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    def scaled(done):
        return sum(host.scale(ex.seconds, ex.at) for ex in done)

    values["trace.overhead_ratio"] = scaled(traced[1]) / statistics.median(scaled(done) for _, done in passes)
    return {n: _metric(values[n], unit) for n, unit, _ in specs}


# ---------------------------------------------------------------------------
# metadata


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(seed: int) -> dict:
    import numpy
    import sympy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import_localaut()
    except ImportError as exc:
        print(f"cannot import localaut from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(
        json.dumps(
            {
                "record": str(path.relative_to(ROOT)),
                "output_digest": record["output_digest"],
                "failed_ratio": record["failed_ratio"],
                "passes": record["passes"],
                "failures": [f["job"] for f in record["failures"]],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
