"""Span recorder and runtime wrappers for the traced benchmark run.

Nothing in the package is edited. `Tracer.install` replaces each traced
public function on every `localaut.*` module attribute that is bound to it
(callers import by name, so `matrices.mul` is also `recover.mul`,
`similarity.mul`, ...), and the traced methods on their classes. Each call
made while the tracer is on records a span `(name, start, end, parent, job)`
in memory. Self time is a span's duration minus the time its child spans
cover; spans are strictly nested because the benchmark is single-threaded.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

REGIMES = ("QR", "QC", "C64")
CLI_COMMANDS = ("gen-auto", "apply", "verify-auto", "local-check", "recover")
# recovery engine -> the public function that runs it
ENGINES = {
    "slnr_short": "recover_slnr_short",
    "sln_common": "recover_sln_common",
    "glnr": "recover_glnr",
    "sun": "recover_sun",
    "un": "recover_un",
}


def _regime(args, kwargs) -> str:
    first = args[0] if args else next(iter(kwargs.values()))
    return first.regime


def _bits(x) -> int:
    if hasattr(x, "re"):  # GaussRational
        return max(_bits(x.re), _bits(x.im))
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    specs: list[tuple[str, str, str]] = []

    def timed(prefix: str) -> None:
        specs.append((f"{prefix}.calls", "count", "lower"))
        specs.append((f"{prefix}.self_s", "s", "lower"))

    for op in ("mul", "inv", "det"):
        for r in REGIMES:
            timed(f"matrices.{op}.{r}")
    for r in ("QR", "QC"):
        timed(f"matrices.charpoly.{r}")
    for r in REGIMES:
        specs.append((f"matrices.mul.{r}.ops", "count", "lower"))
    timed("matrices.member")
    timed("matrices.Basis.gram")
    timed("matrices.Basis.coordinates")
    specs.append(("matrices.out_bits_max", "bits", "lower"))
    for fn in ("rref", "nullspace", "solve"):
        timed(f"exactlinalg.{fn}")
    specs.append(("exactlinalg.rref.cells", "count", "lower"))
    for fn in ("intertwiner_basis", "simultaneous_similarity", "unitary_intertwiner"):
        timed(f"similarity.{fn}")
    specs.append(("similarity.candidates", "count", "lower"))
    specs.append(("similarity.solved_per_candidate", "ratio", "higher"))
    specs.append(("similarity.dim_mean", "count", "lower"))
    timed("scalars.roots")
    timed("scalarmaps.screen")
    timed("mullattice.factor")
    for r in REGIMES:
        timed(f"autos.apply.{r}")
    timed("autos.make_automorphism")
    timed("localcheck.check_pair")
    timed("localcheck.check_map")
    specs.append(("localcheck.pairs.Interpolable", "count", "higher"))
    specs.append(("localcheck.pairs.Obstructed", "count", "higher"))
    specs.append(("localcheck.pairs.Inconclusive", "count", "lower"))
    for engine in ENGINES:
        timed(f"recover.{engine}")
    timed("recover.Oracle.query")
    specs.append(("recover.probes_per_job", "count", "lower"))
    for fn in ("mat_to_json", "mat_from_json", "sha256_digest"):
        timed(f"serialize.{fn}")
    specs.append(("serialize.report_bytes", "bytes", "lower"))
    for cmd in CLI_COMMANDS:
        specs.append((f"cli.main.{cmd}.busy_s", "s", "lower"))
    specs.append(("cli.startup_s", "s", "lower"))
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


class Tracer:
    """Records spans while `on`; wrappers pass straight through when off."""

    def __init__(self):
        self.on = False
        self.job = None
        self.spans: list = []
        self._stack: list[int] = []
        self._names: list[str] = []
        self._covered: list[float] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.dims: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name_of, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            name = name_of(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            parent_name = tracer._names[-1] if tracer._names else None
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._names.append(name)
            tracer._covered.append(0.0)
            try:
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    tracer._stack.pop()
                    tracer._names.pop()
                    covered = tracer._covered.pop()
                    tracer.spans[idx] = (name, t0, t1, parent, tracer.job)
                    tracer.calls[name] += 1
                    tracer.self_s[name] += (t1 - t0) - covered
                if after is not None:
                    after(name, args, kwargs, out, parent_name)
            finally:
                # the parent's self time excludes this call and all of its
                # bookkeeping, `after` included
                if tracer._covered:
                    tracer._covered[-1] += perf_counter() - t_in
            return out

        return traced

    # -- per-function bookkeeping outside the span ------------------------

    def _after_mul(self, name, args, kwargs, out, parent_name):
        self.counters[name + ".ops"] += out.n ** 3
        if out.regime != "C64":
            top = max(_bits(x) for row in out.entries for x in row)
            if top > self.counters["matrices.out_bits_max"]:
                self.counters["matrices.out_bits_max"] = top

    def _after_rref(self, name, args, kwargs, out, parent_name):
        rows = args[0] if args else kwargs["rows"]
        if rows:
            self.counters["exactlinalg.rref.cells"] += len(rows) * len(rows[0])

    def _after_similarity(self, name, args, kwargs, out, parent_name):
        self.dims.append(out.dim)
        if out.status == "Solved":
            self.counters["similarity.solved"] += 1

    def _after_check_pair(self, name, args, kwargs, out, parent_name):
        # the unitary QC path re-enters check_pair; count the outer verdict only
        if parent_name != name:
            self.counters[f"localcheck.pairs.{out.status}"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of the already imported package."""
        import localaut.matrices as matrices
        import localaut.recover as recover

        by_regime = lambda base: (lambda a, k: f"{base}.{_regime(a, k)}")
        fixed = lambda name: (lambda a, k: name)
        plan = [
            ("localaut.matrices", "mul", by_regime("matrices.mul"), self._after_mul),
            ("localaut.matrices", "inv", by_regime("matrices.inv"), None),
            ("localaut.matrices", "det", by_regime("matrices.det"), None),
            ("localaut.matrices", "charpoly", by_regime("matrices.charpoly"), None),
            ("localaut.matrices", "member", fixed("matrices.member"), None),
            ("localaut.exactlinalg", "rref", fixed("exactlinalg.rref"), self._after_rref),
            ("localaut.exactlinalg", "nullspace", fixed("exactlinalg.nullspace"), None),
            ("localaut.exactlinalg", "solve", fixed("exactlinalg.solve"), None),
            ("localaut.similarity", "intertwiner_basis", fixed("similarity.intertwiner_basis"), None),
            (
                "localaut.similarity",
                "simultaneous_similarity",
                fixed("similarity.simultaneous_similarity"),
                self._after_similarity,
            ),
            ("localaut.similarity", "unitary_intertwiner", fixed("similarity.unitary_intertwiner"), None),
            ("localaut.scalars", "rational_nth_root", fixed("scalars.roots"), None),
            ("localaut.scalars", "real_nth_root_candidates", fixed("scalars.roots"), None),
            ("localaut.scalars", "complex_nth_roots", fixed("scalars.roots"), None),
            ("localaut.scalarmaps", "point_ok_rclass", fixed("scalarmaps.screen"), None),
            ("localaut.scalarmaps", "pair_ok_rclass", fixed("scalarmaps.screen"), None),
            ("localaut.scalarmaps", "pair_ok_mu", fixed("scalarmaps.screen"), None),
            ("localaut.mullattice", "factor", fixed("mullattice.factor"), None),
            ("localaut.autos", "apply", lambda a, k: f"autos.apply.{_regime(a[1:], k)}", None),
            ("localaut.autos", "make_automorphism", fixed("autos.make_automorphism"), None),
            ("localaut.localcheck", "check_pair", fixed("localcheck.check_pair"), self._after_check_pair),
            ("localaut.localcheck", "check_map", fixed("localcheck.check_map"), None),
            ("localaut.serialize", "mat_to_json", fixed("serialize.mat_to_json"), None),
            ("localaut.serialize", "mat_from_json", fixed("serialize.mat_from_json"), None),
            ("localaut.serialize", "sha256_digest", fixed("serialize.sha256_digest"), None),
            ("localaut.cli", "main", lambda a, k: f"cli.main.{(a[0] if a else k['argv'])[0]}", None),
        ]
        plan += [
            ("localaut.recover", fn, fixed(f"recover.{engine}"), None) for engine, fn in ENGINES.items()
        ]
        for module_name, attr, name_of, after in plan:
            __import__(module_name)
            original = getattr(sys.modules[module_name], attr)
            self._patch_everywhere(original, self._wrap(original, name_of, after))
        for cls, attr, name in (
            (matrices.Basis, "gram", "matrices.Basis.gram"),
            (matrices.Basis, "coordinates", "matrices.Basis.coordinates"),
            (recover.Oracle, "query", "recover.Oracle.query"),
        ):
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, fixed(name)))

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "localaut" or mod_name.startswith("localaut.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def candidates(self) -> int:
        """det spans whose parent span is simultaneous_similarity."""
        spans = self.spans
        return sum(
            1
            for name, _, _, parent, _ in spans
            if parent >= 0
            and name.startswith("matrices.det.")
            and spans[parent][0] == "similarity.simultaneous_similarity"
        )

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}))
                fh.write("\n")
