"""branchrep benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports branchrep from ``src/`` there.
Load shape: a closed loop with one client, no worker threads. Set-up builds
the seeded op list (a round) three times and runs one warm-up op per family;
the timed phase then repeats whole rounds, each in the seeded order, until
the next round would overrun ``--seconds`` and the workload's minimum op
count is reached. Measuring whole rounds keeps the op mix, and with it every
end-to-end number, independent of how many rounds fit.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every round
twice, untraced and traced in alternating order, and prints the per-layer
metrics from the traced spans plus the tracing overhead against the
untraced twin. The last stdout line is the result object; the line before
it is the environment record. Both, and the spans of a traced run, are also
written to ``perfbench/results/``.

``--smoke`` runs only the smallest case of each family, for the self-test.
``--record-digests`` recomputes ``digests.json``, the combinatorial outputs
of every pool input, from the checked-out code.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
RESULTS = BENCH / "results"

# One BLAS thread: the client is single-threaded, the machine has two cores
# and is shared, and thread count alone doubled some dense timings.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
MAX_TIMED_S = 120.0  # keeps a run of a much slower commit inside the 180 s limit

MODULES = ("graph", "structure", "branching", "operators", "alignment", "cli")
CALLS = (
    "graph.parse_graph", "graph.decompose", "graph.is_p_simple",
    "structure.level_decomposition", "structure.component_classifications",
    "structure.check_structure", "structure.vertex_roles",
    "branching.synthesize", "branching.validate", "branching.json_roundtrip",
    "operators.induce", "operators.verify_ck", "operators.coordinate_export",
    "alignment.random_representation", "alignment.check_representation",
    "alignment.align_bases", "alignment.check_b2b", "alignment.extract_branching_system",
    "alignment.verify_equivalence", "alignment.rep_write", "alignment.rep_read",
    "cli.analyze", "cli.synthesize", "cli.induce", "cli.verify", "cli.align",
)
# log-log slope of a call's median time against an input size, across sizes
SLOPES = {
    "structure.level_decomposition.slope": ("structure.level_decomposition", "V+E"),
    "structure.check_structure.slope": ("structure.check_structure", "V+E"),
    "operators.verify_ck.slope": ("operators.verify_ck", "E"),
    "alignment.check_representation.slope": ("alignment.check_representation", "N"),
}
# CLI internals timed by rebinding the names the cli module imported; the
# calls stay the same, the wrapper only records a child span of the command
CLI_PATCHES = {"coordinate_export": "operators.coordinate_export",
               "rep_from_json": "alignment.rep_read"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_modules():
    """Pin BLAS threads, then import numpy and this checkout's branchrep."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "branchrep" / "__init__.py").is_file():
        fail(f"no branchrep sources under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(BENCH)]
    import numpy
    import branchrep
    import spans
    import workloads

    if Path(branchrep.__file__).resolve().parent != src / "branchrep":
        fail(f"imported branchrep from {branchrep.__file__}, not from {src}")
    return numpy, branchrep, spans, workloads


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "branchrep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Bench:
    def __init__(self, args, np, branchrep, spans, workloads):
        self.args = args
        self.np = np
        self.spans = spans
        self.wlmod = workloads
        self.wl = workloads.WORKLOADS[args.workload]
        self.tracer = spans.Tracer()
        self.workdir = BENCH / ".work" / str(os.getpid())
        self.golden = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.attempted = 0
        self.failed = 0  # ops with at least one failure
        self.failures: list[tuple[str, str]] = []  # (module, message), one per failed check
        self.counts: dict[str, list[float]] = {}
        self.run_ops: list = []  # op of each executed op id, for the traced summary
        if args.trace:
            for name, span in CLI_PATCHES.items():
                setattr(branchrep.cli, name,
                        self.tracer.wrap(span, getattr(branchrep.cli, name)))

    # -- inputs ------------------------------------------------------------

    def cases(self):
        if not self.args.smoke:
            return self.wl.cases
        smallest: dict[str, object] = {}
        for case in self.wl.cases:
            if case.family not in smallest or case.size < smallest[case.family].size:
                smallest[case.family] = case
        return tuple(dataclasses.replace(c, per_round=1) for c in smallest.values())

    def make_ops(self) -> list:
        W = self.wlmod
        rng = self.np.random.default_rng([self.args.seed, zlib.crc32(self.wl.name.encode())])
        ops = []
        for case in self.cases():
            for _ in range(case.per_round):
                variant = int(rng.integers(W.VARIANTS))
                payload = self.wl.build(case, variant, len(ops), rng)
                ops.append(W.Op(case, variant, payload))
        return [ops[i] for i in rng.permutation(len(ops))]

    # -- one op --------------------------------------------------------------

    def run_op(self, op, record: bool = False):
        """Run and check one op; returns (latency, Outcome)."""
        W, tr = self.wlmod, self.tracer
        if self.wl.uses_workdir:
            W.clear_workdir(self.workdir)
        op_id = len(self.run_ops)
        self.run_ops.append(op)
        start = time.perf_counter()
        try:
            with tr.op(op_id):
                out = self.wl.run(op.payload, tr, self.workdir)
        except Exception as exc:  # a failing op is counted and the run goes on
            latency = time.perf_counter() - start
            outcome = W.Outcome(failures=[(tr.last.split(".")[0], f"{tr.last}: {exc!r}")])
        else:
            latency = time.perf_counter() - start
            try:
                outcome = self.wl.check(op.payload, out, self.workdir)
            except Exception as exc:  # a check that cannot read the output fails the op
                outcome = W.Outcome(failures=[("bench", f"check raised {exc!r}")])
        if not record:
            self.compare_digests(op, outcome)
            self.attempted += 1
            self.failed += bool(outcome.failures)
            self.failures.extend(outcome.failures)
            for key, value in outcome.counts.items():
                self.counts.setdefault(key, []).append(value)
        return latency, outcome

    def compare_digests(self, op, outcome) -> None:
        try:
            expected = self.golden[self.wl.name][op.case.key][op.variant]
        except (KeyError, IndexError):
            outcome.failures.append(("bench", f"no recorded digest for {op.case.key}/{op.variant}"))
            return
        for part, value in outcome.digests.items():
            if expected.get(part) != value:
                outcome.failures.append(
                    (part.split(".")[0], f"{op.case.key}/{op.variant}: {part} output changed"))

    # -- phases ----------------------------------------------------------------

    def setup(self) -> tuple[list, list[float]]:
        """Build the op list SETUP_REPEATS times (it must come out identical), warm up."""
        times, prints, ops = [], set(), []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops = self.make_ops()
            warmed = set()
            for op in sorted(ops, key=lambda o: o.case.size):
                if op.case.family not in warmed:
                    warmed.add(op.case.family)
                    self.run_op(op)
            times.append(time.perf_counter() - start)
            prints.add(b"".join(self.wlmod.fingerprint(op.payload) for op in ops))
        if len(prints) != 1:
            self.failures.append(("bench", "set-up built different inputs from one seed"))
        return ops, times

    def timed(self, ops) -> dict:
        """Repeat whole rounds; returns latencies, verified op count and elapsed time."""
        tr = self.tracer
        tail = self.wl.tail_pct
        min_ops = 0 if (self.args.smoke or self.args.trace) else math.ceil(10 / (1 - tail / 100)) + 1
        plain: list[float] = []
        traced: list[float] = []
        by_case: dict[str, list[float]] = {}
        ok = 0
        rounds = 0
        longest = elapsed = 0.0
        t0 = time.perf_counter()
        while True:
            passes = [False]
            if self.args.trace:
                passes = [False, True] if rounds % 2 == 0 else [True, False]
            for on in passes:
                tr.enabled = on
                for op in ops:
                    latency, outcome = self.run_op(op)
                    if on:
                        traced.append(latency)
                    else:
                        plain.append(latency)
                        by_case.setdefault(op.case.key, []).append(latency)
                        ok += not outcome.failures
            tr.enabled = False
            rounds += 1
            previous, elapsed = elapsed, time.perf_counter() - t0
            longest = max(longest, elapsed - previous)
            # stop before a round that could overrun; whole rounds keep the op mix
            next_end = elapsed + longest
            if next_end > MAX_TIMED_S or (len(plain) >= min_ops and next_end > self.args.seconds):
                break
        return {"plain": plain, "traced": traced, "ok": ok, "rounds": rounds, "elapsed": elapsed,
                "case_p50_s": {k: statistics.median(v) for k, v in by_case.items()}}

    def remove_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self, import_s: float, setup_times: list[float], timed: dict) -> dict:
        lat = timed["plain"]
        return {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_s": timed["ok"] / timed["elapsed"],
            "op_p50_s": statistics.median(lat),
            "op_tail_s": percentile(lat, self.wl.tail_pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, ops: list, timed: dict) -> dict:
        S, spans = self.spans, self.tracer.spans
        m = S.summarize(spans, CALLS, MODULES)
        for module in MODULES:
            m[f"{module}.fail"] = sum(1 for mod, _ in self.failures if mod == module)
        sizes = [op.payload["sizes"] for op in ops]
        m["graph.V"] = statistics.median(s["V"] for s in sizes)
        m["graph.E"] = statistics.median(s["E"] for s in sizes)
        universes = [s["N"] for s in sizes if s["N"]]
        m["alignment.N"] = statistics.median(universes) if universes else 0
        for key in ("alignment.rep_bytes", "cli.out_bytes"):
            m[key] = statistics.median(self.counts[key]) if key in self.counts else 0
        selfs = S.self_times(spans)
        for metric, (call, size_key) in SLOPES.items():
            per_op: dict[int, float] = {}
            for span, t in zip(spans, selfs):
                if span[0] == call:
                    per_op[span[4]] = per_op.get(span[4], 0.0) + t
            points = []
            for op_id, t in per_op.items():
                op = self.run_ops[op_id]
                s = op.payload["sizes"]
                points.append((op.case.family, s["V"] + s["E"] if size_key == "V+E" else s[size_key], t))
            m[metric] = S.loglog_slope(points)
        m["trace.overhead"] = sum(timed["traced"]) / sum(timed["plain"]) - 1
        m["fail_frac"] = self.failed / self.attempted
        return m

    def record(self, ops: list, timed: dict, import_s: float, setup_times: list[float]) -> dict:
        np = self.np
        return {
            "workload": self.wl.name,
            "why": self.wl.why,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "smoke": self.args.smoke,
            "commit": commit(),
            "source_sha256": source_sha256(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name(np),
            "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "load": "closed loop, 1 client, 1 process, no worker threads",
            "import_s": import_s,
            "setup_repeats_s": setup_times,
            "rounds": timed["rounds"],
            "ops_per_round": len(ops),
            "timed_s": timed["elapsed"],
            "op_samples": len(timed["plain"]),
            "tail_pct": self.wl.tail_pct,
            "samples_beyond_tail": sum(
                1 for t in timed["plain"] if t > percentile(timed["plain"], self.wl.tail_pct)),
            "case_p50_s": timed["case_p50_s"],
            "inputs": [{"case": op.case.key, "variant": op.variant, **op.payload["sizes"]}
                       for op in ops],
            "failures": [f"{mod}: {msg}" for mod, msg in self.failures[:20]],
        }

    def main(self, import_s: float) -> dict:
        try:
            ops, setup_times = self.setup()
            timed = self.timed(ops)
        finally:
            if self.wl.uses_workdir:
                self.remove_workdir()
        if self.args.trace:
            metrics = self.per_layer(ops, timed)
        else:
            metrics = self.end_to_end(import_s, setup_times, timed)
        record = self.record(ops, timed, import_s, setup_times)
        result = {
            "correct": self.failed == 0 and not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
        RESULTS.mkdir(exist_ok=True)
        name = f"{self.wl.name}-seed{self.args.seed}-trace{self.args.trace}.json"
        t0 = self.tracer.spans[0][1] if self.tracer.spans else 0.0
        with open(RESULTS / name, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "result": result, "latencies_s": timed["plain"],
                       "spans": [[n, a - t0, b - t0, p, o] for n, a, b, p, o in self.tracer.spans]},
                      fh)
        print(json.dumps({"record": record}))
        return result

    def record_digests(self) -> dict:
        """Digests of every pool input of this workload, from the checked-out code."""
        W = self.wlmod
        rng = self.np.random.default_rng(0)
        table: dict[str, list] = {}
        try:
            for case in self.wl.cases:
                table[case.key] = []
                for variant in range(W.VARIANTS):
                    op = W.Op(case, variant, self.wl.build(case, variant, 0, rng))
                    _, outcome = self.run_op(op, record=True)
                    if outcome.failures:
                        fail(f"{case.key}/{variant} fails its checks: {outcome.failures}")
                    table[case.key].append(outcome.digests)
        finally:
            if self.wl.uses_workdir:
                self.remove_workdir()
        return table


def unit_of(name: str) -> str:
    fixed = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_rss_mb": "MB", "trace.overhead": "frac", "fail_frac": "frac"}
    if name in fixed:
        return fixed[name]
    for suffix, unit in (("_s", "s"), (".share", "frac"), (".slope", "slope"),
                         ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest case of each family only")
    p.add_argument("--record-digests", action="store_true",
                   help="rewrite this workload's entry in digests.json and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    np, branchrep, spans, workloads = load_modules()
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    bench = Bench(args, np, branchrep, spans, workloads)
    if args.record_digests:
        golden = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        golden[args.workload] = bench.record_digests()
        DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return 0
    result = bench.main(import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
