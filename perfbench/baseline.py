"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
with the run length from BENCHMARK.json, and prints per metric the median,
the quartiles and the spread: the interquartile distance as a share of the
median, next to the metric's bound. With ``--out`` it writes the summary as
JSON, which is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "record": json.loads(lines[-2])["record"]}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, spec["run_seconds"], args.trace) for s in seeds(args.seeds)]
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: {len(bad)} run(s) not correct", file=sys.stderr)
        names = runs[0]["metrics"]
        env = runs[0]["record"]
        summary.setdefault("env", {key: env[key] for key in (
            "commit", "source_sha256", "python", "numpy", "blas", "blas_threads", "nproc",
            "machine")})
        summary[workload] = {
            name: {"unit": names[name]["unit"],
                   **summarize([r["metrics"][name]["value"] for r in runs])}
            for name in names
        }
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- over bound/3"
            print(f"{workload:13s} {name:40s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} bound {bound}{flag}")
        summary[workload]["runs_correct"] = len(runs) - len(bad)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
