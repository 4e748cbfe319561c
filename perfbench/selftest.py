"""Self-test of the benchmark at its smallest sizes.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks BENCHMARK.json against the benchmark's own names, runs every
workload with ``--smoke`` in both trace modes and checks the result schema,
and checks that a directory holding only BENCHMARK.json and perfbench/ makes
the benchmark fail without printing a result. It asserts no timing value.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RECORD_FIELDS = {"commit", "source_sha256", "python", "numpy", "blas", "blas_threads",
                 "nproc", "seed", "inputs", "tail_pct", "op_samples"}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*spec()["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_matches_benchmark():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert s["paths"] == ["perfbench"]
    assert isinstance(s["run_seconds"], int) and 1 <= s["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in s["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in s[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in s["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in s["end_to_end"] if m["name"] == "setup_s").items()
    assert max(len(w["why"]) for w in s["workloads"]) <= 200


def check_result(workload: str, trace: int) -> None:
    s = spec()
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in s["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
    assert RECORD_FIELDS <= set(record)
    assert record["workload"] == workload


def test_every_workload_and_mode():
    for w in spec()["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace)


def test_fails_without_the_program():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        out = run(spec()["workloads"][0]["name"], 0, cwd=bare)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_spec_matches_benchmark, test_every_workload_and_mode,
                 test_fails_without_the_program):
        test()
        print(f"ok {test.__name__}")
