"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

For every workload it checks that
  * a tiny run reports correct=true, failed=0 and every end-to-end metric;
  * the same run with one expectation deliberately flipped reports
    correct=false and failed > 0, i.e. the correctness gate trips;
  * a tiny traced run reports every per-layer metric;
and that run.py, copied into a directory without the merokit sources,
exits non-zero without printing a result.  Exit code 0 when all hold.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "grid-dense", "sampling-small")


def run(cwd: Path, *extra: str) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            problems.append(what)

    for wl in WORKLOADS:
        code, res = run(ROOT, "--workload", wl, "--trace", "0", "--tiny")
        expect(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
               f"{wl}: tiny run is correct")
        expect(res is not None and set(res["metrics"]) == e2e, f"{wl}: every end-to-end metric reported")
        code, res = run(ROOT, "--workload", wl, "--trace", "0", "--tiny", "--wrong-expectation")
        expect(code == 0 and res is not None and not res["correct"] and res["failed"] > 0,
               f"{wl}: gate trips on a wrong expectation")
        code, res = run(ROOT, "--workload", wl, "--trace", "1", "--tiny")
        expect(code == 0 and res is not None and res["correct"] and set(res["metrics"]) == layers,
               f"{wl}: traced run reports every per-layer metric")

    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, res = run(bare, "--workload", "grid-dense", "--trace", "0")
        expect(code != 0 and res is None, "without merokit sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("selftest:", "passed" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
