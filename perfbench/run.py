"""merokit benchmark: one seeded workload per call, end to end or traced.

    python3 perfbench/run.py --workload grid-dense --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): cli-cold, grid-dense, sampling-small.
Every workload runs in fresh processes started from here.  With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a separate traced run.  Both check every output
for correctness.  Exit code 0 whenever that line was printed; 2 when the
checkout holds no merokit sources; 1 when a run could not complete.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  - found through the path above

WORKLOADS = ("cli-cold", "grid-dense", "sampling-small")

#: fresh-process set-ups timed per run (after one untimed warm-up)
SETUP_SAMPLES = 6
#: samples of the interpreter-start and import-time probes
IMPORT_SAMPLES = 5
#: the tail is the latency with this many samples beyond it ...
TAIL_BEYOND = 10
#: ... taken as the median over up to this many windows of a long run
TAIL_WINDOWS = 5


class BenchError(RuntimeError):
    pass


def run_child(cmd: list[str], limit: float, want_ready: bool = False) -> tuple[float, str, str, int]:
    """Run ``cmd`` to completion under a kill timer.

    Returns (seconds until the child printed "ready", or its whole wall
    time; rest of stdout; stderr; exit code).  The child is always reaped.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=workloads.child_env(ROOT), cwd=str(ROOT)
    )
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    err_chunks: list[str] = []
    drain = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    drain.start()
    try:
        ready = None
        if want_ready:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            if line.strip() != "ready":
                rest = line + proc.stdout.read()
            else:
                rest = proc.stdout.read()
        else:
            rest = proc.stdout.read()
        code = proc.wait()
        if ready is None:
            ready = time.perf_counter() - t0
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    return ready, rest, "".join(err_chunks), code


def worker(args, phase: str, tmp: Path, limit: float) -> tuple[float, dict | None]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--phase", phase,
        "--seconds", repr(args.seconds), "--tmp", str(tmp),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.wrong_expectation:
        cmd.append("--wrong-expectation")
    ready, out, err, code = run_child(cmd, limit, want_ready=True)
    sys.stderr.write(err)
    if code != 0:
        raise BenchError(f"worker phase {phase} exited with {code}")
    lines = out.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def setup_samples(args, tmp: Path, n: int, warm: bool) -> list[float]:
    """Seconds from a fresh interpreter to the first op being ready, for
    ``n`` fresh processes; with ``warm``, after one untimed spawn that
    compiles bytecode and warms the file cache."""
    times = []
    for i in range(n + warm):
        ready, _ = worker(args, "setup", tmp / f"setup-{warm}-{i}", 120.0)
        if i or not warm:
            times.append(ready)
    return times


def tail(lat_ms: list[float]) -> tuple[float, float, int, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    A long run is cut into up to TAIL_WINDOWS consecutive windows of at
    least 11 * TAIL_BEYOND samples and the median of the windows' values
    is reported, so one burst of machine noise does not set the tail.
    Returns (value, percentile, samples per window, windows).
    """
    windows = max(1, min(TAIL_WINDOWS, len(lat_ms) // (11 * TAIL_BEYOND)))
    size = len(lat_ms) // windows
    values = []
    for i in range(windows):
        xs = sorted(lat_ms[i * size:(i + 1) * size])
        values.append(xs[max(0, size - TAIL_BEYOND - 1)])
    pct = 100.0 * (size - TAIL_BEYOND) / size if size > TAIL_BEYOND else 100.0
    return statistics.median(values), pct, size, windows


def cycle_p50(lat_ms: list[float], per_cycle: int) -> tuple[float, int]:
    """Median latency of the ops of each whole cycle, averaged over the
    cycles.  The host alternates between faster and slower phases that
    last seconds; a pooled median of millisecond ops flips with the share
    of slow phases, while this mean moves in proportion to it.
    Returns (value, cycles)."""
    meds = [statistics.median(lat_ms[i:i + per_cycle]) for i in range(0, len(lat_ms) - per_cycle + 1, per_cycle)]
    return statistics.fmean(meds), len(meds)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def import_split() -> dict:
    """cli.interp_start_ms from ``python -c pass``; numpy and merokit import
    shares from ``python -X importtime``, medians of IMPORT_SAMPLES."""
    interp, numpy_ms, merokit_ms = [], [], []
    for i in range(IMPORT_SAMPLES + 1):
        wall, _, _, code = run_child([sys.executable, "-c", "pass"], 60.0)
        if code != 0:
            raise BenchError("python -c pass failed")
        _, _, err, code = run_child(
            [sys.executable, "-X", "importtime", "-c", "import numpy; import merokit.cli"], 60.0
        )
        if code != 0:
            raise BenchError("importing merokit.cli failed")
        n_ms, m_ms = parse_importtime(err)
        if i:
            interp.append(1000.0 * wall)
            numpy_ms.append(n_ms)
            merokit_ms.append(m_ms)
    return {
        "cli.interp_start_ms": statistics.median(interp),
        "cli.import_numpy_ms": statistics.median(numpy_ms),
        "cli.import_merokit_ms": statistics.median(merokit_ms),
    }


def parse_importtime(text: str) -> tuple[float, float]:
    """(numpy cumulative ms, ms of the top-level imports after numpy)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), int(cumulative), name.strip()))
    top = min(r[0] for r in rows)
    idx = next(i for i, r in enumerate(rows) if r[0] == top and r[2] == "numpy")
    after = sum(c for lvl, c, _ in rows[idx + 1:] if lvl == top)
    return rows[idx][1] / 1000.0, after / 1000.0


def environment(res: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": res["env"]["numpy"],
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "merokit_backend": res["env"]["merokit_backend"],
        "blas_threads": res["env"]["blas_threads"],
        "git_commit": commit,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, tmp: Path) -> tuple[dict, dict]:
    steal0, total0 = cpu_ticks()
    # set-up samples are split around the timed phase, so one slow
    # stretch of the machine does not decide their median
    half = SETUP_SAMPLES // 2
    setup = setup_samples(args, tmp, half, warm=True)
    _, res = worker(args, "run", tmp / "run", args.seconds + 150.0)
    setup += setup_samples(args, tmp, SETUP_SAMPLES - half, warm=False)
    steal1, total1 = cpu_ticks()
    lat_ms = [1000.0 * x for x in res["latencies_s"]]
    attempted = res["attempted"] + res["warmup_attempted"]
    failed = res["failed"] + res["warmup_failed"]
    value, pct, size, windows = tail(lat_ms)
    p50, n_cycles = cycle_p50(lat_ms, res["ops_per_cycle"])
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(len(lat_ms) / res["wall_s"], "1/s"),
        "op_ms_p50": metric(p50, "ms"),
        "op_ms_tail": metric(value, "ms"),
        "suite_s": metric(statistics.median(res["suite_latencies_s"]), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops_timed": len(lat_ms),
        "cycles_timed": n_cycles,
        "op_ms_pooled_median": statistics.median(lat_ms),
        "ops_failed_frac": failed / attempted,
        "op_ms_tail_percentile": pct,
        "op_ms_tail_samples_per_window": size,
        "op_ms_tail_windows": windows,
        "suite_runs_timed": len(res["suite_latencies_s"]),
        "cli.nonstrict_json_outputs": res["nonstrict_per_suite"],
        "cpu_steal_frac": (steal1 - steal0) / max(1, total1 - total0),
        "failures": res["messages"],
        "environment": environment(res),
        "digests": res["digests"],
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, record


def traced(args, tmp: Path) -> tuple[dict, dict]:
    import spans

    _, res = worker(args, "trace", tmp / "trace", 170.0)
    layers = res["layers"]
    values: dict = {}
    for layer, counters in spans.LAYERS.items():
        got = layers.get(layer, {})
        values[f"{layer}.self_ms"] = metric(got.get("self_ms", 0.0), "ms")
        values[f"{layer}.calls"] = metric(got.get("calls", 0), "count")
        for c in counters:
            values[f"{layer}.{c}"] = metric(got.get(c, 0), "count")
    for name, ms in res["sweep"].items():
        values[name] = metric(ms, "ms")
    for name, ms in import_split().items():
        values[name] = metric(ms, "ms")
    values["cli.nonstrict_json_outputs"] = metric(res["nonstrict_per_suite"], "count")
    values["trace.overhead_frac"] = metric(res["overhead_frac"], "ratio")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace_cycles": res["cycles"],
        "failures": res["messages"],
    }
    failed = res["failed"]
    return {"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": values}, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (self-test only)")
    ap.add_argument("--wrong-expectation", action="store_true",
                    help="flip one expectation, so the correctness gate must trip (self-test only)")
    args = ap.parse_args()
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "merokit" / "__init__.py").is_file() or not (ROOT / "suites" / "default.json").is_file():
        print(f"error: no merokit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result, record = (traced if args.trace else end_to_end)(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for msg in record["failures"]:
        print(f"FAILED {msg}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
