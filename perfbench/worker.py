"""One fresh process of a benchmark run: set up, then measure one workload.

    python3 perfbench/worker.py --workload grid-dense --seed 1 --phase run --seconds 20 --tmp DIR

Phases:
  setup  import merokit, generate the seeded inputs, print "ready", exit;
  run    set up, run one untimed warm-up cycle, then whole op cycles until
         --seconds have passed; print one JSON line of raw results;
  trace  set up under tracing, then run the same fixed number of cycles
         untraced and traced, then the scale sweep; print one JSON line.

Every op result goes through the correctness gate: its verdict must match
the expectation, a "fails" must carry a finite margin and a witness, and
a repeat of an op must reproduce the first run's digest exactly.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: trace-phase cycles per requested second, so a traced run does a fixed
#: amount of work for a given --seconds and its counts repeat exactly
TRACE_CYCLES_PER_S = {"grid-dense": 0.1, "sampling-small": 2.0, "cli-cold": 0.15}

#: repetitions of each scale in the sweep (median reported)
SWEEP_REPS = 3

#: cold default-suite runs spread over the timed phase of an in-process
#: workload, one per twelfth of --seconds of op time, started between
#: cycles; their time is not op time
SUITE_RUNS = 12


class Gate:
    """Collects correctness failures of op outcomes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first: dict = {}

    def check(self, op, out) -> None:
        self.attempted += 1
        problem = None
        if out is None:
            problem = "raised"
        elif out.verdict != op.expect:
            problem = f"verdict {out.verdict!r}, expected {op.expect!r}"
        elif out.verdict == "fails" and not (math.isfinite(out.margin) and out.witness is not None):
            problem = f"fails without a finite margin and a witness ({out.margin}, {out.witness})"
        else:
            seen = self.first.setdefault(op.name, out)
            if seen.digest != out.digest:
                problem = f"output differs from the first run (digest {out.digest} != {seen.digest})"
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{op.name}: {problem}")

    def digests(self) -> dict:
        return {
            name: {"verdict": o.verdict, "margin": _num(o.margin), "witness": _jsonable(o.witness), "digest": o.digest}
            for name, o in sorted(self.first.items())
        }


def _num(x: float):
    return x if math.isfinite(x) else repr(x)


def _jsonable(w):
    if isinstance(w, complex):
        return [w.real, w.imag]
    if isinstance(w, tuple):
        return list(w)
    return w


def run_op(op, gate: Gate) -> float:
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        out = None
    dt = time.perf_counter() - t0
    gate.check(op, out)
    return dt


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Workload:
    """Seeded ops of one workload, built inside this process."""

    def __init__(self, args):
        import numpy as np

        import merokit as mk

        import workloads as W

        self.np, self.mk, self.W = np, mk, W
        self.name = args.workload
        self.tmp = Path(args.tmp)
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.nonstrict = 0
        self.suite_runs = 0
        self.env = W.child_env(ROOT)
        self.spans_total: dict = {}
        suite = str(ROOT / "suites" / "default.json")
        self.suite_op = W.suite_op(suite, self._spawn)
        if self.name == "grid-dense":
            self.ops = W.grid_dense(mk, args.seed, args.tiny)
        elif self.name == "sampling-small":
            self.ops = W.sampling_small(mk, args.seed, args.tiny)
        else:
            paths = W.write_cli_inputs(mk, args.seed, self.tmp / "inputs")
            self.ops = W.cli_cold(paths, suite, self._spawn)
        if args.wrong_expectation:
            from dataclasses import replace

            first = self.ops[0]
            wrong = "fails" if first.expect != "fails" else "holds"
            self.ops[0] = replace(first, expect=wrong)
        self.traced_cli = False

    def _spawn(self, argv, what):
        W = self.W
        if self.traced_cli:
            out_file = self.tmp / "spans.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(out_file), *argv]
        else:
            cmd = [sys.executable, "-m", "merokit", *argv]
        code, stdout = W.spawn_cli(cmd, self.env, str(ROOT))
        if self.traced_cli and out_file.exists():
            import spans

            spans.merge(self.spans_total, json.loads(out_file.read_text()))
            out_file.unlink()
        out, nonstrict = W.cli_outcome(code, stdout, what)
        if what == "report":
            self.nonstrict += nonstrict
            self.suite_runs += 1
        return out


def cycles(work: Workload, gate: Gate, n: int, lat: list, suite_lat: list):
    for _ in range(n):
        for op in work.ops:
            dt = run_op(op, gate)
            lat.append(dt)
            if op.kind == "suite":
                suite_lat.append(dt)


def phase_run(args, work: Workload) -> dict:
    in_process = work.name != "cli-cold"
    warm = Gate()
    cycles(work, warm, 1, [], [])  # warm-up: untimed, but still gated
    if in_process:
        run_op(work.suite_op, warm)
    gate = Gate()
    gate.first = warm.first  # timed repeats must reproduce the warm-up outputs
    lat: list = []
    suite_lat: list = []
    busy = next_suite = 0.0
    while busy < args.seconds:
        t0 = time.perf_counter()
        cycles(work, gate, 1, lat, suite_lat)
        busy += time.perf_counter() - t0
        while in_process and busy >= next_suite and len(suite_lat) < SUITE_RUNS:
            next_suite += args.seconds / SUITE_RUNS
            suite_lat.append(run_op(work.suite_op, gate))
    who = resource.RUSAGE_CHILDREN if work.name == "cli-cold" else resource.RUSAGE_SELF
    return {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "warmup_attempted": warm.attempted,
        "warmup_failed": warm.failed,
        "messages": gate.messages,
        "wall_s": busy,
        "latencies_s": lat,
        "ops_per_cycle": len(work.ops),
        "suite_latencies_s": suite_lat,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "nonstrict_per_suite": work.nonstrict / work.suite_runs if work.suite_runs else None,
        "digests": gate.digests(),
    }


def sweep(work: Workload, seed: int, reps: int) -> dict:
    """Self time of five layers at three scales (median of ``reps``)."""
    import spans

    np, mk, W = work.np, work.mk, work.W
    rng = np.random.default_rng([seed, 4])
    prm = W.draw_params(rng, beta=1.0)
    atoms = W.draw_atoms(rng)
    op, cp = W._op(mk, prm), W._cp(mk, prm)
    stages = ("series.grid_eval", "operator.apply", "membership.margins", "bounds.conv_min", "generators.recurrence")
    out: dict = {}
    for label, (K, nr, na) in W.SCALES.items():
        grid = W._grid(mk, nr, na)
        per: dict = {s: [] for s in stages}
        for _ in range(reps):
            tr = spans.Tracer()
            with tr.patched():
                f = W._herglotz(mk, prm, atoms, K)
                mk.numeric_membership(op, cp, f, grid)
                mk.convolution_nonvanishing(op, cp, f, grid, W.DENSE_THETA)
            agg = tr.aggregate()
            for s in stages:
                per[s].append(agg[s]["self_ms"])
        for s in stages:
            out[f"{s}.ms.{label}"] = statistics.median(per[s])
    return out


def phase_trace(args, work: Workload, setup_spans: dict) -> dict:
    import spans

    n = 1 if args.tiny else max(1, round(args.seconds * TRACE_CYCLES_PER_S[work.name]))
    gate = Gate()
    cycles(work, gate, 1, [], [])  # warm-up
    t0 = time.perf_counter()
    cycles(work, gate, n, [], [])
    untraced = time.perf_counter() - t0
    work.nonstrict = work.suite_runs = 0
    work.traced_cli = True
    if work.name == "cli-cold":
        t0 = time.perf_counter()
        cycles(work, gate, n, [], [])
        traced = time.perf_counter() - t0
        layers: dict = {}
    else:
        tr = spans.Tracer()
        with tr.patched():
            t0 = time.perf_counter()
            cycles(work, gate, n, [], [])
            traced = time.perf_counter() - t0
        layers = tr.aggregate()
        run_op(work.suite_op, gate)  # a traced cold suite: the CLI layers on every workload
    work.traced_cli = False
    spans.merge(layers, work.spans_total)
    spans.merge(layers, setup_spans)
    return {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "messages": gate.messages,
        "cycles": n,
        "overhead_frac": traced / untraced - 1.0,
        "layers": layers,
        "nonstrict_per_suite": work.nonstrict / work.suite_runs if work.suite_runs else None,
        "sweep": sweep(work, args.seed, 1 if args.tiny else SWEEP_REPS),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_CYCLES_PER_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--wrong-expectation", action="store_true")
    args = ap.parse_args()
    # on SIGTERM, unwind so that a running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    setup_spans: dict = {}
    if args.phase == "trace":
        import merokit  # noqa: F401  - loaded first so its functions can be wrapped
        import spans

        tr = spans.Tracer()
        with tr.patched():
            work = Workload(args)
        setup_spans = tr.aggregate()
    else:
        work = Workload(args)
    print("ready", flush=True)
    if args.phase == "setup":
        return 0
    res = phase_run(args, work) if args.phase == "run" else phase_trace(args, work, setup_spans)
    res["env"] = {
        "numpy": work.np.__version__,
        "merokit_backend": work.mk.backend_name(),
        "blas_threads": blas_threads(),
    }
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
