"""Command-line front end.

Verbs
-----
phi      print one diagonal multiplier value
apply    run the operator over a stored series (coefficient, differential,
         inverse and integral routes)
gen      construct class members with a construction certificate
check    membership criteria (exact / sufficient / numeric / disk /
         subordination)
verify   bound checkers (coefficient bounds, distortion, convolution
         non-vanishing, partial-sum ratios)
nbhd     weighted-neighborhood tools (distance, radius, inclusion checks)
report   run a JSON suite of the verbs above and aggregate the outcomes

Exit codes: 0 for "holds" (or plain success), 1 for "fails", 2 for
"inconclusive", 64 for usage errors (bad flags, malformed input files,
domain violations).  JSON output is emitted with sorted keys, two-space
indentation and a trailing newline, so identical inputs give byte-identical
output; no timestamps or timings appear anywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bounds import (
    TailPolicy,
    coeff_bounds_report,
    convolution_nonvanishing,
    distortion_report,
    partial_sum_bounds,
)
from .generators import MeasureAtoms, SchwarzPoly, extremal_fn, from_herglotz, from_schwarz
from .membership import (
    ClassParams,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    disk_characterization,
    exact_membership_plus,
    numeric_membership,
    subordination_power_target,
    sufficient_condition,
)
from .neighborhoods import (
    WeightSeq,
    delta_star,
    distance,
    verify_inclusion_general,
    verify_inclusion_plus,
)
from .operator import (
    OperatorParams,
    apply_coeff,
    apply_differential,
    integral_operator,
    invert,
    phi,
)
from .series import LaurentSeries, SampleGrid, default_grid, json_number

USAGE_EXIT = 64

_EXIT = {HOLDS: 0, FAILS: 1, INCONCLUSIVE: 2}


class UsageError(Exception):
    """Bad invocation: flags, files or domain validation.  Exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


# ------------------------------------------------------------------ helpers

def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from None


def _read_op(path: str) -> OperatorParams:
    return OperatorParams.from_json_dict(_load_json(path))


def _read_op_cp(path: str) -> tuple[OperatorParams, ClassParams]:
    obj = _load_json(path)
    return OperatorParams.from_json_dict(obj), ClassParams.from_json_dict(obj)


def _read_series(path: str) -> LaurentSeries:
    return LaurentSeries.from_json_dict(_load_json(path))


def _read_grid(path: str | None) -> SampleGrid:
    if path is None:
        return default_grid()
    return SampleGrid.from_json_dict(_load_json(path))


def _need_float(obj: dict, key: str, where: str) -> float:
    if not isinstance(obj, dict) or key not in obj:
        raise UsageError(f"{where}.{key}: missing")
    return json_number(obj[key], f"{where}.{key}")


def _config(op=None, cp=None, grid=None, seed=None, **extra) -> dict:
    cfg: dict = {}
    if op is not None:
        cfg["operator"] = op.to_json_dict()
    if cp is not None:
        cfg["class"] = cp.to_json_dict()
    if grid is not None:
        cfg["grid"] = grid.to_json_dict()
        cfg["grid_digest"] = grid.digest()
    if seed is not None:
        cfg["seed"] = seed
    cfg.update(extra)
    return cfg


def _report_out(rep, config: dict) -> tuple[int, str]:
    obj = rep.to_json_dict()
    obj["config"] = config
    return _EXIT[rep.verdict], _dump(obj)


# ------------------------------------------------------------------ handlers

def _cmd_phi(args) -> tuple[int, str]:
    op = OperatorParams(args.lam, args.mu, args.m, args.p)
    return 0, f"{phi(op, args.k):.12g}\n"


def _cmd_apply(args) -> tuple[int, str]:
    op = _read_op(args.params)
    f = _read_series(args.series)
    if args.route == "coeff":
        g = apply_coeff(op, f)
    elif args.route == "differential":
        g = apply_differential(op, f)
    elif args.route == "invert":
        g = invert(op, f)
    else:
        if args.c is None:
            raise UsageError("--c is required for route=integral")
        g = integral_operator(f, args.c)
    obj = g.to_json_dict()
    extra = {"route": args.route}
    if args.c is not None:
        extra["c"] = args.c
    obj["config"] = _config(op=op, **extra)
    return 0, _dump(obj)


def _cmd_gen(args) -> tuple[int, str]:
    params = _load_json(args.params)
    op = OperatorParams.from_json_dict(params)
    if args.kind == "herglotz":
        if args.atoms is None:
            raise UsageError("--atoms is required for gen herglotz")
        alpha = _need_float(params, "alpha", "params")
        atoms = MeasureAtoms.from_json_dict(_load_json(args.atoms))
        f = from_herglotz(op, alpha, atoms, args.trunc)
        cert = {
            "construction": "herglotz",
            "alpha": alpha,
            "beta": 1.0,
            "atoms": atoms.to_json_dict()["atoms"],
            "note": "unit boundary measure; member of the beta = 1 class by construction",
        }
        cfg = _config(op=op, alpha=alpha, trunc_order=f.trunc_order)
    elif args.kind == "schwarz":
        cp = ClassParams.from_json_dict(params)
        if args.w is None:
            raise UsageError("--w is required for gen schwarz")
        w = SchwarzPoly.from_json_dict(_load_json(args.w))
        f = from_schwarz(op, cp, w, args.trunc)
        cert = {
            "construction": "schwarz",
            "w_coeffs": w.to_json_dict()["coeffs"],
            "note": "disk self-map plugged into the defining quotient identity",
        }
        cert.update(w.certificate())
        cfg = _config(op=op, cp=cp, trunc_order=f.trunc_order)
    else:
        cp = ClassParams.from_json_dict(params)
        if args.n is None:
            raise UsageError("--n is required for gen extremal")
        f = extremal_fn(op, cp, args.n)
        cert = {
            "construction": "extremal",
            "n": args.n,
            "coefficient": f.coeff(args.n).real,
            "note": "one-term function meeting the exact criterion with equality",
        }
        cfg = _config(op=op, cp=cp, n=args.n)
    obj = f.to_json_dict()
    obj["config"] = cfg
    obj["certificate"] = cert
    return 0, _dump(obj)


def _cmd_check(args) -> tuple[int, str]:
    op, cp = _read_op_cp(args.params)
    f = _read_series(args.series)
    grid = None
    if args.criterion == "exact":
        rep = exact_membership_plus(op, cp, f)
    elif args.criterion == "sufficient":
        rep = sufficient_condition(op, cp, f)
    else:
        grid = _read_grid(args.grid)
        if args.criterion == "numeric":
            rep = numeric_membership(op, cp, f, grid)
        elif args.criterion == "disk":
            rep = disk_characterization(op, cp, f, grid)
        else:
            rep = subordination_power_target(op, cp.alpha, f, grid)
    return _report_out(rep, _config(op=op, cp=cp, grid=grid, criterion=args.criterion))


def _cmd_verify(args) -> tuple[int, str]:
    op, cp = _read_op_cp(args.params)
    f = _read_series(args.series)
    what = args.what
    if what in ("coeff-general", "coeff-plus"):
        kind = "general" if what == "coeff-general" else "plus"
        rep = coeff_bounds_report(op, cp, f, kind)
        cfg = _config(op=op, cp=cp, check=what)
    elif what == "distortion":
        if args.r is None or args.which is None:
            raise UsageError("--r and --which are required for verify distortion")
        mode = args.tail_mode
        if mode is None:
            mode = "exact_support" if args.which == "f_plus" else "tail_estimate"
        rep = distortion_report(op, cp, f, args.r, args.which, TailPolicy(mode), args.angles)
        cfg = _config(
            op=op, cp=cp, check=what, r=args.r, which=args.which,
            tail_mode=mode, angles=args.angles,
        )
    elif what == "conv-nonvanish":
        grid = _read_grid(args.grid)
        rep = convolution_nonvanishing(op, cp, f, grid, args.theta_count, args.threshold)
        cfg = _config(op=op, cp=cp, grid=grid, check=what, theta_count=args.theta_count)
        if args.threshold is not None:
            cfg["threshold"] = args.threshold
    else:
        if args.m_cut is None:
            raise UsageError("--m-cut is required for verify partial-sums")
        grid = _read_grid(args.grid)
        rep = partial_sum_bounds(op, cp, f, args.m_cut, grid)
        cfg = _config(op=op, cp=cp, grid=grid, check=what, m_cut=args.m_cut)
    return _report_out(rep, cfg)


def _cmd_nbhd(args) -> tuple[int, str]:
    what = args.what
    if what == "delta":
        op = _read_op(args.params)
        return 0, f"{delta_star(op):.12g}\n"
    if args.series is None:
        raise UsageError("--series is required for this nbhd command")
    op, cp = _read_op_cp(args.params)
    if what == "distance":
        if args.other is None:
            raise UsageError("--other is required for nbhd distance")
        f = _read_series(args.series)
        g = _read_series(args.other)
        seq = WeightSeq(args.kind, op, cp)
        return 0, f"{distance(seq, f, g):.12g}\n"
    f = _read_series(args.series)
    if what == "verify-plus":
        rep = verify_inclusion_plus(op, cp, f, trials=args.trials, seed=args.seed)
        cfg = _config(op=op, cp=cp, seed=args.seed, check=what, trials=args.trials)
        return _report_out(rep, cfg)
    delta = args.delta
    if delta is None:
        delta = delta_star(op)
        if delta <= 0.0:
            raise UsageError(
                "delta: the operator radius is degenerate (0); pass --delta explicitly"
            )
    grid = _read_grid(args.grid)
    rep = verify_inclusion_general(
        op, cp, f, delta,
        eps_trials=args.eps_trials, trials=args.trials, grid=grid, seed=args.seed,
    )
    cfg = _config(
        op=op, cp=cp, grid=grid, seed=args.seed, check=what,
        delta=delta, trials=args.trials, eps_trials=args.eps_trials,
    )
    return _report_out(rep, cfg)


# --------------------------------------------------------------- suite runner

def _matches(exit_code, verdict, expect) -> bool:
    if expect is None:
        return exit_code in (0, 1, 2)
    if isinstance(expect, bool):
        return False
    if isinstance(expect, int):
        return exit_code == expect
    if isinstance(expect, str):
        if verdict is not None:
            return verdict == expect
        return _EXIT.get(expect, -1) == exit_code
    return False


def _run_item(item, parser: argparse.ArgumentParser) -> dict:
    res: dict = {"id": "", "exit_code": None, "verdict": None, "ok": False, "output": None}
    try:
        if not isinstance(item, dict):
            raise UsageError("suite item: expected an object")
        res["id"] = str(item.get("id", ""))
        argv = item.get("argv")
        if (
            not isinstance(argv, list)
            or not argv
            or not all(isinstance(a, str) for a in argv)
        ):
            raise UsageError("suite item: 'argv' must be a non-empty list of strings")
        if argv[0] == "report":
            raise UsageError("suite item: nested 'report' is not allowed")
        code, text, _ = _run_argv(parser, argv)
        res["exit_code"] = code
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = text.strip()
        res["output"] = payload
        if isinstance(payload, dict):
            res["verdict"] = payload.get("verdict")
    except UsageError as exc:
        res["exit_code"] = USAGE_EXIT
        res["error"] = str(exc)
    except SystemExit as exc:
        res["exit_code"] = USAGE_EXIT
        res["error"] = f"argument parsing exited ({exc.code})"
    except Exception as exc:  # noqa: BLE001 - per-item isolation is the contract
        res["exit_code"] = USAGE_EXIT
        res["error"] = f"{type(exc).__name__}: {exc}"
    expect = item.get("expect") if isinstance(item, dict) else None
    res["ok"] = _matches(res["exit_code"], res["verdict"], expect)
    return res


def _table(results) -> str:
    wid = max([len(str(r.get("id") or "?")) for r in results] + [2])
    rows = [f"{'id':<{wid}}  exit  {'verdict':<12}  ok"]
    for r in results:
        verdict = r.get("verdict") or "-"
        rows.append(
            f"{str(r.get('id') or '?'):<{wid}}  {r['exit_code']:>4}  "
            f"{verdict:<12}  {'yes' if r['ok'] else 'NO'}"
        )
    n_ok = sum(1 for r in results if r["ok"])
    rows.append(f"{n_ok}/{len(results)} items as expected")
    return "\n".join(rows) + "\n"


def _cmd_report(args) -> tuple[int, str]:
    obj = _load_json(args.suite)
    if not isinstance(obj, dict) or not isinstance(obj.get("items"), list):
        raise UsageError(f"{args.suite}: expected an object with an 'items' list")
    items = obj["items"]
    if not items:
        return 0, _dump({"all_expected": True, "items": []})
    parser = _build_parser(base=Path(args.suite).resolve().parent)
    results = [_run_item(it, parser) for it in items]
    sys.stderr.write(_table(results))
    all_ok = all(r["ok"] for r in results)
    return (0 if all_ok else 1), _dump({"all_expected": all_ok, "items": results})


# -------------------------------------------------------------------- parser

def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_params_series(sp, path, series: bool = True) -> None:
    sp.add_argument("--params", type=path, required=True, help="merged parameter JSON file")
    if series:
        sp.add_argument("--series", type=path, required=True, help="series JSON file")


def _build_parser(base: Path | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  With ``base`` (a suite's directory), relative file
    paths resolve against it."""

    def path(text: str) -> str:
        return text if base is None or Path(text).is_absolute() else str(base / text)

    parser = _Parser(prog="merokit", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    sp = sub.add_parser("phi", help="print one diagonal multiplier value")
    sp.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    sp.add_argument("--mu", type=_finite_float, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_phi)

    sp = sub.add_parser("apply", help="run the operator over a stored series")
    _add_params_series(sp, path)
    sp.add_argument(
        "--route", required=True, choices=("coeff", "differential", "invert", "integral")
    )
    sp.add_argument("--c", type=_finite_float, help="integral route parameter (> 0)")
    sp.add_argument("--out", type=path)
    sp.set_defaults(func=_cmd_apply)

    sp = sub.add_parser("gen", help="construct class members")
    sp.add_argument("kind", choices=("herglotz", "schwarz", "extremal"))
    _add_params_series(sp, path, series=False)
    sp.add_argument("--atoms", type=path, help="boundary measure JSON (herglotz)")
    sp.add_argument("--w", type=path, help="disk self-map JSON (schwarz)")
    sp.add_argument("--n", type=int, help="extremal coefficient index")
    sp.add_argument("--trunc", type=int, help="truncation order override")
    sp.add_argument("--out", type=path)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("check", help="membership criteria")
    sp.add_argument(
        "--criterion",
        required=True,
        choices=("exact", "sufficient", "numeric", "disk", "subordination"),
    )
    _add_params_series(sp, path)
    sp.add_argument("--grid", type=path, help="sample grid JSON (numeric criteria)")
    sp.add_argument("--out", type=path)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("verify", help="bound checkers")
    sp.add_argument(
        "what",
        choices=(
            "coeff-general", "coeff-plus", "distortion", "conv-nonvanish", "partial-sums"
        ),
    )
    _add_params_series(sp, path)
    sp.add_argument("--r", type=_finite_float, help="radius (distortion)")
    sp.add_argument(
        "--which", choices=("f_plus", "f_general", "fprime_general"),
        help="distortion target",
    )
    sp.add_argument(
        "--tail-mode", choices=("exact_support", "tail_estimate", "divergent_flag")
    )
    sp.add_argument("--angles", type=int, default=720, help="circle samples (distortion)")
    sp.add_argument("--theta-count", type=int, default=360, help="phase samples (conv)")
    sp.add_argument("--threshold", type=_finite_float, help="non-vanishing cutoff (conv)")
    sp.add_argument("--m-cut", type=int, help="cut index (partial-sums)")
    sp.add_argument("--grid", type=path, help="sample grid JSON")
    sp.add_argument("--out", type=path)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("nbhd", help="weighted-neighborhood tools")
    sp.add_argument("what", choices=("distance", "delta", "verify-plus", "verify-general"))
    _add_params_series(sp, path, series=False)
    sp.add_argument("--series", type=path, help="series JSON file")
    sp.add_argument("--other", type=path, help="second series JSON (distance)")
    sp.add_argument("--kind", choices=("plus", "general"), default="plus")
    sp.add_argument("--delta", type=_finite_float, help="neighborhood radius (verify-general)")
    sp.add_argument("--trials", type=int, default=100, help="random perturbation count")
    sp.add_argument("--eps-trials", type=int, default=8, help="hypothesis samples")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", type=path, help="sample grid JSON (verify-general)")
    sp.add_argument("--out", type=path)
    sp.set_defaults(func=_cmd_nbhd)

    sp = sub.add_parser("report", help="run a JSON suite and aggregate")
    sp.add_argument("--suite", required=True, help="suite JSON file")
    sp.add_argument("--out", type=path)
    sp.set_defaults(func=_cmd_report)

    return parser


def _run_argv(parser: argparse.ArgumentParser, argv) -> tuple[int, str, bool]:
    """Parse argv, run its handler and write its ``--out`` file, if any.

    Returns the exit code, the output text and whether ``--out`` took the
    text.  Domain errors (ValueError, OverflowError) and an unwritable
    ``--out`` become usage errors.
    """
    args = parser.parse_args(argv)
    try:
        code, text = args.func(args)
    except (ValueError, OverflowError) as exc:
        raise UsageError(str(exc)) from None
    out = getattr(args, "out", None)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"{out}: {exc}") from None
    return code, text, bool(out)


def main(argv=None) -> int:
    try:
        code, text, written = _run_argv(_build_parser(), argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if not written:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
