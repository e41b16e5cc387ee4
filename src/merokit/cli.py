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
domain violations, float overflow).  JSON output is strict, with sorted
keys, two-space indentation and a trailing newline, so identical inputs
give byte-identical output; no timestamps or timings appear anywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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
    def __init__(self, *args, allow_abbrev: bool = False, **kwargs):
        # no flag is expanded from a prefix, in any subparser
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


# ------------------------------------------------------------------ helpers

def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


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


def _config(op=None, cp=None, grid=None, **extra) -> dict:
    """The inputs that determined a result; an extra that is None was not given."""
    cfg: dict = {}
    if op is not None:
        cfg["operator"] = op.to_json_dict()
    if cp is not None:
        cfg["class"] = cp.to_json_dict()
    if grid is not None:
        cfg["grid"] = grid.to_json_dict()
        cfg["grid_digest"] = grid.digest()
    cfg.update((key, value) for key, value in extra.items() if value is not None)
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
    if (args.c is None) == (args.route == "integral"):
        raise UsageError("--c is required for route=integral and applies to no other route")
    op = _read_op(args.params)
    f = _read_series(args.series)
    if args.route == "coeff":
        g = apply_coeff(op, f)
    elif args.route == "differential":
        g = apply_differential(op, f)
    elif args.route == "invert":
        g = invert(op, f)
    else:
        g = integral_operator(f, args.c)
    obj = g.to_json_dict()
    obj["config"] = _config(op=op, route=args.route, c=args.c)
    return 0, _dump(obj)


def _gen_out(f: LaurentSeries, cfg: dict, cert: dict) -> tuple[int, str]:
    obj = f.to_json_dict()
    obj["config"] = cfg
    obj["certificate"] = cert
    return 0, _dump(obj)


def _gen_herglotz(args) -> tuple[int, str]:
    params = _load_json(args.params)
    op = OperatorParams.from_json_dict(params)
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
    return _gen_out(f, _config(op=op, alpha=alpha, trunc_order=f.trunc_order), cert)


def _gen_schwarz(args) -> tuple[int, str]:
    op, cp = _read_op_cp(args.params)
    w = SchwarzPoly.from_json_dict(_load_json(args.w))
    f = from_schwarz(op, cp, w, args.trunc)
    cert = {
        "construction": "schwarz",
        "w_coeffs": w.to_json_dict()["coeffs"],
        "note": "disk self-map plugged into the defining quotient identity",
    }
    cert.update(w.certificate())
    return _gen_out(f, _config(op=op, cp=cp, trunc_order=f.trunc_order), cert)


def _gen_extremal(args) -> tuple[int, str]:
    op, cp = _read_op_cp(args.params)
    f = extremal_fn(op, cp, args.n)
    cert = {
        "construction": "extremal",
        "n": args.n,
        "coefficient": f.coeff(args.n).real,
        "note": "one-term function meeting the exact criterion with equality",
    }
    return _gen_out(f, _config(op=op, cp=cp, n=args.n), cert)


def _read_inputs(args) -> tuple[OperatorParams, ClassParams, LaurentSeries]:
    op, cp = _read_op_cp(args.params)
    return op, cp, _read_series(args.series)


def _cmd_check(args) -> tuple[int, str]:
    if args.grid is not None and args.criterion in ("exact", "sufficient"):
        raise UsageError("--grid applies only to criterion=numeric, disk and subordination")
    op, cp, f = _read_inputs(args)
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


def _verify_coeff(args) -> tuple[int, str]:
    op, cp, f = _read_inputs(args)
    rep = coeff_bounds_report(op, cp, f, args.what.removeprefix("coeff-"))
    return _report_out(rep, _config(op=op, cp=cp, check=args.what))


def _verify_distortion(args) -> tuple[int, str]:
    op, cp, f = _read_inputs(args)
    mode = args.tail_mode or ("exact_support" if args.which == "f_plus" else "tail_estimate")
    rep = distortion_report(op, cp, f, args.r, args.which, TailPolicy(mode), args.angles)
    return _report_out(rep, _config(
        op=op, cp=cp, check=args.what, r=args.r, which=args.which,
        tail_mode=mode, angles=args.angles,
    ))


def _verify_conv(args) -> tuple[int, str]:
    op, cp, f = _read_inputs(args)
    grid = _read_grid(args.grid)
    rep = convolution_nonvanishing(op, cp, f, grid, threshold=args.threshold)
    return _report_out(rep, _config(op=op, cp=cp, grid=grid, check=args.what, threshold=args.threshold))


def _verify_partial_sums(args) -> tuple[int, str]:
    op, cp, f = _read_inputs(args)
    grid = _read_grid(args.grid)
    rep = partial_sum_bounds(op, cp, f, args.m_cut, grid)
    return _report_out(rep, _config(op=op, cp=cp, grid=grid, check=args.what, m_cut=args.m_cut))


def _nbhd_delta(args) -> tuple[int, str]:
    return 0, f"{delta_star(_read_op(args.params)):.12g}\n"


def _nbhd_distance(args) -> tuple[int, str]:
    op, cp, f = _read_inputs(args)
    g = _read_series(args.other)
    return 0, f"{distance(WeightSeq(args.kind, op, cp), f, g):.12g}\n"


def _nbhd_verify_plus(args) -> tuple[int, str]:
    op, cp, f = _read_inputs(args)
    return _report_out(verify_inclusion_plus(op, cp, f), _config(op=op, cp=cp, check=args.what))


def _nbhd_verify_general(args) -> tuple[int, str]:
    op, cp, f = _read_inputs(args)
    delta = args.delta
    if delta is None:
        delta = delta_star(op)
        if delta <= 0.0:
            raise UsageError(
                "delta: the operator radius is degenerate (0); pass --delta explicitly"
            )
    grid = _read_grid(args.grid)
    rep = verify_inclusion_general(op, cp, f, delta, grid=grid)
    return _report_out(rep, _config(op=op, cp=cp, grid=grid, check=args.what, delta=delta))


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
        # argparse prints --help to stdout, where the report's JSON goes
        with contextlib.redirect_stdout(io.StringIO()):
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

def _checked(cast, ok, expected: str):
    """argparse type: ``cast`` the flag's text, then refuse a value that fails ``ok``."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_finite_float = _checked(float, math.isfinite, "a finite number")
_int64 = _checked(int, lambda value: -(2**63) <= value < 2**63, "an integer within int64")


def _build_parser(base: Path | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  With ``base`` (a suite's directory), relative file
    paths resolve against it."""

    def path(text: str) -> str:
        return text if base is None or Path(text).is_absolute() else str(base / text)

    flags = {  # every flag, by name; each command takes the ones it uses
        "--lambda": dict(dest="lam", type=_finite_float, required=True),
        "--mu": dict(type=_finite_float, required=True),
        "--m": dict(type=_int64, required=True),
        "--p": dict(type=_int64, required=True),
        "--k": dict(type=_int64, required=True),
        "--criterion": dict(
            required=True, choices=("exact", "sufficient", "numeric", "disk", "subordination")
        ),
        "--params": dict(type=path, required=True, help="merged parameter JSON file"),
        "--series": dict(type=path, required=True, help="series JSON file"),
        "--route": dict(required=True, choices=("coeff", "differential", "invert", "integral")),
        "--c": dict(type=_finite_float, help="integral route parameter (> 0)"),
        "--atoms": dict(type=path, required=True, help="boundary measure JSON"),
        "--w": dict(type=path, required=True, help="disk self-map JSON"),
        "--n": dict(type=_int64, required=True, help="extremal coefficient index"),
        "--trunc": dict(type=_int64, help="truncation order override"),
        "--r": dict(type=_finite_float, required=True, help="radius"),
        "--which": dict(required=True, choices=("f_plus", "f_general", "fprime_general")),
        "--tail-mode": dict(choices=("exact_support", "tail_estimate", "divergent_flag")),
        "--angles": dict(type=_int64, default=720, help="circle samples"),
        "--threshold": dict(type=_finite_float, help="non-vanishing cutoff"),
        "--m-cut": dict(type=_int64, required=True, help="cut index"),
        "--other": dict(type=path, required=True, help="second series JSON"),
        "--kind": dict(choices=("plus", "general"), default="plus"),
        "--delta": dict(type=_finite_float, help="neighborhood radius"),
        "--grid": dict(type=path, help="sample grid JSON"),
        "--suite": dict(required=True, help="suite JSON file"),
        "--out": dict(type=path),
    }

    def command(subparsers, name: str, func, names, out: bool = True, **kwargs) -> None:
        sp = subparsers.add_parser(name, **kwargs)
        for flag in names + ("--out",) * out:
            sp.add_argument(flag, **flags[flag])
        sp.set_defaults(func=func)

    def kinds(name: str, help: str, dest: str, table) -> None:
        leaves = sub.add_parser(name, help=help).add_subparsers(
            dest=dest, required=True, metavar=dest
        )
        for kind, func, names in table:
            command(leaves, kind, func, ("--params", *names))

    parser = _Parser(prog="merokit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    command(sub, "phi", _cmd_phi, ("--lambda", "--mu", "--m", "--p", "--k"), out=False,
            help="print one diagonal multiplier value")
    command(sub, "apply", _cmd_apply, ("--params", "--series", "--route", "--c"),
            help="run the operator over a stored series")
    kinds("gen", "construct class members", "kind", (
        ("herglotz", _gen_herglotz, ("--atoms", "--trunc")),
        ("schwarz", _gen_schwarz, ("--w", "--trunc")),
        ("extremal", _gen_extremal, ("--n",)),
    ))
    command(sub, "check", _cmd_check, ("--criterion", "--params", "--series", "--grid"),
            help="membership criteria")
    kinds("verify", "bound checkers", "what", (
        ("coeff-general", _verify_coeff, ("--series",)),
        ("coeff-plus", _verify_coeff, ("--series",)),
        ("distortion", _verify_distortion,
         ("--series", "--r", "--which", "--tail-mode", "--angles")),
        ("conv-nonvanish", _verify_conv, ("--series", "--threshold", "--grid")),
        ("partial-sums", _verify_partial_sums, ("--series", "--m-cut", "--grid")),
    ))
    kinds("nbhd", "weighted-neighborhood tools", "what", (
        ("distance", _nbhd_distance, ("--series", "--other", "--kind")),
        ("delta", _nbhd_delta, ()),
        ("verify-plus", _nbhd_verify_plus, ("--series",)),
        ("verify-general", _nbhd_verify_general, ("--series", "--delta", "--grid")),
    ))
    command(sub, "report", _cmd_report, ("--suite",), help="run a JSON suite and aggregate")
    return parser


def _run_argv(parser: argparse.ArgumentParser, argv) -> tuple[int, str, bool]:
    """Parse argv, run its handler and write its ``--out`` file, if any.

    Returns the exit code, the output text and whether ``--out`` took the
    text.  Domain errors (ValueError, OverflowError), allocations too large
    (MemoryError) and an unwritable ``--out`` become usage errors.
    """
    args = parser.parse_args(argv)
    try:
        code, text = args.func(args)
    except (ValueError, OverflowError) as exc:
        raise UsageError(str(exc)) from None
    except MemoryError as exc:
        raise UsageError(f"out of memory: the input is too large ({exc})") from None
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
