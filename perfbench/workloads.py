"""Seeded inputs and operation mixes of the three workloads.

Every input is drawn from ``numpy.random.default_rng(seed)``; merokit
only ever receives the generated objects (in process) or the JSON files
written from them (CLI).  Parameters are drawn by rejection against the
closed-form premises below, computed here and not by merokit, so that
every operation has a known expected outcome on every seed.

An op is a closure returning an ``Outcome``.  In-process ops call merokit
through attribute lookups on the package at call time, so the wrappers
the traced run installs are seen.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: (stored-coefficient order K, number of radii, angles per radius)
SCALES = {"k64": (64, 5, 720), "k256": (256, 10, 2048), "k1024": (1024, 20, 4096)}

#: phase samples of the convolution scan at the dense scale; theta = 90
#: keeps the materialized angle-by-point matrix near 270 MB
DENSE_THETA = 90

#: exit code of each verdict, as documented for the merokit CLI
VERDICT_EXIT = {"holds": 0, "fails": 1, "inconclusive": 2}


@dataclass(frozen=True)
class Outcome:
    verdict: str
    margin: float
    witness: object
    digest: str


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Outcome]
    expect: str
    kind: str = "op"  # "suite" marks cold report runs in cli-cold


def digest_of(verdict: str, margin: float, witness) -> str:
    if isinstance(witness, complex):
        witness = (witness.real.hex(), witness.imag.hex())
    elif isinstance(witness, float):
        witness = witness.hex()
    blob = repr((verdict, float(margin).hex(), witness)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def report_outcome(rep) -> Outcome:
    w = rep.witness
    w = complex(w) if isinstance(w, (complex, np.complexfloating)) else w
    w = int(w) if isinstance(w, (int, np.integer)) else w
    return Outcome(rep.verdict, float(rep.worst_margin), w, digest_of(rep.verdict, rep.worst_margin, w))


def check_outcome(ok: bool, residual: float) -> Outcome:
    verdict = "ok" if ok else "mismatch"
    return Outcome(verdict, float(residual), None, digest_of(verdict, residual, None))


# ------------------------------------------------------------ parameters
# Closed forms from docs: phi_k = (1 + (k+p)(lam - mu + (k+p+1) lam mu))^m,
# criterion weight w_k = [k(beta+1) + p(1 + beta(2 alpha - 1))] phi_k,
# budget 2 p beta (1 - alpha).

def phi_k(lam, mu, m, p, k):
    j = np.asarray(k, dtype=float) + p
    return (1.0 + j * (lam - mu + (j + 1.0) * lam * mu)) ** m


def crit_weight(prm, k):
    lam, mu, m, p, a, b = (prm[x] for x in ("lambda", "mu", "m", "p", "alpha", "beta"))
    k = np.asarray(k, dtype=float)
    return (k * (b + 1.0) + p * (1.0 + b * (2.0 * a - 1.0))) * phi_k(lam, mu, m, p, k)


def budget(prm):
    return 2.0 * prm["p"] * prm["beta"] * (1.0 - prm["alpha"])


def draw_params(rng, *, p=None, beta=None, alpha=(0.0, 0.6)) -> dict:
    lam = float(rng.uniform(0.5, 1.0))
    return {
        "lambda": lam,
        "mu": float(rng.uniform(0.0, 0.5 * lam)),
        "m": int(rng.integers(1, 3)),
        "p": int(rng.integers(1, 3)) if p is None else p,
        "alpha": float(rng.uniform(*alpha)),
        "beta": float(rng.uniform(0.3, 0.9)) if beta is None else beta,
    }


def draw_ratio_params(rng, m_cut: int) -> dict:
    """Parameters where the partial-sum premises hold: ratio weights
    w_k / budget > 1 and strictly increasing on [1-p, m_cut + 8]."""
    while True:
        prm = draw_params(rng, p=1, beta=1.0, alpha=(0.4, 0.8))
        ks = np.arange(1 - prm["p"], m_cut + 9)
        th = crit_weight(prm, ks) / budget(prm)
        if np.all(th > 1.0 + 1e-6) and np.all(np.diff(th) > 0):
            return prm


def draw_atoms(rng) -> list:
    n = int(rng.integers(2, 5))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    w = rng.dirichlet(np.ones(n))
    w[-1] = 1.0 - float(np.sum(w[:-1]))
    return [[[float(np.cos(t)), float(np.sin(t))], float(x)] for t, x in zip(angles, w)]


def draw_schwarz(rng) -> list:
    """Random polynomial w(z) = sum c_i z^i scaled to sum |c_i| < 1, so
    both the boundary-sampling and the coefficient-sum certificates hold."""
    d = int(rng.integers(2, 6))
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    c *= float(rng.uniform(0.3, 0.8)) / float(np.sum(np.abs(c)))
    return [[float(x.real), float(x.imag)] for x in c]


def draw_plus_member(rng, prm) -> list:
    """Nonnegative coefficients, exactly supported, with the weighted sum
    sum_k s_k a_k = frac / phi_{1-p}(m=1): the neighborhood premise holds."""
    p = prm["p"]
    ks = np.arange(1 - p, 1 - p + 6)
    s = crit_weight(prm, ks) / budget(prm)
    base = 1.0 + (prm["lambda"] - prm["mu"] + 2.0 * prm["lambda"] * prm["mu"])  # phi at k=1-p, m=1
    frac = float(rng.uniform(0.3, 0.9)) / base
    mass = rng.dirichlet(np.ones(len(ks)))
    coeffs = np.where(s > 1e-6, frac * mass / np.where(s > 1e-6, s, 1.0), 0.0)
    return [[float(x), 0.0] for x in coeffs]


def series_dict(p: int, coeffs: list, exact: bool) -> dict:
    out = {"pole_order": p, "trunc_order": len(coeffs) - p, "coeffs": coeffs}
    if exact:
        out["exact_support"] = True
    return out


# -------------------------------------------------------- in-process helpers

def _op(mk, prm):
    return mk.OperatorParams(prm["lambda"], prm["mu"], prm["m"], prm["p"])


def _cp(mk, prm):
    return mk.ClassParams(prm["alpha"], prm["beta"])


def _grid(mk, radii_count: int, angles: int):
    return mk.SampleGrid(tuple(float(r) for r in np.linspace(0.1, 0.9, radii_count)), angles)


def _herglotz(mk, prm, atoms, K):
    measure = mk.MeasureAtoms(tuple((complex(*x), w) for x, w in atoms))
    return mk.from_herglotz(_op(mk, prm), prm["alpha"], measure, K)


def _schwarz(mk, prm, coeffs, K):
    return mk.from_schwarz(_op(mk, prm), _cp(mk, prm), mk.SchwarzPoly(tuple(complex(*c) for c in coeffs)), K)


def _first_transformed(mk, prm, f) -> complex:
    """Coefficient of z^(1-p) of the operator transform of f."""
    return mk.apply_coeff(_op(mk, prm), f).coeff(1 - prm["p"])


def herglotz_check(mk, prm, atoms, K) -> Outcome:
    """from_herglotz, checked against z^p F = prod (1 - x z)^(c w):
    its z^1 coefficient is -c sum w_j x_j, c = 2 p (1 - alpha)."""
    f = _herglotz(mk, prm, atoms, K)
    c = 2.0 * prm["p"] * (1.0 - prm["alpha"])
    want = -c * sum(w * complex(*x) for x, w in atoms)
    res = abs(_first_transformed(mk, prm, f) - want)
    return check_outcome(f.trunc_order == K and res <= 1e-9, res)


def schwarz_check(mk, prm, coeffs, K) -> Outcome:
    """from_schwarz, checked against log(z^p F) = -2 p (1-alpha) beta c_1 z + O(z^2)."""
    f = _schwarz(mk, prm, coeffs, K)
    want = -2.0 * prm["p"] * (1.0 - prm["alpha"]) * prm["beta"] * complex(*coeffs[0])
    res = abs(_first_transformed(mk, prm, f) - want)
    return check_outcome(f.trunc_order == K and res <= 1e-9, res)


def routes_check(mk, prm, f) -> Outcome:
    """apply_differential against apply_coeff: the two routes must agree."""
    op = _op(mk, prm)
    g = mk.apply_differential(op, f)
    h = mk.apply_coeff(op, f)
    scale = max(1.0, float(np.max(np.abs(h.coeffs))))
    res = float(np.max(np.abs(g.coeffs - h.coeffs))) / scale + abs(g.lead - h.lead)
    return check_outcome(res <= 1e-9, res)


# ----------------------------------------------------------------- grid-dense

def grid_dense(mk, seed: int, tiny: bool = False) -> list[Op]:
    """Few large checks at K=1024 on a 20x4096 grid."""
    rng = np.random.default_rng([seed, 1])
    K, nr, na = SCALES["k64" if tiny else "k1024"]
    theta = 16 if tiny else DENSE_THETA
    grid = _grid(mk, nr, na)
    ph = draw_params(rng, beta=1.0)
    h1 = _herglotz(mk, ph, draw_atoms(rng), K)
    h2 = _herglotz(mk, ph, draw_atoms(rng), K)
    pd = draw_params(rng, alpha=(0.0, 0.5))
    s1 = _schwarz(mk, pd, draw_schwarz(rng), K)
    m_cut = int(rng.integers(1, 4))
    pr = draw_ratio_params(rng, m_cut)
    r1 = mk.ratio_extremal(_op(mk, pr), _cp(mk, pr), m_cut, K)
    bad = h1.with_coeff(1, h1.coeff(1) + 4.0 * budget(ph))  # non-member: one coefficient inflated
    op_h, cp_h = _op(mk, ph), _cp(mk, ph)
    op_d, cp_d = _op(mk, pd), _cp(mk, pd)
    op_r, cp_r = _op(mk, pr), _cp(mk, pr)
    R = report_outcome
    # Eleven ops: three light containment checks, five grid checks of
    # similar cost (the median falls in their middle) and three
    # convolution scans, so that in a 30 s run the tail sample lies
    # inside the scans' own spread rather than between two op kinds.
    return [
        Op("numeric_membership.h1", lambda: R(mk.numeric_membership(op_h, cp_h, h1, grid)), "holds"),
        Op("convolution_nonvanishing.h1", lambda: R(mk.convolution_nonvanishing(op_h, cp_h, h1, grid, theta)), "holds"),
        Op("subordination_power_target.h1", lambda: R(mk.subordination_power_target(op_h, ph["alpha"], h1, grid)), "holds"),
        Op("disk_characterization.s1", lambda: R(mk.disk_characterization(op_d, cp_d, s1, grid)), "holds"),
        Op("convolution_nonvanishing.h2", lambda: R(mk.convolution_nonvanishing(op_h, cp_h, h2, grid, theta)), "holds"),
        Op("partial_sum_bounds.r1", lambda: R(mk.partial_sum_bounds(op_r, cp_r, r1, m_cut, grid)), "holds"),
        Op("subordination_power_target.h2", lambda: R(mk.subordination_power_target(op_h, ph["alpha"], h2, grid)), "holds"),
        Op("numeric_membership.nonmember", lambda: R(mk.numeric_membership(op_h, cp_h, bad, grid)), "fails"),
        Op("convolution_nonvanishing.s1", lambda: R(mk.convolution_nonvanishing(op_d, cp_d, s1, grid, theta)), "holds"),
        Op("subordination_power_target.s1", lambda: R(mk.subordination_power_target(op_d, pd["alpha"], s1, grid)), "holds"),
        Op("numeric_membership.h2", lambda: R(mk.numeric_membership(op_h, cp_h, h2, grid)), "holds"),
    ]


# ------------------------------------------------------------- sampling-small

def sampling_small(mk, seed: int, tiny: bool = False) -> list[Op]:
    """Many small calls at the default scale (K = 64 - p, 5x720 grid)."""
    rng = np.random.default_rng([seed, 2])
    K_gen = 63 if tiny else 1023
    grid = _grid(mk, 5, 720)
    # p = 1: at p = 2 the eps-shift of the inclusion hypothesis leaves the
    # class for all but very small delta
    ph = draw_params(rng, p=1, beta=1.0)
    op_h, cp_h = _op(mk, ph), _cp(mk, ph)
    atoms = draw_atoms(rng)
    h = _herglotz(mk, ph, atoms, None)
    pd = draw_params(rng, alpha=(0.0, 0.5))
    w = draw_schwarz(rng)
    pn = draw_params(rng, p=1, alpha=(0.1, 0.6))
    op_n, cp_n = _op(mk, pn), _cp(mk, pn)
    plus = mk.LaurentSeries.from_json_dict(series_dict(1, draw_plus_member(rng, pn), True))
    k_over = int(rng.integers(1, 4))
    over = plus.with_coeff(k_over, plus.coeff(k_over) + 2.0 * budget(pn) / float(crit_weight(pn, k_over)))
    tail = mk.TailPolicy("tail_estimate")
    r, r2 = (float(x) for x in rng.uniform(0.3, 0.8, size=2))
    nb_seed = int(rng.integers(0, 2**31))
    # the eps-shift acts on z^p, which the operator scales by phi_p
    delta = 0.005 / float(phi_k(ph["lambda"], ph["mu"], ph["m"], ph["p"], ph["p"]))
    eps, trials = (2, 4) if tiny else (8, 32)
    # members for the direct grid checks, from a stream of their own so
    # that the draws above do not depend on how many there are
    rng_m = np.random.default_rng([seed, 2, 1])
    m1, m2, m3, m4, m5 = (_herglotz(mk, ph, draw_atoms(rng_m), None) for _ in range(5))
    bad = m1.with_coeff(1, m1.coeff(1) + 4.0 * budget(ph))  # non-member: one coefficient inflated

    def nm(f):
        return lambda: R(mk.numeric_membership(op_h, cp_h, f, grid))

    R = report_outcome
    # Seventeen ops: five cheap coefficient checks and two distortion
    # checks below 1 ms, six direct numeric_membership calls of about
    # 1.6 ms each, and four heavy ones.  The median falls inside the six
    # grid checks, whose cost does not depend on the seed.
    return [
        Op("verify_inclusion_general.h", lambda: R(mk.verify_inclusion_general(op_h, cp_h, h, delta, eps, trials, grid, nb_seed)), "holds"),
        Op("numeric_membership.m1", nm(m1), "holds"),
        Op("exact_membership_plus.member", lambda: R(mk.exact_membership_plus(op_n, cp_n, plus)), "holds"),
        Op("verify_inclusion_plus.member", lambda: R(mk.verify_inclusion_plus(op_n, cp_n, plus, 10 if tiny else 100, nb_seed)), "holds"),
        Op("numeric_membership.m2", nm(m2), "holds"),
        Op("distortion_report.f_general", lambda: R(mk.distortion_report(op_h, cp_h, h, r, "f_general", tail)), "holds"),
        Op("from_herglotz.k1023", lambda: herglotz_check(mk, ph, atoms, K_gen), "ok"),
        Op("numeric_membership.nonmember", nm(bad), "fails"),
        Op("exact_membership_plus.overbudget", lambda: R(mk.exact_membership_plus(op_n, cp_n, over)), "fails"),
        Op("from_schwarz.k1023", lambda: schwarz_check(mk, pd, w, K_gen), "ok"),
        Op("numeric_membership.m3", nm(m3), "holds"),
        Op("sufficient_condition.overbudget", lambda: R(mk.sufficient_condition(op_n, cp_n, over)), "inconclusive"),
        Op("coeff_bounds_report.plus", lambda: R(mk.coeff_bounds_report(op_n, cp_n, plus, "plus")), "holds"),
        Op("numeric_membership.m4", nm(m4), "holds"),
        Op("distortion_report.f_general.r2", lambda: R(mk.distortion_report(op_h, cp_h, h, r2, "f_general", tail)), "holds"),
        Op("apply_differential.h", lambda: routes_check(mk, ph, h), "ok"),
        Op("numeric_membership.m5", nm(m5), "holds"),
    ]


# -------------------------------------------------------------------- cli-cold

def _count_nonstrict(text: str):
    hits = []

    def const(name):
        hits.append(name)
        return float(name)

    return json.loads(text, parse_constant=const), len(hits)


def cli_outcome(code: int, stdout: bytes, what: str) -> tuple[Outcome, int]:
    """Outcome of one CLI call plus its count of non-strict JSON constants."""
    digest = hashlib.sha256(b"%d\n" % code + stdout).hexdigest()[:16]
    try:
        payload, nonstrict = _count_nonstrict(stdout.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return Outcome(f"exit{code}-unparsed", math.nan, None, digest), 0
    if what == "report":
        ok = code == 0 and payload.get("all_expected") is True
        return Outcome("all_expected" if ok else f"exit{code}-not-all-expected", math.nan, None, digest), nonstrict
    if what == "gen":
        ok = code == 0 and isinstance(payload.get("coeffs"), list) and "certificate" in payload
        return Outcome("ok" if ok else f"exit{code}-bad-series", math.nan, None, digest), nonstrict
    verdict = payload.get("verdict")
    if VERDICT_EXIT.get(verdict) != code:
        verdict = f"exit{code}-{verdict}"
    margin = payload.get("worst_margin")
    witness = payload.get("witness")
    witness = tuple(witness) if isinstance(witness, list) else witness
    return Outcome(verdict, float("nan") if margin is None else float(margin), witness, digest), nonstrict


def write_cli_inputs(mk, seed: int, out_dir: Path) -> dict:
    """Write the seeded JSON inputs of cli-cold; return their paths."""
    rng = np.random.default_rng([seed, 3])
    out_dir.mkdir(parents=True, exist_ok=True)
    ph = draw_params(rng, beta=1.0)
    atoms = draw_atoms(rng)
    h = _herglotz(mk, ph, atoms, None)
    pn = draw_params(rng, p=1, alpha=(0.1, 0.6))
    plus = draw_plus_member(rng, pn)
    over = [list(c) for c in plus]
    k_over = int(rng.integers(1, 4))
    over[k_over][0] += 2.0 * budget(pn) / float(crit_weight(pn, k_over))
    docs = {
        "params-h": ph,
        "atoms": {"atoms": atoms},
        "member-h": h.to_json_dict(),
        "params-n": pn,
        "member-plus": series_dict(1, plus, True),
        "overbudget": series_dict(1, over, True),
    }
    paths = {}
    for name, obj in docs.items():
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
        paths[name] = str(path)
    return paths


def cli_cold(paths: dict, suite: str, runner: Callable) -> list[Op]:
    """Cold ``python -m merokit`` calls; ``runner(argv, what)`` spawns one
    and returns its Outcome."""
    P = paths

    def call(argv, what):
        return lambda: runner(argv, what)

    numeric = ["check", "--criterion", "numeric", "--params", P["params-h"], "--series", P["member-h"]]
    exact = ["check", "--criterion", "exact", "--params", P["params-n"], "--series", P["member-plus"]]
    conv = ["verify", "conv-nonvanish", "--params", P["params-h"], "--series", P["member-h"]]
    gen = ["gen", "herglotz", "--params", P["params-h"], "--atoms", P["atoms"]]
    over = ["check", "--criterion", "exact", "--params", P["params-n"], "--series", P["overbudget"]]
    report = suite_op(suite, runner)
    return [
        Op("cli.check.numeric", call(numeric, "check"), "holds"),
        report,
        Op("cli.check.exact", call(exact, "check"), "holds"),
        Op("cli.verify.conv-nonvanish", call(conv, "check"), "holds"),
        report,
        Op("cli.gen.herglotz", call(gen, "gen"), "ok"),
        Op("cli.check.exact.overbudget", call(over, "check"), "fails"),
    ]


def suite_op(suite: str, runner: Callable) -> Op:
    """A cold ``report --suite`` run, which must print all_expected: true."""
    return Op("cli.report.default", lambda: runner(["report", "--suite", suite], "report"), "all_expected", "suite")


def spawn_cli(argv: list[str], env: dict, cwd: str, timeout: float = 120.0) -> tuple[int, bytes]:
    """Run one CLI process to completion; always reaps it."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=cwd)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def child_env(root: Path) -> dict:
    """The environment with ``root/src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
