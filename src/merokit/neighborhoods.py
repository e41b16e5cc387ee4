"""Weighted coefficient neighborhoods and inclusion verification.

A weight sequence s_k turns coefficient space into a weighted-l1 metric

    dist(f, g) = sum_k s_k |b_k - a_k|

and the delta-neighborhood of f collects the g within distance delta.
Two weight kinds exist:

* ``plus``    s_k = weight_k / (2 p beta (1 - alpha)), the exact-criterion
              weights normalized by the budget;
* ``general`` s_k = [beta(k + |2 alpha - 1| p) + k + p] phi_k
              / (2 p beta (1 - alpha)), the modulus form used for the
              full class.

The inclusion radius that the operator parameters support is

    delta = (2 lam mu + lam - mu) / (1 + 2 lam mu + lam - mu)
          = 1 - 1/phi_{1-p}(lam, mu, m=1, p)     (identity checked in tests).

``verify_inclusion_plus`` samples the nonnegative-subclass inclusion.
Its stated hypotheses are checked, not assumed: besides f passing the
exact criterion, the premise

    sum_k s_k a_k <= 1 / phi_{1-p}(lam, mu, 1, p)

must hold (the criterion alone gives only <= 1, and the single-term
extremals sit exactly at 1, where inclusion genuinely fails inside the
radius).  A violated premise yields "inconclusive", never a guess.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import neighborhood_witnesses
from .membership import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    RADIUS_CAP,
    SUM_TOL,
    ClassParams,
    Report,
    _finite_weights,
    _numeric_rows,
    _weighted_sum,
    budget,
    criterion_weight_array,
    exact_membership_plus,
    numeric_membership,
    ratio_weights,
)
from .operator import OperatorParams, delta_star, phi_array, phi_base, require_pole_order
from .series import LaurentSeries, SampleGrid, _common_range, default_grid, scale

_KINDS = ("plus", "general")


@dataclass(frozen=True)
class WeightSeq:
    """A neighborhood weight sequence of one of the two kinds."""

    kind: str
    op: OperatorParams
    cp: ClassParams

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind: expected one of {_KINDS}, got {self.kind!r}")


def weight(seq: WeightSeq, k: int) -> float:
    return float(weight_array(seq, np.array([k]))[0])


def weight_array(seq: WeightSeq, ks: np.ndarray) -> np.ndarray:
    """The weights over ``ks``; one that overflows a float is an OverflowError."""
    ks = np.asarray(ks)
    op, cp = seq.op, seq.cp
    if seq.kind == "plus":
        return ratio_weights(op, cp, ks)
    bracket = cp.beta * (ks + abs(2.0 * cp.alpha - 1.0) * op.p) + ks + op.p
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _finite_weights(bracket * phi_array(op, ks) / budget(op, cp), ks, "general weight")


def _aligned(f: LaurentSeries, g: LaurentSeries):
    a, b, k = _common_range(f, g)
    if not (f.is_normalized and g.is_normalized):
        raise ValueError("lead: distances are defined between normalized series")
    if f.trunc_order != g.trunc_order and not (f.exact_support and g.exact_support):
        raise ValueError(
            "trunc_order: mismatched truncations need exact_support on both series"
        )
    return a, b, np.arange(1 - f.pole_order, k + 1)


def _distance_to(seq: WeightSeq, f: LaurentSeries, g: LaurentSeries, delta: float):
    """The distance of f and g against delta, as ``_weighted_sum`` gives it."""
    a, b, ks = _aligned(f, g)
    s = weight_array(seq, ks)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(b - a)
    return _weighted_sum(s, diff, delta, "distance")


def distance(seq: WeightSeq, f: LaurentSeries, g: LaurentSeries) -> float:
    """Weighted-l1 coefficient distance sum s_k |b_k - a_k|; a distance
    that overflows a float is an OverflowError."""
    return _distance_to(seq, f, g, 0.0)[0]


def in_neighborhood(seq: WeightSeq, f: LaurentSeries, g: LaurentSeries, delta: float) -> bool:
    if not delta > 0:
        raise ValueError(f"delta: must be > 0, got {delta}")
    return _distance_to(seq, f, g, delta)[1]


def _premise_bound(op: OperatorParams) -> float:
    """1 / phi_{1-p} at m = 1; complements delta_star to exactly 1."""
    return 1.0 / float(phi_base(op, 1 - op.p))


def _require_counts(**counts: int) -> None:
    for name, n in counts.items():
        if n < 0:
            raise ValueError(f"{name}: must be >= 0, got {n}")


def verify_inclusion_plus(
    op: OperatorParams,
    cp: ClassParams,
    f: LaurentSeries,
    trials: int = 100,
    seed: int = 0,
) -> Report:
    """Sampled check of the nonnegative-subclass inclusion: every g in the
    delta-neighborhood of a premise-satisfying member passes the exact
    criterion, and the sharpness witness just beyond delta fails it."""
    _require_counts(trials=trials)
    d = delta_star(op)
    if d == 0.0:
        return Report(INCONCLUSIVE, 0.0, None, "degenerate radius delta = 0; nothing to verify")
    base = exact_membership_plus(op, cp, f)
    if base.verdict != HOLDS:
        return Report(
            INCONCLUSIVE, base.worst_margin, None,
            f"base function does not certify the exact criterion ({base.verdict}); "
            "inclusion hypothesis not established",
        )
    seq = WeightSeq("plus", op, cp)
    ks = f.k_values()
    s = weight_array(seq, ks)
    if np.any(s < 0):
        return Report(
            INCONCLUSIVE, float(np.min(s)), None,
            f"negative neighborhood weights at k={ks[s < 0].tolist()}; "
            "the metric hypothesis fails",
        )
    bound = _premise_bound(op)
    premise, within, slack = _weighted_sum(s, f.coeffs.real, bound, "premise sum")
    if not within:
        return Report(
            INCONCLUSIVE, slack, None,
            f"premise violated: sum s_k a_k = {premise:.17g} > {bound:.17g}; "
            "inclusion is not implied for this function",
        )
    rng = np.random.default_rng(seed)
    nidx = min(16, len(ks))
    moved = s[:nidx] > SUM_TOL  # a degenerate weight leaves its coefficient alone
    s_moved = s[:nidx][moved]
    w, rhs = criterion_weight_array(op, cp, ks), budget(op, cp)  # exact_membership_plus's sum
    worst = np.inf
    base_row = f.coeffs.real.astype(complex)
    for t in range(trials):
        u = d * rng.uniform(0.0, 1.0)
        mass = rng.dirichlet(np.ones(nidx))
        signs = rng.choice((-1.0, 1.0), size=nidx)
        g_coeffs = base_row.copy()
        head = g_coeffs.real[:nidx][moved] + signs[moved] * u * mass[moved] / s_moved
        g_coeffs.real[:nidx][moved] = np.where(head > 0.0, head, 0.0)  # max(0.0, head)
        # the criterion reads the strided .real view of the complex row: np.dot sums a
        # contiguous copy in another order, which moves some margins by 1 ulp
        _, within, margin = _weighted_sum(w, g_coeffs.real, rhs, "coefficient sum")
        if not within:  # the single check reports it
            g = LaurentSeries(op.p, f.trunc_order, g_coeffs, 1.0, True)
            rep = exact_membership_plus(op, cp, g)
            return Report(
                FAILS, rep.worst_margin, t,
                f"sampled neighbor #{t} (seed {seed}) violates the exact criterion "
                f"by {-rep.worst_margin:.3g}",
            )
        worst = min(worst, margin)
    # sharpness: the witness just beyond delta must fail
    ds = d * (1.0 + 1e-9)
    fw, gw = neighborhood_witnesses(op, cp, ds)
    wd = distance(seq, fw, gw)
    wrep = exact_membership_plus(op, cp, gw)
    if wrep.verdict != FAILS:
        if wrep.worst_margin < 0.0:  # g* exceeds the budget by budget * delta*, here < SUM_TOL
            return Report(
                INCONCLUSIVE, wrep.worst_margin, None,
                f"sharpness witness at distance {wd:.17g} passes the criterion only within its "
                f"tolerance {SUM_TOL:g}, exceeding the budget by {-wrep.worst_margin:.3g}; "
                "sharpness not established",
            )
        return Report(
            FAILS, wrep.worst_margin, -1,
            f"sharpness witness at distance {wd:.17g} unexpectedly passes the criterion",
        )
    detail = (
        f"trials={trials} seed={seed} delta={d:.17g} premise_slack={slack:.3g}; "
        f"witness at delta*={ds:.17g} fails by {-wrep.worst_margin:.3g}"
    )
    if trials == 0:
        detail = "vacuous sampling (trials = 0); " + detail
        return Report(HOLDS, 0.0, None, detail)
    return Report(HOLDS, float(worst), None, detail)


def verify_inclusion_general(
    op: OperatorParams,
    cp: ClassParams,
    f: LaurentSeries,
    delta: float,
    eps_trials: int = 8,
    trials: int = 32,
    grid: SampleGrid | None = None,
    seed: int = 0,
) -> Report:
    """Sampled check of the full-class inclusion statement.

    Phase (a) establishes the hypothesis on sampled eps: each perturbed
    (f + eps z^p)/(1 + eps), |eps| < delta, passes numeric membership
    (eps = 0, i.e. f itself, always included).  Phase (b) samples g in
    the general-weight delta-neighborhood and requires numeric
    membership of each.  Any phase (a) miss is inconclusive (hypothesis
    not established); a phase (b) miss is a failing counterexample.
    """
    if not delta > 0:
        raise ValueError(f"delta: must be > 0, got {delta}")
    _require_counts(trials=trials, eps_trials=eps_trials)
    if f.trunc_order < op.p:
        raise ValueError(
            f"trunc_order: need at least p={op.p} to represent the eps-shift, got {f.trunc_order}"
        )
    require_pole_order(op, f)
    grid = grid or default_grid()
    if grid.points(radius_cap=RADIUS_CAP).size == 0:
        return numeric_membership(op, cp, f, grid)  # no usable grid points: nothing is sampled
    rng = np.random.default_rng(seed)
    eps_list = [0.0 + 0.0j]
    while len(eps_list) < max(1, eps_trials):
        e = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0)
        if abs(e) < 1.0:
            eps_list.append(delta * e)
    ks = f.k_values()

    def rerun(_, lead, tail):  # a screen's miss, re-run by the single check for its report or error
        return numeric_membership(op, cp, LaurentSeries(op.p, f.trunc_order, tail, lead, f.exact_support), grid)

    shifted = (scale(f.with_coeff(op.p, f.coeff(op.p) + eps), 1.0 / (1.0 + eps)) for eps in eps_list)
    miss, _, _ = _numeric_rows(op, cp, grid, ks, ((g.lead, g.coeffs) for g in shifted))
    if miss is not None:
        i, rep = miss[0], rerun(*miss)
        return Report(
            INCONCLUSIVE, rep.worst_margin, None,
            f"hypothesis not established: eps sample #{i} (eps={eps_list[i]:.6g}, seed {seed}) "
            f"gives {rep.verdict} at witness {rep.witness}",
        )
    s = weight_array(WeightSeq("general", op, cp), ks)
    nidx = min(16, len(ks))
    moved = s[:nidx] > SUM_TOL
    s_moved = s[:nidx][moved]

    def neighbors():
        for _ in range(trials):
            row = np.array(f.coeffs)
            u = rng.uniform(0.0, delta)
            mass = rng.dirichlet(np.ones(nidx))
            phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=nidx))
            with np.errstate(over="ignore", invalid="ignore"):  # an infinite step fails the image check
                row[:nidx][moved] += u * mass[moved] * phases[moved] / s_moved
            yield 1.0, row

    miss, worst, worst_witness = _numeric_rows(op, cp, grid, ks, neighbors())
    if miss is not None:
        rep = rerun(*miss)
        return Report(
            FAILS, rep.worst_margin, rep.witness,
            f"sampled neighbor #{miss[0]} (seed {seed}) leaves the class: {rep.detail}",
        )
    detail = (
        f"eps_trials={len(eps_list)} trials={trials} seed={seed} delta={delta:.17g} "
        f"grid={grid.digest()}"
    )
    if trials == 0:
        return Report(HOLDS, 0.0, None, "vacuous sampling (trials = 0); " + detail)
    return Report(HOLDS, float(worst), worst_witness, detail)
