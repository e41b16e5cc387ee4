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

``verify_inclusion_plus`` decides the nonnegative-subclass inclusion in
closed form.  Its stated hypotheses are checked, not assumed: besides f
passing the exact criterion, the premise

    sum_k s_k a_k <= 1 / phi_{1-p}(lam, mu, 1, p)

must hold (the criterion alone gives only <= 1, and the single-term
extremals sit exactly at 1, where inclusion genuinely fails inside the
radius).  A violated premise yields "inconclusive", never a guess.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bounds import _plus_bound
from .generators import _witness_pair
from .membership import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    RADIUS_CAP,
    SUM_TOL,
    ClassParams,
    Report,
    _criterion_table,
    _exact_plus,
    _finite_weights,
    _grid_minima,
    _ratio_of,
    _weighted_sum,
    budget,
    numeric_membership,
    ratio_weights,
)
from .operator import OperatorParams, apply_coeff, delta_star, phi, phi_array, phi_base, require_pole_order
from .series import LaurentSeries, SampleGrid, _common_range, default_grid, scale, z_derivative

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
        _require_metric(self.kind, self.op, weight(self, 1 - self.op.p))


def _require_metric(kind: str, op: OperatorParams, w: float) -> None:
    """Refuse a weight sequence whose weight at k = 1 - p, ``w``, is negative.  Both
    brackets rise by beta + 1 per step and phi_k >= 1 never falls (lam >= mu >= 0), so
    each weight has its bracket's sign, and the weight at k = 1 - p decides the metric."""
    if w < 0:
        raise ValueError(f"kind: the {kind} weight at k={1 - op.p} is {w:g} < 0; "
                         "the weighted distance is not a metric")


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


def _distance_to(weights, f: LaurentSeries, g: LaurentSeries, delta: float):
    """The distance of f and g against delta, as ``_weighted_sum`` gives it, for
    ``weights``, a map of ks to their weights."""
    a, b, ks = _aligned(f, g)
    s = weights(ks)
    with np.errstate(over="ignore", invalid="ignore"):
        d = b - a
        diff = np.hypot(d.real, d.imag)
    return _weighted_sum(s, diff, delta, "distance")


def distance(seq: WeightSeq, f: LaurentSeries, g: LaurentSeries) -> float:
    """Weighted-l1 coefficient distance sum s_k |b_k - a_k|; a distance
    that overflows a float is an OverflowError."""
    return _distance_to(partial(weight_array, seq), f, g, 0.0)[0]


def in_neighborhood(seq: WeightSeq, f: LaurentSeries, g: LaurentSeries, delta: float) -> bool:
    if not delta > 0:
        raise ValueError(f"delta: must be > 0, got {delta}")
    return _distance_to(partial(weight_array, seq), f, g, delta)[1]


def _premise_bound(op: OperatorParams) -> float:
    """1 / phi_{1-p} at m = 1; complements delta_star to exactly 1."""
    return 1.0 / float(phi_base(op, 1 - op.p))


def verify_inclusion_plus(
    op: OperatorParams,
    cp: ClassParams,
    f: LaurentSeries,
    trials: int = 100,
    seed: int = 0,
) -> Report:
    """The nonnegative-subclass inclusion, decided in closed form: every g in
    the delta-neighborhood of a premise-satisfying member f passes the exact
    criterion, and the sharpness witness just beyond delta fails it.

    Every weight s_k is >= 0, so every such g has sum s_k b_k <= sum s_k a_k +
    delta = 1 - premise_slack (the premise bound 1/phi_{1-p} is 1 - delta), and
    a criterion margin of at least budget * premise_slack.  g* = f + (delta /
    s_k*) z^k*, at the least k* with s_k* > SUM_TOL, attains that sum: a g* that
    passes the criterion makes the report hold at budget * premise_slack,
    witnessed by k*.  One that does not (the premise holds only within
    SUM_TOL) is inconclusive at its own margin.  A zero radius measures
    nothing: inconclusive, with a NaN margin.

    Every weight the call reads, at f's k, g*'s and the witness's, comes from
    one build of the criterion weights over 1 - p .. max(K, 2 - p).

    ``trials`` and ``seed`` are read by nothing.  They stay only because
    perfbench's workloads pass them by position and its span counters pin
    this signature's parameter count."""
    d = delta_star(op)
    if d == 0.0:
        return Report(INCONCLUSIVE, math.nan, None, "degenerate radius delta = 0; nothing to verify")
    criterion = _criterion_table(op, cp, max(f.trunc_order, 2 - op.p))

    def s_of(ks):  # the plus weights
        return _ratio_of(op, cp, ks, criterion(ks))

    base = _exact_plus(op, cp, f, criterion)
    if base.verdict != HOLDS:
        return Report(
            INCONCLUSIVE, base.worst_margin, None,
            f"base function does not certify the exact criterion ({base.verdict}); "
            "inclusion hypothesis not established",
        )
    n = np.array([1 - op.p])
    _require_metric("plus", op, float(s_of(n)[0]))
    s = s_of(f.k_values())
    bound = _premise_bound(op)
    premise, within, slack = _weighted_sum(s, f.coeffs.real, bound, "premise sum")
    if not within:
        return Report(
            INCONCLUSIVE, slack, None,
            f"premise violated: sum s_k a_k = {premise:.17g} > {bound:.17g}; "
            "inclusion is not implied for this function",
        )
    # sharpness: the witness exceeds the budget by budget * delta*; one that passes shows rounding or SUM_TOL
    ds = max(d * (1.0 + 1e-9), math.nextafter(d, math.inf))
    fw, gw = _witness_pair(op, _plus_bound(op, cp, 1 - op.p, float(criterion(n)[0])), ds)
    wd = _distance_to(s_of, fw, gw, 0.0)[0]
    wrep = _exact_plus(op, cp, gw, criterion)
    if wrep.verdict != FAILS:
        return Report(
            INCONCLUSIVE, wrep.worst_margin, None,
            f"sharpness witness at distance {wd:.17g} passes the criterion "
            + ("outright (its inflation rounds away)" if wrep.worst_margin >= 0.0 else
               f"only within its tolerance {SUM_TOL:g}, exceeding the budget by {-wrep.worst_margin:.3g}")
            + "; sharpness not established",
        )
    # s_{2-p} >= (beta + 1) / budget > SUM_TOL: the bracket rises by beta + 1 per step from
    # its value >= 0 at k = 1 - p, and phi_k >= 1.  f has exact support, so g* may extend it
    k = 1 - op.p if s[0] > SUM_TOL else 2 - op.p
    tail = np.zeros(max(f.trunc_order, k) + op.p, dtype=complex)
    tail[: f.coeffs.size] = f.coeffs
    tail[k - 1 + op.p] += d / float(s_of(np.array([k]))[0])
    g = _exact_plus(op, cp, LaurentSeries(op.p, tail.size - op.p, tail, 1.0, True), criterion)
    sharp = f"witness at delta*={ds:.17g} fails by {-wrep.worst_margin:.3g}"
    if g.verdict != HOLDS:
        return Report(
            INCONCLUSIVE, g.worst_margin, k,
            f"g* = f + (delta/s_k) z^k at k={k} exceeds the budget by {-g.worst_margin:.3g}, beyond the "
            f"tolerance {SUM_TOL:g} (premise_slack={slack:.3g}); inclusion not established; {sharp}",
        )
    return Report(
        HOLDS, budget(op, cp) * slack, k,
        f"closed form: every neighbor has sum s_k b_k <= premise + delta, attained by "
        f"g* = f + (delta/s_k) z^k at k={k}; delta={d:.17g} premise_slack={slack:.3g}; {sharp}",
    )


def _certified(op: OperatorParams, cp: ClassParams, grid: SampleGrid, image, phases):
    """Certify each phase, given as (ks, slack, inflate), for every perturbation of f that moves
    M = beta |A + (2 alpha - 1) p F| - |A + p F|, the defining inequality times p |F| (A = zF'),
    by at most max_k slack_k |z|^k and |F| by at most max_k inflate_k |z|^k, over ``ks``.
    Where positive,

        c(z) = (M - max_k slack_k |z|^k) / (p (|F| + max_k inflate_k |z|^k))

    bounds every perturbed member's numeric margin at z from below.  One ``_grid_minima`` of
    f's ``image`` (F, zF') on the capped grid, which has points, gives each phase's least c
    at its witness.  Returns a report per phase: holds when that c is above the grid
    margin, else inconclusive there.  A bound or a value that is not finite gives no finite
    c: inconclusive, NaN margin."""
    p, shift = op.p, (2.0 * cp.alpha - 1.0) * op.p

    def margin_of(points, b, a, phase):
        ks, slack, inflate = phase
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            powers = np.abs(points)[..., None] ** ks
            m = cp.beta * np.abs(a + shift * b) - np.abs(a + p * b) - np.max(powers * slack, axis=-1)
            return m / (p * (np.abs(b) + np.max(powers * inflate, axis=-1)))

    margin_ofs = [partial(margin_of, phase=phase) for phase in phases]
    return [
        Report(HOLDS if c_at > grid.margin else INCONCLUSIVE, c_at, z)
        if math.isfinite(c_fft) and math.isfinite(c_at) else Report(INCONCLUSIVE, math.nan)
        for z, c_fft, c_at, _ in _grid_minima(grid, RADIUS_CAP, image, margin_ofs)[2]
    ]


#: the constructed perturbations' radius, as a fraction of delta: inside the neighborhood
_RIM = 1.0 - 1e-6


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
    """Check of the full-class inclusion statement, certified where it can be.

    Phase (a) establishes the hypothesis: each perturbed (f + eps z^p)/(1 + eps),
    |eps| < delta, passes numeric membership.  Phase (b) asks the same of every g
    in the general-weight delta-neighborhood.  Each phase is first certified at
    every capped grid point, both by one evaluation of f's image (``_certified``;
    phase (a) only for delta <= 1).  A phase that does not close is checked, by
    ``numeric_membership``, one by one, on constructed perturbations at radius
    r = (1 - 1e-6) delta, for the 16 phases theta_j = 2 pi j / 16: phase (a) on f
    and the eps-shifts eps = r e^(i theta_j); phase (b) on g = f + (r / s_k)
    e^(i theta_j) z^k, at distance r < delta, k-major over the stored k in
    1 - p .. 2 with s_k > SUM_TOL.  A phase (a) miss is inconclusive (hypothesis
    not established) and a phase (b) miss a failing counterexample.  A certified
    phase (b) holds at its least certified margin; an uncertified one that no
    constructed neighbor leaves shows nothing: inconclusive at that margin.

    ``eps_trials``, ``trials`` and ``seed`` are read by nothing.  They stay only
    because perfbench's workloads pass them by position and its span counters
    pin this signature's parameter count."""
    if not delta > 0:
        raise ValueError(f"delta: must be > 0, got {delta}")
    if f.trunc_order < op.p:
        raise ValueError(
            f"trunc_order: need at least p={op.p} to represent the eps-shift, got {f.trunc_order}"
        )
    require_pole_order(op, f)
    seq = WeightSeq("general", op, cp)
    grid = grid or default_grid()
    if grid.points(radius_cap=RADIUS_CAP).size == 0:
        return numeric_membership(op, cp, f, grid)  # no usable grid points: nothing is checked
    F = apply_coeff(op, f)
    image, note = (F, z_derivative(F)), f"delta={delta:.17g} grid={grid.digest()}"
    ks = f.k_values()
    # phase (a): (f + eps z^p)/(1 + eps), |eps| < delta <= 1, has the quotient of f + eps z^p,
    # whose image moves F by eps phi_p z^p and A by p eps phi_p z^p
    inflate = delta * phi(op, op.p)
    phases = [(op.p, 2.0 * op.p * (cp.alpha * cp.beta + 1.0) * inflate, inflate)] if delta <= 1.0 else []
    # phase (b): g = f + d, sum s_k |d_k| < delta, moves F by at most delta B |z|^k / D_k and M by
    # at most delta B |z|^k (beta |k + (2 alpha - 1) p| + k + p) / D_k at some k, for the budget B
    # and the bracket D_k of s_k = D_k phi_k / B.  D_k rises by beta + 1 per step, so for k >= 0
    # neither exceeds its value at k = 0 (|z| < 1): k = 1 - p .. 0 suffice.  D_{1-p} = 0 or an
    # overflow leaves them infinite
    shift, near = (2.0 * cp.alpha - 1.0) * op.p, np.arange(1 - op.p, 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inflate = delta * budget(op, cp) / (cp.beta * (near + abs(shift)) + near + op.p)
        phases.append((near, inflate * (cp.beta * np.abs(near + shift) + near + op.p), inflate))
    *shifts, cert = _certified(op, cp, grid, image, phases)
    r, turns = _RIM * delta, np.exp(2j * np.pi * np.arange(16) / 16)
    if shifts and shifts[0].verdict == HOLDS:
        hypothesis = f"eps-shifts certified at {shifts[0].worst_margin:.3g}"
    else:
        def shifted():
            yield "f itself (eps=0)", f
            for j, eps in enumerate(r * turns):
                with np.errstate(over="ignore", invalid="ignore"):  # an eps near the largest float
                    g = scale(f.with_coeff(op.p, f.coeff(op.p) + eps), 1.0 / (1.0 + eps))
                yield f"eps-shift j={j} (eps={complex(eps)})", g

        for name, g in shifted():
            rep = numeric_membership(op, cp, g, grid)
            if rep.verdict != HOLDS:
                return Report(
                    INCONCLUSIVE, rep.worst_margin, None,
                    f"hypothesis not established: {name} gives {rep.verdict} at witness {rep.witness}",
                )
        hypothesis = "eps-shifts checked: f and 16 at |eps| = (1 - 1e-6) delta"
    s = weight_array(seq, ks)  # an overflowing weight is refused here, certified or not
    if cert.verdict == HOLDS:
        return replace(cert, detail=f"every neighbor certified at every grid point; {hypothesis}; {note}")
    moved = [i for i in range(min(ks.size, 2 + op.p)) if s[i] > SUM_TOL]  # k = 1 - p .. 2
    for i in moved:
        for j, turn in enumerate(turns):
            with np.errstate(over="ignore", invalid="ignore"):  # an infinite step fails the image check
                g = f.with_coeff(int(ks[i]), f.coeffs[i] + r / s[i] * turn)
            rep = numeric_membership(op, cp, g, grid)
            if rep.verdict != HOLDS:
                return Report(
                    FAILS, rep.worst_margin, rep.witness,
                    f"neighbor f + (1 - 1e-6)(delta/s_k) e^(i theta) z^k at k={ks[i]} "
                    f"theta=2pi*{j}/16 leaves the class: {rep.detail}",
                )
    return Report(
        INCONCLUSIVE, cert.worst_margin, cert.witness,
        f"neighborhood not certified; no escape among {16 * len(moved)} constructed neighbors; "
        f"{hypothesis}; {note}",
    )
