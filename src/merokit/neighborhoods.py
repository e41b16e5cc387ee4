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

``verify_inclusion_general`` decides the hypothesis of Ruscheweyh's lemma, every
eps-shift of f in the class, by its exact radius at each grid point (``_certified``).
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
from .operator import (
    OperatorParams,
    _applied,
    _finite_phi,
    _phi_product,
    delta_star,
    phi_array,
    phi_base,
    require_pole_order,
)
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
    return _general_weights(op, cp, ks, phi_array(op, ks))


def _general_weights(op: OperatorParams, cp: ClassParams, ks: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """The general weights over ``ks`` from their multipliers ``phis``, each finite; one
    that overflows a float is an OverflowError."""
    bracket = cp.beta * (ks + abs(2.0 * cp.alpha - 1.0) * op.p) + ks + op.p
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _finite_weights(bracket * phis / budget(op, cp), ks, "general weight")


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


def _certified(op: OperatorParams, cp: ClassParams, grid: SampleGrid, image, delta: float, phi_p: float):
    """Phase (a)'s eps-shift radius and phase (b)'s certificate, from one ``_grid_minima`` of
    f's ``image`` (F, zF') on the capped grid, which has points; ``phi_p`` is phi at k = p.

    (a) The class asks |v| < beta |u|, v = zF' + pF, u = zF' + (2 alpha - 1)pF.  An eps-shift
    moves v by eps q z^p and u by alpha eps q z^p (q = 2 p phi_p; 1/(1 + eps) drops out), so
    |v_eps|^2 - beta^2 |u_eps|^2 = a |eps|^2 + 2 Re(eps w) + c0, a = (1 - alpha^2 beta^2)
    |q z^p|^2 > 0, w = q z^p conj(v - alpha beta^2 u), c0 = |v|^2 - beta^2 |u|^2.  Its largest
    value over arg eps, along conj(w)/|w|, rises with |eps|: the shifts that pass at z are
    |eps| < r = (-c0 / (q |z|^p)) / (e + sqrt(e^2 - (1 - alpha^2 beta^2) c0)), e = |v - alpha
    beta^2 u|, for c0 < 0 (the stable root: Higham, Accuracy and Stability, 1.8), else r = 0.
    e and -c0 = (beta|u| - |v|)(beta|u| + |v|) are divided by beta|u| + |v|, against overflow.
    Gives the least r's witness, r there and conj(w)/|w| (1 for w = 0), an OverflowError if r is not finite.

    (b) g = f + d, sum s_k |d_k| < delta, moves F by at most delta B |z|^k / D_k and beta|u| - |v|
    by at most delta B |z|^k (beta |k + (2 alpha - 1) p| + k + p) / D_k, k = 1 - p .. 0 (D_k, the
    bracket of s_k = D_k phi_k / B, rises by beta + 1 per step).  By those maxima, c = (beta|u| -
    |v| - slack) / (p (|F| + inflate)) bounds such g's margins: it holds above the grid margin."""
    p, beta, shift, near = op.p, cp.beta, (2.0 * cp.alpha - 1.0) * op.p, np.arange(1 - op.p, 1)
    tilt, kappa, q = cp.alpha * beta * beta, 1.0 - (cp.alpha * beta) ** 2, 2.0 * p * phi_p
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inflate = delta * budget(op, cp) / (beta * (near + abs(shift)) + near + p)
        slack = inflate * (beta * np.abs(near + shift) + near + p)

    def radius(points, b, a):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            nv, nu = np.abs(a + p * b), beta * np.abs(a + shift * b)
            e = np.abs((1.0 - tilt) * a + (p - tilt * shift) * b)  # |v - alpha beta^2 u|
            below, above = nu - nv, np.add(nu, nv, out=nu)
            e /= above
            r = below / (e + np.sqrt(e * e + kappa * (below / above))) / (q * np.abs(points) ** p)
        np.copyto(r, 0.0, where=below <= 0.0)
        return r

    def certificate(points, b, a):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            powers = np.abs(points)[..., None] ** near
            m = beta * np.abs(a + shift * b) - np.abs(a + p * b) - np.max(powers * slack, axis=-1)
            return m / (p * (np.abs(b) + np.max(powers * inflate, axis=-1)))

    minima = _grid_minima(grid, RADIUS_CAP, image, [radius, certificate])[2]
    (z_a, r_fft, r_at, image_at), (z, c_fft, c_at, _) = minima
    if not (math.isfinite(r_fft) and math.isfinite(r_at)):
        raise OverflowError(f"margin: not finite at {z_a}; the evaluation overflows a float")
    b, a = map(complex, image_at)  # Python scalars: an overflow here is inf, not a numpy warning
    toward = (a + p * b - tilt * (a + shift * b)) * (z_a**p).conjugate()  # conj(w) / q
    shifts = z_a, r_at, toward / abs(toward) if toward else 1.0 + 0j
    if not (math.isfinite(c_fft) and math.isfinite(c_at)):
        return shifts, Report(INCONCLUSIVE, math.nan)
    return shifts, Report(HOLDS if c_at > grid.margin else INCONCLUSIVE, c_at, z)


#: the constructed neighbors' radius, as a fraction of delta: inside the neighborhood
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
    """Check of the full-class inclusion statement, decided where it can be.

    Phase (a), the hypothesis, holds when delta < eps_a*, the least eps-shift radius
    (``_certified``), decided at margin 0, the statement itself, not at the grid's slack.
    Else it is inconclusive at the margin of the shift at |eps| = min(2 eps_a*, (eps_a* +
    delta)/2) toward conj(w) at eps_a*'s point (f for eps_a* = 0), taken as f + eps z^p from
    delta = 1 on, where (f + eps z^p)/(1 + eps) may meet eps = -1.  Phase (b), the general-
    weight delta-neighborhood, holds where certified; else it fails at the first constructed
    neighbor that leaves the class, and with none is inconclusive at its least certified c.

    ``eps_trials``, ``trials`` and ``seed`` are read by nothing.  They stay only because
    perfbench's workloads pass them by position and its span counters pin this signature."""
    if not delta > 0:
        raise ValueError(f"delta: must be > 0, got {delta}")
    if f.trunc_order < op.p:
        raise ValueError(f"trunc_order: need at least p={op.p} to represent the eps-shift, "
                         f"got {f.trunc_order}")
    require_pole_order(op, f)
    # phi over k = 1 - p .. K, built once: the metric's weight at 1 - p, F's coefficients,
    # phi_p and the weights s_k, each with the bits and the error of its own build
    ks = f.k_values()
    phis = _phi_product(op, ks)
    metric = _general_weights(op, cp, ks[:1], _finite_phi(op, ks[:1], phis[:1]))
    _require_metric("general", op, float(metric[0]))
    grid = grid or default_grid()
    if grid.points(radius_cap=RADIUS_CAP).size == 0:
        return numeric_membership(op, cp, f, grid)  # no usable grid points: nothing is checked
    F = _applied(op, f, _finite_phi(op, ks, phis))
    note = f"delta={delta:.17g} grid={grid.digest()}"
    phi_p = float(phis[2 * op.p - 1])  # k = p
    (z, radius, toward), cert = _certified(op, cp, grid, (F, z_derivative(F)), delta, phi_p)
    at_minus_one = "" if delta < 1.0 else " (as f + eps z^p: (f + eps z^p)/(1 + eps) is undefined at eps=-1)"
    if not delta < radius:
        eps = min(2.0 * radius, 0.5 * radius + 0.5 * delta) * toward
        g = f.with_coeff(op.p, f.coeff(op.p) + eps)
        g = f if radius == 0.0 else g if at_minus_one else scale(g, 1.0 / (1.0 + eps))
        rep = numeric_membership(op, cp, g, grid)
        name = "f itself (eps=0)" if radius == 0.0 else f"the eps-shift at eps={eps!r}{at_minus_one}"
        return Report(INCONCLUSIVE, rep.worst_margin, None, (
            f"hypothesis not established: delta is not below eps_a*={radius:.17g}, the least eps-shift "
            f"radius, at z={z}; {name} gives {rep.verdict} at witness {rep.witness}"))
    hypothesis = f"eps-shifts hold for |eps| < {radius:.17g}{at_minus_one}"
    s = _general_weights(op, cp, ks, phis)  # an overflowing weight is refused here, certified or not
    if cert.verdict == HOLDS:
        return replace(cert, detail=f"every neighbor certified at every grid point; {hypothesis}; {note}")
    r, turns = _RIM * delta, np.exp(2j * np.pi * np.arange(16) / 16)
    moved = [i for i in range(min(ks.size, 2 + op.p)) if s[i] > SUM_TOL]  # k = 1 - p .. 2
    for i in moved:
        for j, turn in enumerate(turns):
            with np.errstate(over="ignore", invalid="ignore"):  # an infinite step fails the image check
                g = f.with_coeff(int(ks[i]), f.coeffs[i] + r / s[i] * turn)
            rep = numeric_membership(op, cp, g, grid)
            if rep.verdict != HOLDS:
                return Report(FAILS, rep.worst_margin, rep.witness, (
                    f"neighbor f + (1 - 1e-6)(delta/s_k) e^(i theta) z^k at k={ks[i]} "
                    f"theta=2pi*{j}/16 leaves the class: {rep.detail}"))
    return Report(INCONCLUSIVE, cert.worst_margin, cert.witness, (
        f"neighborhood not certified; no escape among {16 * len(moved)} constructed neighbors; "
        f"{hypothesis}; {note}"))
