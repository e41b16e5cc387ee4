"""Membership checks for the operator-stable function classes.

A pole-order-p function f belongs to the class with parameters
(alpha, beta), 0 <= alpha < 1 and 0 < beta <= 1, when the transformed
function F = (operator^m) f satisfies, everywhere on 0 < |z| < 1,

    | Q(z) + 1 |  <  beta * | Q(z) + 2*alpha - 1 |,      Q = z F'(z) / (p F(z)).

Four routes are implemented:

* ``numeric_membership``   samples the defining inequality on a grid;
* ``disk_characterization`` the equivalent disk form, valid for beta < 1,
  kept as an independent route and compared pointwise in tests;
* ``exact_membership_plus`` the weighted coefficient sum that is the
  exact (necessary and sufficient) criterion on the nonnegative-
  coefficient subclass;
* ``sufficient_condition`` the same sum over moduli, sufficient only,
  so it never returns "fails" -- just holds or inconclusive.

Strict inequalities are tested with the grid's margin (default 1e-9)
and only at radii <= 0.95; nearer the boundary, truncation error in the
series dominates anything the margin could certify.

Degenerate criterion weights exist (the weight at k is
[k(beta+1) + p(1 + beta(2 alpha - 1))] * phi_k and can vanish or go
negative at small k).  Sums over such indices carry no information, so
the coefficient criteria report them in their detail instead of
pretending the bound constrains anything there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series as ser
from .operator import OperatorParams, apply_coeff, phi_array, require_pole_order
from .series import (
    LaurentSeries,
    SampleGrid,
    eval_circles,
    eval_many,
    eval_rows_at,
    eval_rows_circles,
    json_number,
    z_derivative,
)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

#: absolute slack for exact coefficient identities
SUM_TOL = 1e-12

#: numeric checks ignore grid radii beyond this
RADIUS_CAP = 0.95


@dataclass(frozen=True)
class ClassParams:
    """Class parameters: 0 <= alpha < 1 and 0 < beta <= 1."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        a, b = float(self.alpha), float(self.beta)
        if not 0.0 <= a < 1.0:
            raise ValueError(f"alpha: need 0 <= alpha < 1, got {a}")
        if not 0.0 < b <= 1.0:
            raise ValueError(f"beta: need 0 < beta <= 1, got {b}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def to_json_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ClassParams":
        for key in ("alpha", "beta"):
            if key not in obj:
                raise ValueError(f"params.{key}: missing")
        return cls(
            json_number(obj["alpha"], "params.alpha"), json_number(obj["beta"], "params.beta")
        )


@dataclass(frozen=True)
class Report:
    """Outcome of one verification: verdict, worst margin, witness, detail.

    ``witness`` is the grid point (complex) or coefficient index (int)
    realizing the worst margin; a failing report always carries one, and a
    finite margin.  A NaN ``worst_margin`` (no usable points) is written to
    JSON as null.
    """

    verdict: str
    worst_margin: float
    witness: complex | int | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in (HOLDS, FAILS, INCONCLUSIVE):
            raise ValueError(f"verdict: unknown value {self.verdict!r}")
        if self.verdict == FAILS and self.witness is None:
            raise ValueError("witness: a failing report must carry a witness")
        if self.verdict == FAILS and not math.isfinite(self.worst_margin):
            raise ValueError(f"worst_margin: a failing report needs a finite one, got {self.worst_margin}")

    def to_json_dict(self) -> dict:
        w = self.witness
        if isinstance(w, complex):
            w = [w.real, w.imag]
        elif isinstance(w, (int, np.integer)):
            w = int(w)
        margin = float(self.worst_margin)
        return {
            "verdict": self.verdict,
            "worst_margin": margin if math.isfinite(margin) else None,
            "witness": w,
            "detail": self.detail,
        }


# ------------------------------------------------------------- weights

def criterion_weight(op: OperatorParams, cp: ClassParams, k: int) -> float:
    """[k(beta+1) + p(1 + beta(2 alpha - 1))] * phi_k."""
    return float(criterion_weight_array(op, cp, np.array([k]))[0])


def criterion_weight_array(op: OperatorParams, cp: ClassParams, ks: np.ndarray) -> np.ndarray:
    ks = np.asarray(ks)
    bracket = ks * (cp.beta + 1.0) + op.p * (1.0 + cp.beta * (2.0 * cp.alpha - 1.0))
    return bracket * phi_array(op, ks)


def budget(op: OperatorParams, cp: ClassParams) -> float:
    """Right-hand side of the coefficient criteria: 2 p beta (1 - alpha)."""
    return 2.0 * op.p * cp.beta * (1.0 - cp.alpha)


def ratio_weights(op: OperatorParams, cp: ClassParams, ks: np.ndarray) -> np.ndarray:
    """Criterion weight over budget: the partial-sum hypothesis weights and
    the ``plus`` neighborhood weights."""
    return criterion_weight_array(op, cp, np.asarray(ks)) / budget(op, cp)


# ----------------------------------------------------- coefficient routes

def _require_class_form(f: LaurentSeries, op: OperatorParams) -> None:
    require_pole_order(op, f)
    if not f.is_normalized:
        raise ValueError("lead: coefficient criteria expect a normalized series (lead == 1)")


def require_nonnegative_real(f: LaurentSeries) -> None:
    """Reject a series outside the nonnegative-coefficient subclass."""
    bad = (f.coeffs.imag != 0) | (f.coeffs.real < 0)
    if np.any(bad):
        ks = f.k_values()[bad].tolist()
        raise ValueError(f"coeffs: nonnegative real coefficients required, violated at k={ks}")


def _criterion(op: OperatorParams, cp: ClassParams, ks: np.ndarray):
    """The coefficient criteria's weights over ``ks``, and sum_of(a): the weighted
    sum of ``a`` (inf or NaN where it overflows), whether it is within the budget
    (sum <= 2 p beta (1 - alpha) + SUM_TOL), and the margin budget - sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = criterion_weight_array(op, cp, ks)
    rhs = budget(op, cp)

    def sum_of(a):
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.dot(w, a))
        return total, total <= rhs + SUM_TOL, rhs - total

    return w, sum_of


def _coefficient_sum(op, cp, f: LaurentSeries, a: np.ndarray, tail_note: str):
    """Weights, whether the weighted sum of ``a`` is within the budget, the
    margin and the report detail shared by the coefficient criteria; an
    overflowing sum is an OverflowError."""
    ks = f.k_values()
    w, sum_of = _criterion(op, cp, ks)
    total, within, margin = sum_of(a)
    if not math.isfinite(total):
        raise OverflowError("coeffs: the weighted coefficient sum overflows a float")
    notes = []
    degen = ks[w <= SUM_TOL]
    if degen.size:
        notes.append(
            f"degenerate criterion weight (<= 0) at k={degen.tolist()}; "
            "the sum does not constrain those coefficients"
        )
    sub = ks[(ks + op.p * (2.0 * cp.alpha - 1.0) < 0) & (a > 0)]
    if sub.size:
        notes.append(
            f"sub-modulus weight at k={sub.tolist()} (k + p(2 alpha - 1) < 0); "
            "the sum criterion is not equivalent to the pointwise condition there"
        )
    if not f.exact_support:
        notes.append(tail_note)
    detail = "; ".join(notes) if notes else f"sum={total:.17g} rhs={budget(op, cp):.17g}"
    return w, within, margin, detail


def exact_membership_plus(op: OperatorParams, cp: ClassParams, f: LaurentSeries) -> Report:
    """Exact criterion on the nonnegative-coefficient subclass:

        sum_k weight_k * a_k <= 2 p beta (1 - alpha).

    Requires real a_k >= 0.  Without ``exact_support`` the sum over a
    truncation certifies nothing (the tail could break it), so the
    verdict is then inconclusive.
    """
    _require_class_form(f, op)
    require_nonnegative_real(f)
    a = f.coeffs.real
    w, within, margin, detail = _coefficient_sum(
        op, cp, f, a, "truncation tail uncertified (exact_support is false)"
    )
    if not f.exact_support:
        return Report(INCONCLUSIVE, margin, None, detail)
    if within:
        return Report(HOLDS, margin, None, detail)
    k_bad = int(f.k_values()[int(np.argmax(w * a))])
    return Report(FAILS, margin, k_bad, detail)


def sufficient_condition(op: OperatorParams, cp: ClassParams, f: LaurentSeries) -> Report:
    """Modulus-sum condition, sufficient for membership of the truncated
    function; an exceeded sum proves nothing, hence inconclusive."""
    _require_class_form(f, op)
    _, within, margin, detail = _coefficient_sum(
        op, cp, f, np.abs(f.coeffs), "tail not certified; verdict applies to the truncation"
    )
    return Report(HOLDS if within else INCONCLUSIVE, margin, None, detail)


# --------------------------------------------------------- numeric routes

def vanishes(values: np.ndarray, zs: np.ndarray, p: int, lead: complex = 1.0) -> np.ndarray:
    """Where pole-order-p ``values`` at zs vanish: |value| <= 1e-14 |z|^-p max(1, |lead|), the
    rounding scale of a function like lead * z^-p near 0.  A non-finite value never vanishes;
    where |z|^-p overflows, every finite one does.  ``lead`` may be an array of one lead per
    row of ``values``, shaped to broadcast against them."""
    with np.errstate(over="ignore"):
        floor = 1e-14 * np.abs(zs) ** (-p) * np.maximum(1.0, np.abs(lead))
    return np.isfinite(values) & (np.abs(values) <= floor)


def _quotient_margin(p: int, form, at_pole: float):
    """margin_of(points, vanish, F, zF'): form(Q), Q = z F'/(p F), or ``at_pole``, the
    limit of form(Q)/|Q| as Q -> inf, where F vanishes (the mask ``vanish``)."""

    def margin_of(points, vanish, b, a):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(vanish, at_pole, form(a / (p * b)))

    return margin_of


def _quotient_margins(op: OperatorParams, f: LaurentSeries, grid: SampleGrid, form):
    F = apply_coeff(op, f)
    zs = grid.points(radius_cap=RADIUS_CAP)
    b, a = (eval_circles(g, grid, RADIUS_CAP) for g in (F, z_derivative(F)))
    return zs, _quotient_margin(op.p, *form)(zs, vanishes(b, zs, op.p, f.lead), b, a)


def _numeric_form(cp: ClassParams):
    """Q -> beta*|Q + 2 alpha - 1| - |Q + 1|, the defining inequality's margin, and at_pole beta - 1."""
    return (lambda q: cp.beta * np.abs(q + (2.0 * cp.alpha - 1.0)) - np.abs(q + 1.0)), cp.beta - 1.0


def _disk_form(cp: ClassParams):
    """Q -> radius - |(-Q) - center|, the disk form's margin (beta < 1), and at_pole -1."""
    center, radius = disk_parameters(cp)
    return (lambda q: radius - np.abs(-q - center)), -1.0


def numeric_margins(op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid):
    """Capped grid points, FFT margins beta*|Q + 2 alpha - 1| - |Q + 1|, beta - 1 where F vanishes."""
    return _quotient_margins(op, f, grid, _numeric_form(cp))


def disk_margins(op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid):
    """As ``numeric_margins``, for the disk form radius - |(-Q) - center| (-1 where F vanishes)."""
    return _quotient_margins(op, f, grid, _disk_form(cp))


def disk_parameters(cp: ClassParams) -> tuple[float, float]:
    """Center and radius of the disk that -Q must stay in when beta < 1."""
    if not cp.beta < 1.0:
        raise ValueError("beta: the disk form requires beta < 1")
    b2 = cp.beta * cp.beta
    center = (1.0 - b2 * (2.0 * cp.alpha - 1.0)) / (1.0 - b2)
    radius = 2.0 * cp.beta * (1.0 - cp.alpha) / (1.0 - b2)
    return center, radius


def _grid_note(grid: SampleGrid) -> str:
    dropped = [r for r in grid.radii if r > RADIUS_CAP]
    note = f"grid={grid.digest()}"
    if dropped:
        note += f" (radii {dropped} beyond {RADIUS_CAP} excluded)"
    return note


def _grid_verdict(points, margins, passes, detail) -> Report:
    """Reduce pointwise margins to a Report.

    ``points`` are the sample points (grid points, or coefficient indices)
    and ``margins`` their margins; ``passes(worst)`` is the caller's own
    threshold test.  No points gives inconclusive with a NaN margin;
    otherwise the smallest margin decides, witnessed by its point, unless
    it is not finite: the evaluation overflowed, an OverflowError.
    """
    if points.size == 0:
        return Report(INCONCLUSIVE, float("nan"), None, f"no usable grid points; {detail}")
    i = int(np.argmin(margins))
    worst, witness = float(margins[i]), points[i].item()
    if not math.isfinite(worst):
        raise OverflowError(f"margin: not finite at {witness}; the evaluation overflows a float")
    return Report(HOLDS if passes(worst) else FAILS, worst, witness, detail)


def _grid_rows(p: int, leads, points, values, values_at, margin_of, vanishing: bool):
    """Each row's grid margins, reduced to its witness: the grid checks' one
    reduction, for one series (one row) or for a block of trials.

    ``values`` are the series' values at the (nonempty) ``points``, one
    (rows x points) array per series, by FFT; ``values_at(at)`` are their
    values at one point per row, by Horner.  ``margin_of(points, *values)`` is
    elementwise; with ``vanishing`` it is ``margin_of(points, vanish,
    *values)``, given also the mask where the first series (pole order p, one
    lead per row in ``leads``) vanishes.  The FFT margins locate each row's
    witness ``at``; recheck() gives its margin from Horner's values there.
    Returns the mask on the points (None without ``vanishing``), the FFT
    margins at the witnesses, ``at`` and ``recheck``, one entry per row each.
    """
    leads = np.asarray(leads)[:, None]

    def margins(zs, vals):
        if not vanishing:
            return None, margin_of(zs, *vals)
        vanish = vanishes(vals[0], zs, p, leads)
        return vanish, margin_of(zs, vanish, *vals)

    vanish, fft = margins(points, values)
    i = np.argmin(fft, axis=1)
    at = points[i]

    def recheck():
        return margins(at[:, None], [v[:, None] for v in values_at(at)])[1][:, 0]

    return vanish, fft[np.arange(i.size), i], at, recheck


def _grid_check(grid: SampleGrid, cap, series, margin_of, passes, note: str, vanishing=None) -> Report:
    """Reduce the margins from the values of ``series`` by ``_grid_rows``, as
    one row, on the grid's radii <= cap (all for cap None): FFT values
    (``eval_circles``) locate the witness, Horner's (``eval_many``) give its
    margin, and ``passes(worst)`` its verdict.  No points is inconclusive and a
    margin that is not finite an OverflowError, as in ``_grid_verdict``.

    ``vanishing`` names the first series, when ``margin_of`` takes the mask
    where it vanishes (``vanishes`` at its pole order and lead); the note is
    then led by the first such point, if any."""
    points = grid.points(radius_cap=cap)
    if points.size == 0:
        return _grid_verdict(points, points, passes, note)
    first = series[0]
    vanish, fft, at, recheck = _grid_rows(
        first.pole_order, [first.lead], points, [eval_circles(g, grid, cap)[None, :] for g in series],
        lambda at: [eval_many(g, at) for g in series], margin_of, vanishing is not None,
    )
    if vanishing is not None and np.any(vanish):
        note = f"{vanishing} vanishes near z={points[int(np.argmax(vanish[0]))].item()}; {note}"
    _grid_verdict(at, fft, passes, note)  # an FFT margin that is not finite is an OverflowError
    return _grid_verdict(at, recheck(), passes, note)


def _quotient_check(op: OperatorParams, f: LaurentSeries, grid: SampleGrid | None, form) -> Report:
    grid = grid or ser.default_grid()
    F = apply_coeff(op, f)
    return _grid_check(
        grid, RADIUS_CAP, (F, z_derivative(F)), _quotient_margin(op.p, *form),
        lambda worst: worst > grid.margin, _grid_note(grid), "denominator",
    )


def numeric_membership(
    op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid | None = None
) -> Report:
    """Sample the defining inequality itself on the grid."""
    return _quotient_check(op, f, grid, _numeric_form(cp))


def _numeric_rows(op: OperatorParams, cp: ClassParams, grid: SampleGrid, ks: np.ndarray):
    """``numeric_membership`` on the grid, for blocks of pole-order-p series with
    tail indices ``ks``: rows_of(leads, tails), for leads (rows,) and tails (rows x
    K), gives per row whether the single check holds without raising, and its
    margin and witness, by that check's reduction ``_grid_rows``.

    A row that does not hold (it fails, its image or a margin is not finite, or no
    point is capped) is for the caller to re-run by ``numeric_membership``, which
    gives its report or error.  An operator multiplier that overflows raises here,
    as it does there."""
    p = op.p
    phi = phi_array(op, ks)
    points = grid.points(radius_cap=RADIUS_CAP)
    margin_of = _quotient_margin(p, *_numeric_form(cp))

    def rows_of(leads, tails):
        if points.size == 0:
            return np.zeros(len(leads), dtype=bool), None, None
        with np.errstate(over="ignore", invalid="ignore"):
            image = tails * phi  # apply_coeff and z_derivative, row by row
            blocks = ((leads, image), (-p * leads, ks * image))
        stacked = [np.concatenate(parts) for parts in zip(*blocks)]  # F and zF' in one Horner pass
        _, fft, at, recheck = _grid_rows(
            p, leads, points, [eval_rows_circles(p, *b, grid, RADIUS_CAP) for b in blocks],
            lambda at: np.split(eval_rows_at(p, *stacked, np.tile(at, 2)), 2), margin_of, True,
        )
        # z^-p divides by an underflowed z^p only where the FFT overflowed too: such a
        # row is re-run, and its check refuses it before any Horner pass
        with np.errstate(divide="ignore"):
            worst = recheck()
        holds = np.all(np.isfinite(image), axis=1) & np.isfinite(fft) & np.isfinite(worst)
        return holds & (worst > grid.margin), worst, at

    return rows_of


def disk_characterization(
    op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid | None = None
) -> Report:
    """Sample the equivalent disk form (beta < 1 only).  Must agree with
    ``numeric_membership`` pointwise; tests enforce that."""
    return _quotient_check(op, f, grid, _disk_form(cp))


# ------------------------------------------------- power-target containment

def subordination_power_target(
    op: OperatorParams, alpha: float, f: LaurentSeries, grid: SampleGrid | None = None
) -> Report:
    """Check that v = z^p F(z) stays inside the range of (1 - z)^c on the
    unit disk, c = 2 p (1 - alpha) -- the containment every beta = 1
    member satisfies.

    Inversion: w = 1 - v^{1/c} on the principal branch, theta = arg(v)/c.
    Every branch gives the same |1 - w| = |v|^{1/c}, and the principal one
    has the smallest |theta|; a branch is admissible when |theta| < pi/2.
    The point's margin is min(1 - |w|, cos(min(|theta|, pi))): 1 - |w|
    wherever the principal branch is admissible (there 1 - |w| <=
    1 - sin|theta| <= cos theta), and <= 0, finite, where no branch is or
    where |F| is at the vanishing floor (there w = 1 to rounding).  It is
    continuous across the negative real axis of v.  The normalization
    v(0) = 1 is the series lead, checked exactly.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha: need 0 <= alpha < 1, got {alpha}")
    require_pole_order(op, f)
    if f.lead != 1:
        raise ValueError("lead: containment target is normalized to v(0) = 1; lead must be 1")
    grid = grid or ser.default_grid()
    c = 2.0 * op.p * (1.0 - alpha)

    def margin_of(points, vanish, Fz):
        # a vanishing v has w = 1 to rounding: margin <= 0, not |v|^{1/c} noise.
        # An overflowing F or exp leaves a non-finite margin for _grid_verdict
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = points ** op.p * Fz
            theta = np.angle(v) / c
            w = 1.0 - np.exp(np.log(np.abs(v)) / c + 1j * theta)
            m = np.minimum(1.0 - np.abs(w), np.cos(np.minimum(np.abs(theta), np.pi)))
            return np.where(vanish, np.minimum(m, 0.0), m)

    return _grid_check(
        grid, RADIUS_CAP, (apply_coeff(op, f),), margin_of, lambda worst: worst > grid.margin,
        _grid_note(grid), "z^p F",
    )
