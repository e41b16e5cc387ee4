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
* ``sufficient_condition`` the sum over moduli |a_k|, sufficient only,
  so it never returns "fails" -- just holds or inconclusive.  On |z| < 1,
  |z|^p |zF' + pF| <= sum (k + p) phi_k |a_k| and
  |z|^p |zF' + (2 alpha - 1) pF| >= 2p(1 - alpha) - sum |k + (2 alpha - 1)p| phi_k |a_k|,
  so it sums with the modulus bracket (k + p) + beta |k + (2 alpha - 1)p|.
  That is the criterion weight's bracket wherever k + (2 alpha - 1)p >= 0,
  and larger where k + (2 alpha - 1)p < 0 (k < (1 - 2 alpha)p, only for
  alpha < 1/2), where the signed bracket would undercount a_k.

Strict inequalities are tested with the grid's margin (default 1e-9)
and only at radii <= 0.95; nearer the boundary, truncation error in the
series dominates anything the margin could certify.

Degenerate criterion weights exist (the weight at k is
[k(beta+1) + p(1 + beta(2 alpha - 1))] * phi_k and can vanish or go
negative at small k, always where k + (2 alpha - 1)p < 0).  Sums over
such indices carry no information, so the exact criterion reports them
in its detail instead of pretending the bound constrains anything there.
The sufficient criterion has none: its modulus bracket is at least
k + p >= 1.  Both name, in their detail, the k with k + (2 alpha - 1)p < 0
that carry a coefficient ("sub-modulus weight"), and what was summed there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import series as ser
from .operator import OperatorParams, _admitted, _finite_phi, _phi_product, apply_coeff, require_pole_order
from .series import (
    LaurentSeries,
    SampleGrid,
    SeriesRows,
    eval_circles,
    eval_many,
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
    """``criterion_weight`` over ``ks``; a weight that overflows a float is an OverflowError."""
    ks = _admitted(op, ks)
    return _checked_criterion(op, ks, *_criterion_weights(op, cp, ks))


def _criterion_weights(op: OperatorParams, cp: ClassParams, ks: np.ndarray):
    """phi_k and the criterion weights over the admitted ``ks``, unchecked: an
    overflow is inf or NaN, for ``_checked_criterion`` to refuse."""
    phis = _phi_product(op, ks)
    bracket = ks * (cp.beta + 1.0) + op.p * (1.0 + cp.beta * (2.0 * cp.alpha - 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        return phis, bracket * phis


def _checked_criterion(op: OperatorParams, ks: np.ndarray, phis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w`` if phi and the weight are finite at every k of ``ks``; else the
    OverflowError that ``criterion_weight_array`` raises."""
    _finite_phi(op, ks, phis)
    return _finite_weights(w, ks, "criterion weight")


def _criterion_table(op: OperatorParams, cp: ClassParams, k_max: int):
    """``criterion_weight_array`` over ks within 1 - p .. k_max, from one build of
    that range: each call checks only its own ks, so it raises, or not, as
    ``criterion_weight_array`` does, and returns the same bits."""
    lo = 1 - op.p
    phis, w = _criterion_weights(op, cp, np.arange(lo, k_max + 1))

    def weights(ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks)
        return _checked_criterion(op, ks, phis[ks - lo], w[ks - lo])

    return weights


def _finite_weights(w: np.ndarray, ks: np.ndarray, what: str) -> np.ndarray:
    """``w``, the weights ``what`` over ``ks``, if every one is finite; else an
    OverflowError naming the first k whose weight is not."""
    if not np.all(np.isfinite(w)):
        raise OverflowError(f"weight: the {what} at k={int(ks[~np.isfinite(w)][0])} overflows a float")
    return w


def budget(op: OperatorParams, cp: ClassParams) -> float:
    """Right-hand side of the coefficient criteria: 2 p beta (1 - alpha)."""
    return 2.0 * op.p * cp.beta * (1.0 - cp.alpha)


def ratio_weights(op: OperatorParams, cp: ClassParams, ks: np.ndarray) -> np.ndarray:
    """Criterion weight over budget: the partial-sum hypothesis weights and
    the ``plus`` neighborhood weights.  One that overflows a float is an OverflowError."""
    ks = np.asarray(ks)
    return _ratio_of(op, cp, ks, criterion_weight_array(op, cp, ks))


def _ratio_of(op: OperatorParams, cp: ClassParams, ks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ratio weights over ``ks`` from their criterion weights ``w``."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _finite_weights(w / budget(op, cp), ks, "ratio weight")


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


def _weighted_sum(w: np.ndarray, a: np.ndarray, rhs: float, what: str):
    """The weighted coefficient sum of ``a`` against the bound ``rhs``: the sum, whether it
    is within the bound (sum <= rhs + SUM_TOL) and the margin rhs - sum.  Every coefficient
    premise is decided here.  A sum that is not finite is an OverflowError naming ``what``."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.dot(w, a))
    if not math.isfinite(total):
        raise OverflowError(f"coeffs: the weighted {what} overflows a float")
    return total, total <= rhs + SUM_TOL, rhs - total


def _modulus_weights(op: OperatorParams, cp: ClassParams, ks: np.ndarray) -> np.ndarray:
    """The ``sufficient_condition`` weights over ``ks``: the criterion weights, but
    [(k + p) + beta |k + p(2 alpha - 1)|] phi_k, the modulus bracket, where
    k + p(2 alpha - 1) < 0; one that overflows a float is an OverflowError."""
    ks = _admitted(op, ks)
    phis, w = _criterion_weights(op, cp, ks)
    shifted = ks + op.p * (2.0 * cp.alpha - 1.0)
    sub = shifted < 0
    with np.errstate(over="ignore", invalid="ignore"):
        w[sub] = ((ks[sub] + op.p) + cp.beta * np.abs(shifted[sub])) * phis[sub]
    return _checked_criterion(op, ks, phis, w)


#: what the criterion weights, and the ``_modulus_weights``, are where k + p(2 alpha - 1) < 0
_SIGNED_NOTE = "the sum criterion is not equivalent to the pointwise condition there"
_MODULUS_NOTE = "summed there with the modulus bracket (k + p) + beta |k + p(2 alpha - 1)|"


def _coefficient_sum(
    op, cp, f: LaurentSeries, a: np.ndarray, tail_note: str, weights=None, sub_note: str = _SIGNED_NOTE
):
    """Weights, whether the weighted sum of ``a`` is within the budget, the
    margin and the report detail shared by the coefficient criteria; an
    overflowing weight or sum is an OverflowError.  ``weights`` maps ks to
    their criterion weights (``criterion_weight_array`` by default), and
    ``sub_note`` says what they are where k + p(2 alpha - 1) < 0."""
    ks = f.k_values()
    w = criterion_weight_array(op, cp, ks) if weights is None else weights(ks)
    total, within, margin = _weighted_sum(w, a, budget(op, cp), "coefficient sum")
    notes = []
    degen = ks[w <= SUM_TOL]
    if degen.size:
        notes.append(
            f"degenerate criterion weight (<= 0) at k={degen.tolist()}; "
            "the sum does not constrain those coefficients"
        )
    sub = ks[(ks + op.p * (2.0 * cp.alpha - 1.0) < 0) & (a > 0)]
    if sub.size:
        notes.append(f"sub-modulus weight at k={sub.tolist()} (k + p(2 alpha - 1) < 0); {sub_note}")
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
    return _exact_plus(op, cp, f, None)


def _exact_plus(op: OperatorParams, cp: ClassParams, f: LaurentSeries, weights) -> Report:
    """``exact_membership_plus`` with the criterion weights from ``weights``, a
    map of ks to their weights (``criterion_weight_array`` if None)."""
    _require_class_form(f, op)
    require_nonnegative_real(f)
    a = f.coeffs.real
    w, within, margin, detail = _coefficient_sum(
        op, cp, f, a, "truncation tail uncertified (exact_support is false)", weights
    )
    if not f.exact_support:
        return Report(INCONCLUSIVE, margin, None, detail)
    if within:
        return Report(HOLDS, margin, None, detail)
    k_bad = int(f.k_values()[int(np.argmax(w * a))])
    return Report(FAILS, margin, k_bad, detail)


def sufficient_condition(op: OperatorParams, cp: ClassParams, f: LaurentSeries) -> Report:
    """Modulus-sum condition, sufficient for membership of the truncated
    function for any complex coefficients: sum_k w_k |a_k| <= 2 p beta (1 - alpha)
    over ``_modulus_weights``; an exceeded sum proves nothing, hence inconclusive."""
    _require_class_form(f, op)
    moduli = np.hypot(f.coeffs.real, f.coeffs.imag)
    _, within, margin, detail = _coefficient_sum(
        op, cp, f, moduli, "tail not certified; verdict applies to the truncation",
        partial(_modulus_weights, op, cp), _MODULUS_NOTE,
    )
    return Report(HOLDS if within else INCONCLUSIVE, margin, None, detail)


# --------------------------------------------------------- numeric routes

def vanishes(values: np.ndarray, moduli: np.ndarray, p: int, lead: complex = 1.0) -> np.ndarray:
    """Where pole-order-p ``values`` vanish: |value| <= 1e-14 |z|^-p max(1, |lead|), the
    rounding scale of a function like lead * z^-p near 0, for ``moduli`` the |z| of the
    values, an array that broadcasts against them: on a grid, the (radii x 1) column of its
    radii against the (... x radii x angles) view of its values, one threshold per circle.
    |z|^-p is the running product of 1/|z|, whose bits do not depend on the CPU features
    numpy dispatches to.  A non-finite value never vanishes; where |z|^-p overflows, every
    finite one does."""
    inverse = np.divide(1.0, moduli)
    scale = inverse
    with np.errstate(over="ignore"):
        for _ in range(p - 1):
            scale = scale * inverse
    return np.isfinite(values) & (np.abs(values) <= 1e-14 * scale * max(1.0, abs(lead)))


def _quotient_margin(p: int, form, at_pole: float):
    """margin_of(points, vanish, F, zF'): form(Q, zF'), Q = z F'/(p F), or ``at_pole``, the
    limit of form(Q)/|Q| as Q -> inf, where F vanishes (the mask ``vanish``).  The values
    are consumed, so no complex temporary is made: Q is computed into F's buffer, ``form``
    may overwrite Q and zF', and the margins are written into form's (real) result."""

    def margin_of(points, vanish, b, a):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = np.multiply(p, b, out=b)
            margins = form(np.divide(a, q, out=q), a)
        np.copyto(margins, at_pole, where=vanish)
        return margins

    return margin_of


def _quotient_margins(op: OperatorParams, f: LaurentSeries, grid: SampleGrid, form):
    F = apply_coeff(op, f)
    rows = SeriesRows.of((F, z_derivative(F)))
    points, _, (margins,) = _grid_margins(grid, RADIUS_CAP, rows, [_quotient_margin(op.p, *form)], True)
    return points, margins.ravel()


def _numeric_form(cp: ClassParams):
    """Q -> beta*|Q + 2 alpha - 1| - |Q + 1|, the defining inequality's margin (Q + 1 formed in
    ``spare``), and at_pole beta - 1."""
    shift = 2.0 * cp.alpha - 1.0

    def form(q, spare):
        off = np.abs(np.add(q, 1.0, out=spare))
        margins = np.abs(np.add(q, shift, out=q))
        np.multiply(cp.beta, margins, out=margins)
        return np.subtract(margins, off, out=margins)

    return form, cp.beta - 1.0


def _disk_form(cp: ClassParams):
    """Q -> radius - |(-Q) - center|, the disk form's margin (beta < 1), and at_pole -1."""
    center, radius = disk_parameters(cp)

    def form(q, _):
        margins = np.abs(np.subtract(np.negative(q, out=q), center, out=q))
        return np.subtract(radius, margins, out=margins)

    return form, -1.0


def numeric_margins(op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid):
    """Capped grid points (the grid's read-only array, or a view of it), FFT margins
    beta*|Q + 2 alpha - 1| - |Q + 1|, beta - 1 where F vanishes."""
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


def _grid_verdict(witness, worst: float, passes, detail: str) -> Report:
    """The Report of a least margin ``worst``, at ``witness``: holds if ``passes(worst)``, the
    caller's own threshold test, else fails.  A least margin that is not finite means the
    evaluation overflowed: an OverflowError."""
    if not math.isfinite(worst):
        raise OverflowError(f"margin: not finite at {witness}; the evaluation overflows a float")
    return Report(HOLDS if passes(worst) else FAILS, worst, witness, detail)


def _grid_margins(grid: SampleGrid, cap, rows: SeriesRows, margin_ofs, masked: bool):
    """The FFT half of the grid reduction, the package's one call of ``eval_circles``: the
    values of ``rows`` at the grid's points on its radii <= cap (all for cap None), each
    series' a (1 x radii x angles) array in the buffer of that call.  Returns the points,
    the mask where the first series vanishes there (``vanishes`` at its pole order and
    lead, one threshold per circle) as a 1-tuple if ``masked``, else empty, and each margin
    function's margins, ``margin_of(circles, *mask, *values)``, elementwise on the points'
    (radii x angles) view ``circles``.  Only the last margin function may consume the
    values."""
    points = grid.points(radius_cap=cap)
    circles = points.reshape(-1, grid.angles_count)
    values = eval_circles(rows, grid, cap).reshape(len(rows.lead), 1, *circles.shape)
    mask = ()
    if masked:
        radii = np.array(grid.capped_radii(cap))[:, None]  # the circles' |z|
        mask = (vanishes(values[0], radii, rows.pole_order, rows.lead[0]),)
    return points, mask, [margin_of(circles, *mask, *values) for margin_of in margin_ofs]


def _grid_minima(grid: SampleGrid, cap, series, margin_ofs, masked: bool = False):
    """The grid reduction of ``series``, once per margin function of ``margin_ofs``, from
    one FFT call and one Horner pass; the grid must have points on its radii <= cap.  A
    function's witness is its first point of least FFT margin (``_grid_margins``).  The
    Horner pass (``eval_many``) takes the series' rows once per function, series-major,
    each at that function's witness: it gives every series' value there, hence the margin
    there by the same function, on (1 x 1) arrays, given the mask at the witness' |z| if
    ``masked``.  So no function's bits depend on the others.  Returns the points, the mask
    on them as ``_grid_margins`` does, and per function its witness (a complex), its FFT
    margin and its Horner margin there, and the Horner values, one per series."""
    rows, count = SeriesRows.of(series), len(series)
    points, mask, margins = _grid_margins(grid, cap, rows, margin_ofs, masked)
    i = [int(np.argmin(m)) for m in margins]
    at, n, p = points[i], len(i), rows.pole_order
    # z^-p divides by an underflowed z^p only where the FFT overflowed too,
    # a margin that the caller refuses
    with np.errstate(divide="ignore"):
        repeated = SeriesRows(p, np.repeat(rows.lead, n), np.repeat(rows.coeffs, n, axis=0))
        values_at = eval_many(repeated, points[i * count]).reshape(count, n)
    values = values_at[:, :, None].copy()
    at_mask = (vanishes(values[0], np.abs(at)[:, None], p, rows.lead[0]),) if masked else ()
    args = (at[:, None], *at_mask, *values)
    return points, mask, [
        (z.item(), float(m.flat[j]), float(margin_of(*(x[k : k + 1] for x in args))[0, 0]), values_at[:, k])
        for k, (j, z, m, margin_of) in enumerate(zip(i, at, margins, margin_ofs))
    ]


def _grid_check(
    grid: SampleGrid, cap, series, margin_of, passes, note: str, vanishing=None, detail_at=None
) -> Report:
    """``_grid_minima`` of ``margin_of`` alone, on the grid's radii <= cap (all for cap
    None), and ``passes(worst)`` at its Horner margin the verdict.  No points is
    inconclusive, with a NaN margin, and an FFT or Horner margin that is not finite an
    OverflowError (``_grid_verdict``).

    ``vanishing`` names the first series, when ``margin_of`` takes the mask where it
    vanishes (``vanishes`` at its pole order and lead: on the grid at one threshold per
    circle, at the witness at its |z|); the note is then led by the first such point, if
    any.  ``detail_at(report, *values)``, if given, is the report's detail, from the
    Horner values at its witness."""
    if grid.points(radius_cap=cap).size == 0:
        return Report(INCONCLUSIVE, math.nan, None, f"no usable grid points; {note}")
    points, mask, [(z, fft, worst, values)] = _grid_minima(
        grid, cap, series, [margin_of], vanishing is not None
    )
    if mask and np.any(mask[0]):
        note = f"{vanishing} vanishes near z={points[int(np.argmax(mask[0]))].item()}; {note}"
    # an FFT margin that is not finite is refused as a Horner one is
    report = _grid_verdict(z, worst if math.isfinite(fft) else fft, passes, note)
    return report if detail_at is None else replace(report, detail=detail_at(report, *values))


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


def disk_characterization(
    op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid | None = None
) -> Report:
    """Sample the equivalent disk form (beta < 1 only).  Must agree with
    ``numeric_membership`` pointwise; tests enforce that."""
    return _quotient_check(op, f, grid, _disk_form(cp))


# ------------------------------------------------- power-target containment

def _containment_margin(v, c: float):
    """min(1 - |w|, cos(min(|theta|, pi))) per point, for w = 1 - v^{1/c} and
    theta = arg(v)/c on the principal branch.

    |w|^2 = (|v|^{1/c} - cos theta)^2 + sin^2 theta, so 1 - |w| <= 1 - sin|theta|,
    which lies below cos theta by cos t + sin t - 1 >= 0.045 t at t = |theta| < 1.5
    (the left side is concave on [0, pi/2] and 0.068 at 1.5).  That is more than
    the few units of 2**-53 by which either side is rounded, down to t about 1e-13,
    below which cos theta rounds to 1 >= 1 - |w|.  So the cosine is taken only where
    |theta| >= 1.5, with the bits of taking it at every point: where theta is NaN,
    1 - |w| is NaN already.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        theta = np.angle(v) / c
        m = 1.0 - np.abs(1.0 - np.exp(np.log(np.abs(v)) / c + 1j * theta))
        far = np.abs(theta) >= 1.5
        m[far] = np.minimum(m[far], np.cos(np.minimum(np.abs(theta[far]), np.pi)))
    return m


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
        with np.errstate(over="ignore", invalid="ignore"):
            m = _containment_margin(points ** op.p * Fz, c)
            return np.where(vanish, np.minimum(m, 0.0), m)

    return _grid_check(
        grid, RADIUS_CAP, (apply_coeff(op, f),), margin_of, lambda worst: worst > grid.margin,
        _grid_note(grid), "z^p F",
    )
