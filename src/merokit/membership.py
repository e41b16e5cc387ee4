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

from dataclasses import dataclass

import numpy as np

from . import series as ser
from .operator import OperatorParams, apply_coeff, phi_array, require_pole_order
from .series import LaurentSeries, SampleGrid, eval_many, json_number, z_derivative

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
    realizing the worst margin; a failing report always carries one.
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

    def to_json_dict(self) -> dict:
        w = self.witness
        if isinstance(w, complex):
            w = [w.real, w.imag]
        elif isinstance(w, (int, np.integer)):
            w = int(w)
        return {
            "verdict": self.verdict,
            "worst_margin": float(self.worst_margin),
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


def _degenerate_notes(op, cp, ks, coeffs_abs) -> list[str]:
    notes = []
    w = criterion_weight_array(op, cp, ks)
    degen = ks[w <= SUM_TOL]
    if degen.size:
        notes.append(
            f"degenerate criterion weight (<= 0) at k={degen.tolist()}; "
            "the sum does not constrain those coefficients"
        )
    sub = ks[(ks + op.p * (2.0 * cp.alpha - 1.0) < 0) & (coeffs_abs > 0)]
    if sub.size:
        notes.append(
            f"sub-modulus weight at k={sub.tolist()} (k + p(2 alpha - 1) < 0); "
            "the sum criterion is not equivalent to the pointwise condition there"
        )
    return notes


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


def exact_membership_plus(op: OperatorParams, cp: ClassParams, f: LaurentSeries) -> Report:
    """Exact criterion on the nonnegative-coefficient subclass:

        sum_k weight_k * a_k <= 2 p beta (1 - alpha).

    Requires real a_k >= 0.  Without ``exact_support`` the sum over a
    truncation certifies nothing (the tail could break it), so the
    verdict is then inconclusive.
    """
    _require_class_form(f, op)
    require_nonnegative_real(f)
    ks = f.k_values()
    a = f.coeffs.real
    w = criterion_weight_array(op, cp, ks)
    total = float(np.dot(w, a))
    rhs = budget(op, cp)
    margin = rhs - total
    notes = _degenerate_notes(op, cp, ks, a)
    if not f.exact_support:
        notes.append("truncation tail uncertified (exact_support is false)")
        return Report(INCONCLUSIVE, margin, None, "; ".join(notes))
    detail = "; ".join(notes) if notes else f"sum={total:.17g} rhs={rhs:.17g}"
    if total <= rhs + SUM_TOL:
        return Report(HOLDS, margin, None, detail)
    contrib = w * a
    k_bad = int(ks[int(np.argmax(contrib))])
    return Report(FAILS, margin, k_bad, detail)


def sufficient_condition(op: OperatorParams, cp: ClassParams, f: LaurentSeries) -> Report:
    """Modulus-sum condition, sufficient for membership of the truncated
    function; an exceeded sum proves nothing, hence inconclusive."""
    _require_class_form(f, op)
    ks = f.k_values()
    aa = np.abs(f.coeffs)
    w = criterion_weight_array(op, cp, ks)
    total = float(np.dot(w, aa))
    rhs = budget(op, cp)
    margin = rhs - total
    notes = _degenerate_notes(op, cp, ks, aa)
    if not f.exact_support:
        notes.append("tail not certified; verdict applies to the truncation")
    detail = "; ".join(notes) if notes else f"sum={total:.17g} rhs={rhs:.17g}"
    if total <= rhs + SUM_TOL:
        return Report(HOLDS, margin, None, detail)
    return Report(INCONCLUSIVE, margin, None, detail or "sum exceeds the bound; no conclusion")


# --------------------------------------------------------- numeric routes

def vanishing_floor(zs: np.ndarray, p: int, lead: complex = 1.0) -> np.ndarray:
    """Modulus below which a pole-order-p value at zs counts as vanishing:
    such a function behaves like lead * z^-p near 0, so this is the
    rounding scale of its values."""
    return 1e-14 * np.abs(zs) ** (-p) * max(1.0, abs(lead))


def _quotient(op: OperatorParams, f: LaurentSeries, grid: SampleGrid):
    """Q = z F'/(p F) on the capped grid, plus the points and a bad-denominator mask."""
    zs = grid.points(radius_cap=RADIUS_CAP)
    if zs.size == 0:
        return zs, zs, np.zeros(0, dtype=bool)
    F = apply_coeff(op, f)
    b = eval_many(F, zs)
    a = eval_many(z_derivative(F), zs)
    bad = np.abs(b) <= vanishing_floor(zs, op.p, f.lead)
    q = np.empty_like(b)
    q[~bad] = a[~bad] / (op.p * b[~bad])
    q[bad] = np.nan
    return zs, q, bad


def numeric_margins(op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid):
    """Pointwise margins beta*|Q + 2 alpha - 1| - |Q + 1| over the grid."""
    zs, q, bad = _quotient(op, f, grid)
    margins = cp.beta * np.abs(q + (2.0 * cp.alpha - 1.0)) - np.abs(q + 1.0)
    return zs, margins, bad


def disk_margins(op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid):
    """Pointwise margins radius - |(-Q) - center| of the disk form (beta < 1)."""
    center, radius = disk_parameters(cp)
    zs, q, bad = _quotient(op, f, grid)
    margins = radius - np.abs(-q - center)
    return zs, margins, bad


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


def _grid_verdict(points, margins, passes, detail, bad=None,
                  bad_detail="denominator vanishes near z={}") -> Report:
    """Reduce pointwise margins to a Report.

    ``points`` are the sample points (grid points, or coefficient indices)
    and ``margins`` their margins; ``passes(worst)`` is the caller's own
    threshold test.  No points gives inconclusive with a NaN margin; a
    point flagged in ``bad`` fails outright, witnessed by the first one;
    otherwise the smallest margin decides, witnessed by its point.
    """
    if points.size == 0:
        return Report(INCONCLUSIVE, float("nan"), None, f"no usable grid points; {detail}")
    if bad is not None and np.any(bad):
        w = points[int(np.argmax(bad))].item()
        return Report(FAILS, float("-inf"), w, f"{bad_detail.format(w)}; {detail}")
    worst = float(np.min(margins))
    witness = points[int(np.argmin(margins))].item()
    return Report(HOLDS if passes(worst) else FAILS, worst, witness, detail)


def numeric_membership(
    op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid | None = None
) -> Report:
    """Sample the defining inequality itself on the grid."""
    grid = grid or ser.default_grid()
    zs, margins, bad = numeric_margins(op, cp, f, grid)
    return _grid_verdict(zs, margins, lambda worst: worst > grid.margin, _grid_note(grid), bad)


def disk_characterization(
    op: OperatorParams, cp: ClassParams, f: LaurentSeries, grid: SampleGrid | None = None
) -> Report:
    """Sample the equivalent disk form (beta < 1 only).  Must agree with
    ``numeric_membership`` pointwise; tests enforce that."""
    grid = grid or ser.default_grid()
    zs, margins, bad = disk_margins(op, cp, f, grid)
    return _grid_verdict(zs, margins, lambda worst: worst > grid.margin, _grid_note(grid), bad)


# ------------------------------------------------- power-target containment

def subordination_power_target(
    op: OperatorParams, alpha: float, f: LaurentSeries, grid: SampleGrid | None = None
) -> Report:
    """Check that v = z^p F(z) stays inside the range of (1 - z)^c on the
    unit disk, c = 2 p (1 - alpha) -- the containment every beta = 1
    member satisfies.

    Inversion: w = 1 - v^{1/c} over the finitely many admissible branches
    (those with |Im log(1 - w)| < pi/2, the principal one included); the
    point passes when some admissible preimage has |w| < 1 - margin.  A
    point whose value admits no preimage at all fails with that witness.
    The normalization v(0) = 1 is the series lead, checked exactly.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha: need 0 <= alpha < 1, got {alpha}")
    require_pole_order(op, f)
    if f.lead != 1:
        raise ValueError("lead: containment target is normalized to v(0) = 1; lead must be 1")
    grid = grid or ser.default_grid()
    zs = grid.points(radius_cap=RADIUS_CAP)
    Fz = eval_many(apply_coeff(op, f), zs)
    v = zs ** op.p * Fz
    c = 2.0 * op.p * (1.0 - alpha)
    # where v vanishes, log|v| = -inf puts the preimage on the unit circle
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(v))
    arg = np.angle(v)
    half = np.pi / 2.0
    nmax = int(np.ceil(c * half / (2.0 * np.pi))) + 1
    best = np.full(zs.shape, np.inf)
    admissible = np.zeros(zs.shape, dtype=bool)
    for n in range(-nmax, nmax + 1):
        theta = (arg + 2.0 * np.pi * n) / c
        ok = np.abs(theta) < half
        if not np.any(ok):
            continue
        w = 1.0 - np.exp(logmag / c + 1j * theta)
        cand = np.abs(w)
        take = ok & (cand < best)
        best[take] = cand[take]
        admissible |= ok
    detail = _grid_note(grid)
    vanish = np.abs(Fz) <= vanishing_floor(zs, op.p)
    if np.any(vanish):
        detail = f"z^p F vanishes near z={zs[int(np.argmax(vanish))].item()}; {detail}"
    return _grid_verdict(
        zs, 1.0 - best, lambda worst: worst > grid.margin, detail, ~admissible,
        "branch cut collision: no admissible preimage at z={}",
    )
