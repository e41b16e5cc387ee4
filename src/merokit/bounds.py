"""Inequality verifiers: coefficient bounds, distortion, convolution
non-vanishing, and partial-sum ratio bounds.

Infinite sums appear in the general-class distortion bounds.  Whether
they converge depends on how fast the operator multipliers grow, which
is the polynomial degree of phi_k in k:

    degree = 0            if m = 0 or lam = 0 (multipliers bounded),
    degree = m            if mu = 0 < lam,
    degree = 2m           if mu > 0.

The |f| sum  sum 1/((k+p) phi_k)  converges when degree >= 1; the |f'|
sum  sum k/((k+p) phi_k)  needs degree >= 2.  A divergent configuration
must be flagged explicitly through the TailPolicy or it is an error:
silently reporting a partial sum as a bound would be wrong, and the
untruncated statement is vacuous there.

Convergent tails are certified by integral comparison,

    sum_{k>N} (k+p)^(-s) <= (N+p)^(1-s) / (s-1),

applied to the elementwise majorant of the summand.  Both reported
bounds use the upper estimate of the sum, so the returned interval
always contains the asserted one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .membership import (
    FAILS,
    INCONCLUSIVE,
    RADIUS_CAP,
    SUM_TOL,
    ClassParams,
    Report,
    budget,
    criterion_weight,
    criterion_weight_array,
    ratio_weights,
    require_nonnegative_real,
    _grid_check,
    _grid_note,
    _grid_verdict,
    _weighted_sum,
)
from .operator import OperatorParams, _phi_product, apply_coeff, phi_array, require_pole_order
from .series import (
    LaurentSeries,
    SampleGrid,
    default_grid,
    z_derivative,
)

#: ratio bounds are sampled out to this radius (their infima sit at z -> 1)
RATIO_RADIUS_CAP = 0.999

#: terms summed before the integral-comparison tail kicks in
_SUM_TERMS = 2048

_TAIL_MODES = ("exact_support", "tail_estimate", "divergent_flag")


@dataclass(frozen=True)
class TailPolicy:
    """How an infinite sum's tail is to be handled.

    exact_support   the sum is finite or closed-form; no tail exists
    tail_estimate   truncate and add a certified integral-comparison bound
    divergent_flag  the caller expects divergence and wants vacuous bounds
    """

    mode: str

    def __post_init__(self) -> None:
        if self.mode not in _TAIL_MODES:
            raise ValueError(f"mode: expected one of {_TAIL_MODES}, got {self.mode!r}")


def phi_growth_degree(op: OperatorParams) -> int:
    """Polynomial degree of phi_k in k."""
    if op.m == 0 or op.lam == 0.0:
        return 0
    return op.m * (2 if op.mu > 0.0 else 1)


# -------------------------------------------------------- coefficient bounds

def coeff_bound_general(op: OperatorParams, cp: ClassParams, n: int) -> float:
    """Modulus bound 2 p beta (1 - alpha) / ((n+p) phi_n) for class members;
    stated only for n >= 3 - p, refused outside that range."""
    if n < 3 - op.p:
        raise ValueError(f"n: the general bound holds for n >= {3 - op.p}, got {n}")
    return budget(op, cp) / ((n + op.p) * float(phi_array(op, np.array([n]))[0]))


def coeff_bound_plus(op: OperatorParams, cp: ClassParams, n: int) -> float:
    """Sharp bound 2 p beta (1 - alpha) / weight_n on the nonnegative
    subclass, attained by the one-term extremal at n."""
    if n < 1 - op.p:
        raise ValueError(f"n: need n >= {1 - op.p}, got {n}")
    return _plus_bound(op, cp, n, criterion_weight(op, cp, n))


def _plus_bound(op: OperatorParams, cp: ClassParams, n: int, w: float) -> float:
    """``coeff_bound_plus`` at n from its criterion weight ``w``."""
    if w <= SUM_TOL:
        raise ValueError(f"n: degenerate criterion weight at n={n}; no finite bound")
    return budget(op, cp) / w


def coeff_bounds_report(
    op: OperatorParams, cp: ClassParams, f: LaurentSeries, kind: str = "general"
) -> Report:
    """Check every stored coefficient of f against the chosen bound.

    Meaningful only for f already known (or believed) to be in the class;
    this is the companion checker, not a membership test.
    """
    if kind not in ("general", "plus"):
        raise ValueError(f"kind: expected 'general' or 'plus', got {kind!r}")
    require_pole_order(op, f)
    ks = f.k_values()
    notes = []
    if kind == "general":
        lo = 3 - op.p
        mask = ks >= lo
        if not np.any(mask):
            return Report(
                INCONCLUSIVE, float("nan"), None,
                f"no stored indices in the bound's range k >= {lo}",
            )
        bounds = budget(op, cp) / ((ks[mask] + op.p) * phi_array(op, ks[mask]))
        a = f.coeffs[mask]
        margins = bounds - np.hypot(a.real, a.imag)
        ks = ks[mask]
    else:
        require_nonnegative_real(f)
        w = criterion_weight_array(op, cp, ks)
        mask = w > SUM_TOL
        if not np.any(mask):
            return Report(INCONCLUSIVE, float("nan"), None, "all criterion weights degenerate")
        if np.any(~mask):
            notes.append(f"degenerate weight at k={ks[~mask].tolist()} skipped")
        bounds = budget(op, cp) / w[mask]
        margins = bounds - f.coeffs[mask].real
        ks = ks[mask]
    notes.append(f"indices checked: {len(ks)}")
    i = int(np.argmin(margins))
    return _grid_verdict(int(ks[i]), float(margins[i]), lambda worst: worst >= -SUM_TOL, "; ".join(notes))


# ----------------------------------------------------------------- distortion

def _tail_majorant(op: OperatorParams, extra_power: int, n_cut: int) -> float:
    """Certified bound on sum_{k>n_cut} (k+p)^extra_power / ((k+p) phi_k).

    Uses phi_k >= ((k+p)^2 lam mu)^m when mu > 0 and >= ((k+p) lam)^m when
    mu = 0, then compares with the integral of x^(1-s).  The power of x0 =
    n_cut + p is taken together with the multiplier's, so that neither
    overflows alone.
    """
    x0 = float(n_cut + op.p)
    if op.mu > 0.0:
        s = 2 * op.m + 1 - extra_power
        base = op.lam * op.mu * x0 * x0
    else:
        s = op.m + 1 - extra_power
        base = op.lam * x0
    if s <= 1:
        raise ValueError("tail: integral comparison needs decay exponent > 1")
    with np.errstate(over="ignore", divide="ignore"):  # base may underflow to 0
        majorant = float(np.float64(base) ** -op.m * x0 ** extra_power / (s - 1))
    if not math.isfinite(majorant):
        raise ValueError(f"tail: the majorant of the sum beyond k={n_cut} overflows a float")
    return majorant


def _certified_sum(op: OperatorParams, extra_power: int) -> float:
    """Upper estimate of sum_{k=1-p}^inf (k or 1)/((k+p) phi_k)."""
    ks = np.arange(1 - op.p, _SUM_TERMS + 1)
    # a multiplier that overflows a float leaves its term an exact 0, its limit
    with np.errstate(over="ignore"):
        terms = (ks.astype(float) ** extra_power if extra_power else 1.0) / (
            (ks + op.p) * _phi_product(op, ks)
        )
    partial = float(np.sum(terms))
    window = terms[-16:]
    if np.any(np.diff(window) > 0):
        raise ValueError("tail: summand not decreasing at the cutoff; cannot certify")
    return partial + _tail_majorant(op, extra_power, _SUM_TERMS)


def _power(r: float, n: int) -> float:
    """r**n for a radius r in (0, 1); one that overflows a float is a ValueError."""
    try:
        return r ** n
    except OverflowError:
        raise ValueError(f"r: r**{n} overflows a float at r={r}") from None


def distortion(
    op: OperatorParams,
    cp: ClassParams,
    r: float,
    which: str,
    tail: TailPolicy,
) -> tuple[float, float]:
    """(lower, upper) modulus bounds at |z| = r.

    which = "f_plus"         closed-form bounds for the nonnegative
                             subclass: 1/r^p -+ B r^(1-p) with
                             B = coeff_bound_plus at k = 1-p;
    which = "f_general"      1/r^p -+ 2 p beta (1-alpha) r^(1-p) * S
                             with S = sum 1/((k+p) phi_k);
    which = "fprime_general" p/r^(p+1) -+ 2 p beta (1-alpha) r^(2-p) * S'
                             with S' = sum k/((k+p) phi_k).

    A divergent S (or S') with tail.mode == "divergent_flag" yields the
    vacuous interval (-inf, inf); without the flag it is an error.  So is a
    radius so small that a bound overflows a float.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r: need 0 < r < 1, got {r}")
    if which == "f_plus":
        b = coeff_bound_plus(op, cp, 1 - op.p)
        return _interval(r, _power(r, -op.p), b * _power(r, 1 - op.p))
    if which not in ("f_general", "fprime_general"):
        raise ValueError(
            f"which: expected f_plus, f_general or fprime_general, got {which!r}"
        )
    extra = 0 if which == "f_general" else 1
    needed = 1 if which == "f_general" else 2
    degree = phi_growth_degree(op)
    if degree < needed:
        if tail.mode == "divergent_flag":
            return float("-inf"), float("inf")
        raise ValueError(
            f"tail: multiplier growth degree {degree} < {needed}, the sum diverges; "
            "pass TailPolicy('divergent_flag') (--tail-mode divergent_flag) to acknowledge"
        )
    if tail.mode != "tail_estimate":
        raise ValueError(
            f"tail: mode {tail.mode!r} does not apply to an infinite convergent sum; "
            "use 'tail_estimate'"
        )
    s_upper = _certified_sum(op, extra)
    if which == "f_general":
        return _interval(r, _power(r, -op.p), budget(op, cp) * _power(r, 1 - op.p) * s_upper)
    return _interval(r, op.p * _power(r, -op.p - 1), budget(op, cp) * _power(r, 2 - op.p) * s_upper)


def _interval(r: float, base: float, spread: float) -> tuple[float, float]:
    """(base - spread, base + spread); one that overflows a float is a ValueError."""
    lower, upper = base - spread, base + spread
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"r: the distortion bounds at r={r} overflow a float")
    return lower, upper


def distortion_report(
    op: OperatorParams,
    cp: ClassParams,
    f: LaurentSeries,
    r: float,
    which: str,
    tail: TailPolicy,
    angles_count: int = 720,
) -> Report:
    """Check |f| (or |f'|) against the distortion interval on |z| = r.

    Meaningful for class members (nonnegative subclass for f_plus).
    Vacuous intervals from a flagged divergent configuration give an
    inconclusive verdict, never a fake pass.  So does an interval collapsed
    to one float coarser than SUM_TOL, the tolerance of the check: near
    r = 0 the spread is lost to rounding against 1/r^p.
    """
    lower, upper = distortion(op, cp, r, which, tail)
    if not np.isfinite(lower) and not np.isfinite(upper):
        return Report(
            INCONCLUSIVE, float("nan"), None,
            f"vacuous bounds (divergent multiplier sum) for which={which} at r={r}",
        )
    if lower == upper and math.ulp(lower) > SUM_TOL:
        # the spread is positive, lost to rounding, by more than the check's tolerance
        return Report(
            INCONCLUSIVE, float("nan"), None,
            f"bounds collapse to one float, lower = upper = {lower:.12g}, for which={which} at r={r}; "
            f"its spacing {math.ulp(lower):.3g} exceeds the tolerance {SUM_TOL:g}",
        )
    g = z_derivative(f) if which == "fprime_general" else f
    scale = r if which == "fprime_general" else 1.0

    def margin_of(points, values):
        vals = np.abs(values) / scale
        return np.minimum(vals - lower, upper - vals)

    detail = f"which={which} r={r} lower={lower:.12g} upper={upper:.12g} angles={angles_count}"
    report = _grid_check(
        SampleGrid((r,), angles_count), None, (g,), margin_of, lambda worst: worst >= -SUM_TOL, detail
    )
    if report.verdict != FAILS:
        return report
    # Horner over the n terms of g rounds |g| by at most (4 n + 16) units of 2**-53 of the
    # terms' moduli summed at |z| = r, and the interval's ends by as many of their size
    ks = np.arange(-g.pole_order, g.trunc_order + 1)
    with np.errstate(over="ignore"):
        majorant = float(np.sum(np.abs(np.concatenate(([g.lead], g.coeffs))) * r ** ks))
    slack = (4 * ks.size + 16) * 2.0**-53 * (majorant / scale + max(abs(lower), abs(upper)))
    if report.worst_margin < -slack:
        return report
    return replace(
        report, verdict=INCONCLUSIVE,
        detail=f"shortfall {-report.worst_margin:.3g} is within the rounding bound {slack:.3g} "
        f"of the sampled modulus; {detail}",
    )


# --------------------------------------------------- convolution non-vanishing

def conv_identity_kernel(p: int, trunc_order: int) -> LaurentSeries:
    """All-ones kernel z^-p/(1-z); hadamard with it is the identity."""
    n = trunc_order - (1 - p) + 1
    return LaurentSeries(p, trunc_order, np.ones(n, dtype=np.complex128), 1.0, False)


def conv_derivative_kernel(p: int, trunc_order: int) -> LaurentSeries:
    """Kernel (-p z^-p + (p+1) z^(1-p))/(1-z)^2, coefficient k at z^k;
    hadamard with it equals z d/dz."""
    ks = np.arange(1 - p, trunc_order + 1, dtype=np.complex128)
    return LaurentSeries(p, trunc_order, ks, -float(p), False)


def _phase_detail(worst: float, u: complex, v: complex) -> str:
    """The report's words on theta* = arg(u conj(v)) in [0, 2 pi), where |u - beta e^(i theta) v|
    is least.  arg u - arg v lies in [-2 pi, 2 pi]; its ends (the signed zeros of -1 +- 0j), and
    a negative difference that reduces to 2 pi by rounding, are the phase 0."""
    if u == 0 or v == 0:
        return f"min |value| = {worst:.6g} at every theta (u = 0 or v = 0 at the witness)"
    theta = float(np.angle(u) - np.angle(v)) % (2.0 * math.pi)
    if theta in (0.0, 2.0 * math.pi):
        return f"min |value| = {worst:.6g} approached as theta -> 0, excluded, and not attained"
    return f"min |value| = {worst:.6g} at theta={theta:.6g}"


def convolution_nonvanishing(
    op: OperatorParams,
    cp: ClassParams,
    f: LaurentSeries,
    grid: SampleGrid | None = None,
    theta_count: int = 360,
    threshold: float | None = None,
) -> Report:
    """Minimize |u - beta sigma v| over the grid and |sigma| = 1, where
    u - beta sigma v = z^p [ (1-beta sigma) z F' + p (1-(2 alpha-1) beta sigma) F ],
    reporting the smallest modulus and, at the witness, the phase theta* of
    the minimizing sigma* = e^(i theta*).

    F = the operator transform of f.  At each point the infimum over the
    circle is ||u| - beta |v||, at theta* = arg(u conj(v)); theta = 0 is
    excluded, since the statement is open there, but the infimum over the open
    arc is the same, approached and not attained when theta* = 0.  For class
    members the value never vanishes; f = z^-p gives u = 0 and the constant
    2 p beta (1-alpha).  Meaningful only when f (is believed to) pass a
    membership check.  ``theta_count`` is read by nothing; it stays so that
    calls passing it, or ``threshold``, by position keep working.
    """
    require_pole_order(op, f)
    grid = grid or default_grid()
    if threshold is None:
        threshold = grid.margin
    if not threshold >= 0.0:
        raise ValueError(f"threshold: need >= 0, got {threshold}")
    F = apply_coeff(op, f)
    dF = z_derivative(F)
    shift = 2.0 * cp.alpha - 1.0

    def margin_of(points, a, b):
        # |z|^p | |zF' + pF| - beta |zF' + (2 alpha - 1) pF| |, in the buffers of the values
        # zF' (a) and F (b), which it consumes; _grid_check refuses non-finite margins
        with np.errstate(over="ignore", invalid="ignore"):
            pf = np.multiply(b, op.p, out=b)
            at_u = np.abs(np.add(a, pf, out=a))
            np.add(a, np.multiply(pf, shift - 1.0, out=pf), out=a)
            at_v = np.abs(a, out=b.real)
            margins = np.subtract(at_u, np.multiply(at_v, cp.beta, out=at_v), out=at_u)
            np.abs(margins, out=margins)
            return np.multiply(margins, np.power(np.abs(points, out=b.imag), op.p, out=b.imag), out=margins)

    note = _grid_note(grid)

    def detail_at(report, a, b):
        # theta* from the Horner values at the witness, by margin_of's operations; z^p cancels
        with np.errstate(over="ignore", invalid="ignore"):
            pf = op.p * b
            u = a + pf
            v = u + (shift - 1.0) * pf
        return f"{_phase_detail(report.worst_margin, complex(u), complex(v))}; {note}"

    return _grid_check(
        grid, RADIUS_CAP, (dF, F), margin_of, lambda best: best > threshold, note, detail_at=detail_at
    )


# ------------------------------------------------------------- partial sums

def partial_sum(f: LaurentSeries, m_cut: int) -> LaurentSeries:
    """Keep the pole and the coefficients below index m_cut.

    m_cut <= -p gives the bare pole; m_cut past the stored range gives f
    itself.  In between, the result is exactly supported by construction.
    """
    if m_cut <= -f.pole_order:
        return LaurentSeries.pole_only(f.pole_order, f.trunc_order)
    if m_cut > f.trunc_order:
        return f
    arr = np.array(f.coeffs)
    ks = f.k_values()
    arr[ks >= m_cut] = 0.0
    return LaurentSeries(f.pole_order, f.trunc_order, arr, f.lead, True)


def partial_sum_bounds(
    op: OperatorParams,
    cp: ClassParams,
    f: LaurentSeries,
    m_cut: int,
    grid: SampleGrid | None = None,
) -> Report:
    """Sampled check of the two ratio bounds against the cut at m_cut:

        Re{ f / k_m } > 1 - 1/theta          (theta = weight at m_cut)
        Re{ k_m / f } > theta / (1 + theta)

    Both premises are verified first and are reported, not assumed: the
    weighted coefficient sum must be <= 1, and the weights must be > 1
    and strictly increasing (false for some admissible parameters, in
    which case the verdict is inconclusive -- the bounds' derivation
    genuinely needs it).
    """
    require_pole_order(op, f)
    if not f.is_normalized:
        raise ValueError("lead: ratio bounds expect a normalized series")
    if m_cut < 1 - op.p:
        raise ValueError(f"m_cut: the ratio bounds need m_cut >= {1 - op.p}, got {m_cut}")
    grid = grid or default_grid()
    th = ratio_weights(op, cp, f.k_values())
    hyp, within, slack = _weighted_sum(th, np.hypot(f.coeffs.real, f.coeffs.imag), 1.0, "hypothesis sum")
    if not f.exact_support:
        return Report(
            INCONCLUSIVE, slack, None,
            "truncation tail uncertified (exact_support is false); "
            "the weighted-sum hypothesis cannot be established",
        )
    if not within:
        return Report(
            INCONCLUSIVE, slack, None,
            f"hypothesis fails: weighted coefficient sum {hyp:.17g} > 1",
        )
    # The bracket k(beta + 1) + p(1 + beta(2 alpha - 1)) rises by beta + 1 per step and
    # phi_k >= 1 never falls (lam >= mu >= 0), so a positive weight at k = 1 - p makes the
    # weights strictly increase from there on; rounding is monotone, so no computed weight
    # falls below the first.  The first weight alone decides the monotone-weight premise.
    if th[0] <= 1.0 + SUM_TOL:
        return Report(
            INCONCLUSIVE, slack, None,
            f"monotone-weight premise fails: weight at k={1 - op.p} is {th[0]:.6g} <= 1; "
            "the bounds' derivation does not apply",
        )
    theta_m = float(ratio_weights(op, cp, np.array([m_cut]))[0])
    km = partial_sum(f, m_cut)
    # the ratio bounds run out to RATIO_RADIUS_CAP, so the membership-cap
    # wording of _grid_note would misreport radii in (0.95, 0.999]
    note = f"grid={grid.digest()} m_cut={m_cut} theta={theta_m:.12g}"

    def margin_of(points, vf, vk):
        # nothing vanishes: weights > 1 + SUM_TOL and sum theta_k |a_k| <= 1 + SUM_TOL give
        # sum |a_k| <= 1 + 1e-12, so |z^p f|, |z^p k_m| >= 1 - 0.999 (1 + 1e-12), about 1e-3,
        # on radii <= RATIO_RADIUS_CAP.  An overflowed value leaves a NaN margin (usage error)
        with np.errstate(divide="ignore", invalid="ignore"):
            m1 = np.real(vf / vk) - (1.0 - 1.0 / theta_m)
            m2 = np.real(vk / vf) - theta_m / (1.0 + theta_m)
        return np.minimum(m1, m2)

    return _grid_check(
        grid, RATIO_RADIUS_CAP, (f, km), margin_of, lambda worst: worst >= -grid.margin, note
    )
