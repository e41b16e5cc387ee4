"""Coefficient bounds, distortion intervals, convolution non-vanishing and
partial-sum ratio bounds."""
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import merokit.bounds
import merokit.series
from merokit.bounds import (
    TailPolicy,
    _phase_detail,
    coeff_bound_general,
    coeff_bound_plus,
    coeff_bounds_report,
    conv_derivative_kernel,
    conv_identity_kernel,
    convolution_nonvanishing,
    distortion,
    distortion_report,
    partial_sum,
    partial_sum_bounds,
    phi_growth_degree,
    ratio_weights,
)
from merokit.generators import MeasureAtoms, SchwarzPoly, extremal_fn, from_herglotz, from_schwarz, ratio_extremal
from merokit.membership import (
    RADIUS_CAP,
    SUM_TOL,
    ClassParams,
    disk_characterization,
    disk_margins,
    numeric_margins,
    numeric_membership,
    subordination_power_target,
)
from merokit.neighborhoods import verify_inclusion_general
from merokit.operator import OperatorParams, apply_coeff
from merokit.series import (
    LaurentSeries,
    SampleGrid,
    default_grid,
    eval_at,
    eval_circles,
    eval_many,
    hadamard,
    z_derivative,
)

M0 = OperatorParams(0.0, 0.0, 0, 1)
OP1 = OperatorParams(1.0, 0.0, 1, 1)
HALF = ClassParams(0.5, 1.0)


def L(p, K, coeffs, lead=1.0, exact=True):
    return LaurentSeries(p, K, np.asarray(coeffs, dtype=complex), lead, exact)


# ----------------------------------------------------------- coefficient bounds

def test_growth_degree():
    assert phi_growth_degree(M0) == 0
    assert phi_growth_degree(OperatorParams(0.0, 0.0, 3, 1)) == 0  # lam = 0
    assert phi_growth_degree(OP1) == 1
    assert phi_growth_degree(OperatorParams(1.0, 0.5, 2, 1)) == 4


def test_coeff_bound_frozen_values():
    assert coeff_bound_general(M0, ClassParams(0.0, 1.0), 3) == pytest.approx(0.5)
    assert coeff_bound_plus(M0, HALF, 1) == pytest.approx(1 / 3)


def test_coeff_bound_ranges_refused():
    with pytest.raises(ValueError, match="n"):
        coeff_bound_general(M0, HALF, 1)  # below 3 - p
    with pytest.raises(ValueError, match="n"):
        coeff_bound_plus(M0, HALF, -1)
    with pytest.raises(ValueError, match="degenerate"):
        coeff_bound_plus(M0, ClassParams(0.0, 1.0), 0)


@given(
    alpha=st.floats(0.5, 0.95),
    beta=st.floats(0.1, 1.0),
    n=st.integers(2, 12),
    m=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_plus_bound_is_sharper_above_balance_index(alpha, beta, n, m):
    """For n >= p(1-2alpha) the subclass bound is at most the general one."""
    op = OperatorParams(0.7, 0.2, m, 1)
    cp = ClassParams(alpha, beta)
    assert coeff_bound_plus(op, cp, n) <= coeff_bound_general(op, cp, n) + 1e-15


def test_coeff_bounds_report_general_equality_and_inflation():
    cp = ClassParams(0.0, 1.0)
    b = coeff_bound_general(M0, cp, 2)
    f = L(1, 3, [0.0, 0.0, b, 0.0])
    rep = coeff_bounds_report(M0, cp, f, kind="general")
    assert rep.verdict == "holds"
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.witness == 2
    rep = coeff_bounds_report(M0, cp, f.with_coeff(2, b * 1.01), kind="general")
    assert rep.verdict == "fails" and rep.witness == 2


def test_coeff_bounds_report_out_of_range_support():
    rep = coeff_bounds_report(M0, HALF, L(1, 1, [0.0, 0.1]), kind="general")
    assert rep.verdict == "inconclusive"  # stored ks stop below 3 - p


def test_coeff_bounds_report_plus_paths():
    f = extremal_fn(M0, HALF, 1)
    rep = coeff_bounds_report(M0, HALF, f, kind="plus")
    assert rep.verdict == "holds" and abs(rep.worst_margin) <= 1e-12
    g = f.with_coeff(1, f.coeff(1).real * 1.01)
    rep = coeff_bounds_report(M0, HALF, g, kind="plus")
    assert rep.verdict == "fails" and rep.witness == 1
    with pytest.raises(ValueError, match="coeffs"):
        coeff_bounds_report(M0, HALF, L(1, 1, [0.0, -0.1]), kind="plus")


def test_coeff_bounds_report_plus_notes_degenerate():
    cp = ClassParams(0.0, 1.0)
    rep = coeff_bounds_report(M0, cp, L(1, 1, [0.3, 0.1]), kind="plus")
    assert "degenerate" in rep.detail  # weight at k = 0 vanishes, skipped


# ------------------------------------------------------------------ distortion

def test_distortion_plus_closed_form_attained_on_real_axis():
    """The one-term extremal at k = 1-p meets the upper bound at z = r and
    the lower bound at z = -r, to machine accuracy."""
    op, cp = OP1, HALF
    b = coeff_bound_plus(op, cp, 0)
    assert b == pytest.approx(0.5)
    f = LaurentSeries.pole_only(1, 4).with_coeff(0, b)
    tail = TailPolicy("exact_support")
    for r in (0.2, 0.5, 0.8):
        lower, upper = distortion(op, cp, r, "f_plus", tail)
        assert abs(abs(eval_at(f, r)) - upper) < 1e-12
        assert abs(abs(eval_at(f, -r)) - lower) < 1e-12


def test_distortion_general_sum_brackets_telescoping_value():
    """For m=1, lam=1, mu=0, p=1 the multiplier sum telescopes to exactly 1;
    the certified upper estimate must sit just above it."""
    lower, upper = distortion(OP1, HALF, 0.5, "f_general", TailPolicy("tail_estimate"))
    s_upper = upper - 1 / 0.5  # budget = 1 and r^(1-p) = 1
    assert 1.0 < s_upper < 1.001


def test_distortion_with_overflowing_multipliers_is_finite():
    """With lam = 1, mu = 0, m = 100, phi_k = (k + 2)^100 overflows a float
    from about k = 1200 on.  Those terms of the multiplier sums are exact
    zeros, their limit, and the spread is far below an ulp of the base."""
    op = OperatorParams(1.0, 0.0, 100, 1)
    tail = TailPolicy("tail_estimate")
    assert distortion(op, HALF, 0.5, "f_general", tail) == (2.0, 2.0)
    assert distortion(op, HALF, 0.5, "fprime_general", tail) == (4.0, 4.0)


def test_distortion_tail_majorant_with_huge_power():
    """lam^(-m) alone overflows a float at lam = 0.5, m = 2000 (and
    (lam mu)^(-m) at lam mu = 0.125, m = 1000), yet every multiplier term
    and the majorant underflow to 0: the interval collapses onto the base."""
    tail = TailPolicy("tail_estimate")
    op = OperatorParams(0.5, 0.0, 2000, 1)
    assert distortion(op, HALF, 0.5, "f_general", tail) == (2.0, 2.0)
    assert distortion(op, HALF, 0.5, "fprime_general", tail) == (4.0, 4.0)
    assert distortion(OperatorParams(0.5, 0.25, 1000, 1), HALF, 0.5, "fprime_general", tail) == (
        4.0, 4.0,
    )
    rep = distortion_report(op, HALF, LaurentSeries.pole_only(1, 2), 0.5, "f_general", tail)
    assert rep.verdict == "holds" and abs(rep.worst_margin) <= 1e-12


def test_distortion_overflowing_tail_majorant_is_refused():
    # (lam (2048 + p))^(-m) = 0.002049^(-2000) has no float value, nor has
    # (lam mu (2048 + p)^2)^(-1) where lam mu = 1e-400 underflows to 0
    for op in (OperatorParams(1e-6, 0.0, 2000, 1), OperatorParams(1e-200, 1e-200, 1, 1)):
        with pytest.raises(ValueError, match="tail: the majorant of the sum beyond k=2048"):
            distortion(op, HALF, 0.5, "f_general", TailPolicy("tail_estimate"))


def test_distortion_tail_majorant_frozen_values():
    # at small lam mu the tail beyond k = 2048 reaches the interval's last
    # bits: the majorant (lam mu x0^2)^(-m) x0^extra/(s-1) moved the lower
    # end of this one by 2 ulps from the form with (lam mu)^(-m) and x0^(1-s)
    # apart (-0x1.0454f375c47b8p+8)
    op = OperatorParams(0.003269453560871229, 7.682609405526497e-05, 1, 1)
    cp = ClassParams(0.2898006661770327, 0.9993849920819283)
    r, tail = 0.09982998679306695, TailPolicy("tail_estimate")
    assert distortion(op, cp, r, "f_general", tail) == (
        float.fromhex("0x1.359d3f3daf0d0p-1"), float.fromhex("0x1.36de991906a40p+4"),
    )
    assert distortion(op, cp, r, "fprime_general", tail) == (
        float.fromhex("-0x1.0454f375c47b6p+8"), float.fromhex("0x1.cd037d514277ap+8"),
    )


def test_distortion_divergent_policy():
    tail = TailPolicy("divergent_flag")
    assert distortion(M0, HALF, 0.5, "f_general", tail) == (float("-inf"), float("inf"))
    with pytest.raises(ValueError, match="divergent_flag"):
        distortion(M0, HALF, 0.5, "f_general", TailPolicy("tail_estimate"))
    # derivative sum needs one more degree than the function sum
    assert distortion(OP1, HALF, 0.5, "fprime_general", tail)[1] == float("inf")


def test_distortion_validation():
    with pytest.raises(ValueError, match="r"):
        distortion(OP1, HALF, 1.0, "f_plus", TailPolicy("exact_support"))
    with pytest.raises(ValueError, match="which"):
        distortion(OP1, HALF, 0.5, "f", TailPolicy("exact_support"))
    with pytest.raises(ValueError, match="mode"):
        distortion(OP1, HALF, 0.5, "f_general", TailPolicy("exact_support"))
    with pytest.raises(ValueError, match="mode"):
        TailPolicy("whatever")


def test_distortion_report_holds_at_equality():
    op, cp = OP1, HALF
    f = LaurentSeries.pole_only(1, 4).with_coeff(0, coeff_bound_plus(op, cp, 0))
    rep = distortion_report(op, cp, f, 0.5, "f_plus", TailPolicy("exact_support"))
    assert rep.verdict == "holds"
    assert abs(rep.worst_margin) <= 1e-12  # equality at z = +-r


def test_distortion_report_vacuous_is_inconclusive():
    rep = distortion_report(
        M0, HALF, LaurentSeries.pole_only(1, 2), 0.5, "f_general", TailPolicy("divergent_flag")
    )
    assert rep.verdict == "inconclusive"
    assert "vacuous" in rep.detail


def test_distortion_radius_whose_bounds_overflow_is_refused():
    """A radius so small that 1/r^p, or the interval, overflows a float is a
    ValueError that names r, not a bare OverflowError or an infinite bound."""
    op2 = OperatorParams(1.0, 0.5, 1, 1)  # mu > 0: the f' sum converges
    for op, which, tail in ((OP1, "f_plus", "exact_support"), (OP1, "f_general", "tail_estimate"),
                            (op2, "fprime_general", "tail_estimate")):
        with pytest.raises(ValueError, match=r"^r: r\*\*-\d overflows a float at r=1e-310$"):
            distortion(op, HALF, 1e-310, which, TailPolicy(tail))
    assert distortion(OP1, HALF, 1e-300, "f_plus", TailPolicy("exact_support")) == (1e-300 ** -1,) * 2
    # finite powers, but the tail majorant 1/(lam x0) of a tiny lam times r^(1-p)
    # overflows the spread: refused, not reported as a vacuous (divergent) interval
    with pytest.raises(ValueError, match=r"^r: the distortion bounds at r=1e-13 overflow a float$"):
        distortion(OperatorParams(1e-300, 0.0, 1, 2), HALF, 1e-13, "f_general", TailPolicy("tail_estimate"))


@pytest.mark.parametrize("r", [1e-200, 1e-20])
def test_distortion_report_on_a_collapsed_interval_is_inconclusive(r):
    """Where the spread is lost to rounding against 1/r^p, lower == upper, and
    a float spacing above SUM_TOL leaves no sampled modulus to be judged
    against that one float.  (A collapse finer than SUM_TOL, as in
    ``test_distortion_tail_majorant_with_huge_power``, is judged.)"""
    f = extremal_fn(OP1, HALF, 0)
    lower, upper = distortion(OP1, HALF, r, "f_plus", TailPolicy("exact_support"))
    assert lower == upper == r ** -1
    rep = distortion_report(OP1, HALF, f, r, "f_plus", TailPolicy("exact_support"))
    assert rep.verdict == "inconclusive" and rep.witness is None
    assert rep.detail.startswith(f"bounds collapse to one float, lower = upper = {lower:.12g}")
    assert distortion_report(OP1, HALF, f, 0.5, "f_plus", TailPolicy("exact_support")).verdict == "holds"


def test_distortion_report_shortfall_within_rounding_is_inconclusive():
    """The f_plus extremal meets its bound exactly.  At tiny r, |f| ~ 1/r^p is
    rounded by more than SUM_TOL, so it may fall short of the interval by an
    ulp.  A shortfall within the a priori rounding bound of the sampled
    modulus is inconclusive, with the same margin and witness, never fails."""
    f = extremal_fn(OP1, HALF, 0)
    tail = TailPolicy("exact_support")
    reps = [distortion_report(OP1, HALF, f, float(r), "f_plus", tail) for r in np.logspace(-16, -6, 400)]
    assert [rep for rep in reps if rep.verdict == "fails"] == []
    rounded = [rep for rep in reps if rep.detail.startswith("shortfall ")]
    assert rounded and all(rep.verdict == "inconclusive" and rep.witness is not None for rep in rounded)
    rep = distortion_report(OP1, HALF, f, 2.43200751326795e-12, "f_plus", tail)
    assert (rep.verdict, rep.worst_margin) == ("inconclusive", -(2.0**-14))
    assert "is within the rounding bound" in rep.detail
    # at r = 0.5 the extremal holds at equality, and a coefficient 1e-9 over its bound fails
    assert distortion_report(OP1, HALF, f, 0.5, "f_plus", tail).verdict == "holds"
    over = f.with_coeff(0, f.coeffs[0].real * (1.0 + 1e-9))
    rep = distortion_report(OP1, HALF, over, 0.5, "f_plus", tail)
    assert rep.verdict == "fails" and rep.worst_margin < -1e-10


def test_distortion_report_fprime_route():
    """|f'| of the bare pole is p/r^(p+1), strictly inside the interval.
    Needs multiplier growth degree >= 2, so mu must be positive here."""
    op = OperatorParams(1.0, 0.5, 1, 1)
    rep = distortion_report(
        op, HALF, LaurentSeries.pole_only(1, 4), 0.5, "fprime_general",
        TailPolicy("tail_estimate"), angles_count=36,
    )
    assert rep.verdict == "holds" and rep.worst_margin > 0


# ------------------------------------------------------------------ convolution

def test_conv_kernel_identities():
    f = L(2, 3, [0.4, -0.2j, 0.0, 1.0, 0.3])
    ident = conv_identity_kernel(2, 3)
    assert np.allclose(hadamard(f, ident).coeffs, f.coeffs)
    assert hadamard(f, ident).lead == f.lead
    deriv = conv_derivative_kernel(2, 3)
    zd = z_derivative(f)
    out = hadamard(f, deriv)
    assert np.allclose(out.coeffs, zd.coeffs)
    assert out.lead == zd.lead


def test_convolution_constant_for_bare_pole():
    """f = z^-p makes the scanned combination exactly 2 p beta (1-alpha)
    times a unimodular factor, so the minimum modulus is that constant."""
    rep = convolution_nonvanishing(OP1, HALF, LaurentSeries.pole_only(1, 4))
    assert rep.verdict == "holds"
    assert rep.worst_margin == pytest.approx(1.0, abs=1e-12)  # 2*1*1*(1/2)
    cp = ClassParams(0.25, 0.8)
    rep = convolution_nonvanishing(OP1, cp, LaurentSeries.pole_only(1, 4))
    assert rep.worst_margin == pytest.approx(2 * 0.8 * 0.75, abs=1e-12)


def test_convolution_holds_for_member():
    f = extremal_fn(OP1, HALF, 1)
    rep = convolution_nonvanishing(OP1, HALF, f, theta_count=90)
    assert rep.verdict == "holds" and rep.worst_margin > 1e-3


def test_convolution_flags_vanishing_point():
    """With a_1 = 4/9 the combination is sigma + 3 a z^2 (2 - sigma) after the
    operator triples a_1, and it vanishes exactly at z = 0.5 and z = -0.5,
    sigma = -1.  Both lie on the default grid, so the infimum over the phases
    collapses to rounding error and the check fails.  Rounding decides which
    of the two zeros is reported."""
    f = L(1, 1, [0.0, 4.0 / 9.0])
    rep = convolution_nonvanishing(OP1, HALF, f, theta_count=45)
    assert rep.verdict == "fails"
    assert rep.worst_margin < 1e-12
    assert min(abs(rep.witness - 0.5), abs(rep.witness + 0.5)) < 1e-12
    assert "at theta=3.14159;" in rep.detail


def _one_matrix_min(u, v, beta, sigmas):
    """The scan as one (sigma, point) matrix: minimum and sigma-major argmin."""
    vals = np.abs(u[None, :] - beta * sigmas[:, None] * v[None, :])
    flat = int(np.argmin(vals))
    return float(vals.flat[flat]), flat


def test_convolution_refuses_negative_threshold():
    # |value| >= 0 > threshold would hold whatever f is
    for threshold in (-1.0, -1e-300, float("nan")):
        with pytest.raises(ValueError, match="threshold: need >= 0"):
            convolution_nonvanishing(OP1, HALF, LaurentSeries.pole_only(1, 2), threshold=threshold)
    rep = convolution_nonvanishing(OP1, HALF, LaurentSeries.pole_only(1, 2), threshold=0.0)
    assert rep.verdict == "holds"


def _phases(T):
    """The T interior phases e^(2 pi i s/(T+1)), s = 1..T, of a scan."""
    return np.exp(1j * (2.0 * np.pi * np.arange(1, T + 1) / (T + 1)))


def _scan_minima(u, v, beta, T):
    """Per point, the T-phase scan's minimum of |u - beta sigma v|, by the one-matrix oracle."""
    sigmas = _phases(T)
    return np.array([_one_matrix_min(u[i : i + 1], v[i : i + 1], beta, sigmas)[0] for i in range(u.size)])


def _conv_uv(op, cp, zs, values):
    """u = z^p (zF' + pF) and v = z^p (zF' + (2 alpha - 1) pF) from the values of zF' and F."""
    a, b = values
    zp = zs ** op.p
    return zp * (a + op.p * b), zp * (a + (2.0 * cp.alpha - 1.0) * op.p * b)


def _conv_band(op, cp, F, zs):
    """The rounding band of ||u| - beta |v||, point by point: (4 n + 16) units of 2**-53
    of (1 + beta) M, with M = sum (|k| + p) |c_k| |z|^(k+p) over the n stored terms c_k
    of F, the pole included, the moduli that the Horner sums of u and v add up.  It
    bounds the FFT's values too, whose rounding grows only with the log of the angle count."""
    ks = np.concatenate(([-op.p], F.k_values()))
    c = np.abs(np.concatenate(([F.lead], F.coeffs)))
    majorant = np.sum((np.abs(ks) + op.p) * c * np.abs(zs)[:, None] ** (ks + op.p), axis=1)
    return (4 * ks.size + 16) * 2.0**-53 * (1.0 + cp.beta) * majorant


def _mp_infimum(op, cp, F, z):
    """||u| - beta |v|| at z in 40-digit mpmath, from F's stored coefficients."""
    with mpmath.workdps(40):
        zm = mpmath.mpc(z)
        terms = [(-op.p, mpmath.mpc(F.lead))] + [(int(k), mpmath.mpc(c)) for k, c in zip(F.k_values(), F.coeffs)]
        b = mpmath.fsum(c * zm**k for k, c in terms)
        a = mpmath.fsum(k * c * zm**k for k, c in terms)
        zp = zm**op.p
        u = zp * (a + op.p * b)
        v = zp * (a + (2 * mpmath.mpf(cp.alpha) - 1) * op.p * b)
        return float(abs(abs(u) - mpmath.mpf(cp.beta) * abs(v)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_convolution_matches_full_scan(seed):
    """The reported margin is the infimum over every phase, ||u| - beta |v||:
    at every grid point it is no larger than a T-phase scan's minimum of the
    FFT values (T = 1, 45, 360), up to the rounding band ``_conv_band``; a
    65536-phase scan lies above it by at most the farthest its nearest phase
    can be from theta*, sqrt(2 beta |u||v| (1 - cos(pi/65537))) at the witness;
    and it agrees, within the band, with ||u| - beta |v|| at the witness in
    40-digit mpmath from F's stored coefficients."""
    rng = np.random.default_rng(seed)
    op = OperatorParams(1.0, 0.5, 1, seed)
    cp = ClassParams(rng.uniform(0.0, 0.9), rng.uniform(0.3, 1.0))
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    f = from_schwarz(op, cp, SchwarzPoly(tuple(c / (1.2 * np.sum(np.abs(c))))), 40)
    grid = SampleGrid((0.3, 0.6, 0.9), 64)
    rep = convolution_nonvanishing(op, cp, f, grid)
    assert rep.verdict == "holds"
    F = apply_coeff(op, f)
    zs = grid.points(radius_cap=RADIUS_CAP)
    u, v = _conv_uv(op, cp, zs, [eval_circles(g, grid, RADIUS_CAP) for g in (z_derivative(F), F)])
    band = _conv_band(op, cp, F, zs)
    for T in (1, 45, 360):
        assert np.all(rep.worst_margin <= _scan_minima(u, v, cp.beta, T) + band), T
    i = int(np.flatnonzero(zs == rep.witness)[0])
    gap = math.sqrt(2.0 * cp.beta * abs(u[i]) * abs(v[i]) * (1.0 - math.cos(math.pi / 65537)))
    fine = float(np.min(_scan_minima(u, v, cp.beta, 65536)))
    assert rep.worst_margin - band[i] <= fine <= rep.worst_margin + gap + band[i]
    assert abs(rep.worst_margin - _mp_infimum(op, cp, F, rep.witness)) <= band[i]


def test_convolution_reports_the_infimum_the_phases_miss():
    """One of 20 Herglotz members (K = 40, beta in [0.3, 1], default grid) on
    which the 360 sampled phases overstated the infimum about 19 times: the
    reported margin stays within the band of ||u| - beta |v|| in mpmath."""
    rng = np.random.default_rng(18)
    op = OperatorParams(1.0, 0.0, 1, 1)
    alpha, beta = float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.3, 1.0))
    angles, weights = rng.uniform(0.0, 2.0 * np.pi, 3), rng.dirichlet(np.ones(3))
    atoms = MeasureAtoms(tuple((complex(np.cos(t), np.sin(t)), float(w)) for t, w in zip(angles, weights)))
    cp = ClassParams(alpha, beta)
    f = from_herglotz(op, alpha, atoms, 40)
    grid = default_grid()
    rep = convolution_nonvanishing(op, cp, f, grid)
    assert rep.verdict == "holds"
    F = apply_coeff(op, f)
    zs = grid.points(radius_cap=RADIUS_CAP)
    u, v = _conv_uv(op, cp, zs, [eval_circles(g, grid, RADIUS_CAP) for g in (z_derivative(F), F)])
    assert float(np.min(_scan_minima(u, v, cp.beta, 360))) >= 5.0 * rep.worst_margin
    at = np.array([rep.witness])
    assert abs(rep.worst_margin - _mp_infimum(op, cp, F, rep.witness)) <= _conv_band(op, cp, F, at)[0]


def _theta_of(detail):
    return float(detail.split(" at theta=")[1].split(";")[0])


#: u and v built so that theta* = arg(u conj(v)) is pi, just past 0, just short of
#: 2 pi, and the phase 0 from the signed zeros of -1 +- 0j (arg u - arg v = -+2 pi)
_GAP = 2.0 * np.pi / 361
_TURN_UV = {
    "pi": (1.0, -1.0),
    "first-gap": (np.exp(1j * _GAP / 3), 1.0),
    "last-gap": (np.exp(-1j * _GAP / 3), 1.0),
    "minus-2pi": (complex(-1.0, -0.0), complex(-1.0, 0.0)),
    "plus-2pi": (complex(-1.0, 0.0), complex(-1.0, -0.0)),
}


def test_convolution_phase_is_reduced_to_one_turn():
    """theta* lies in [0, 2 pi), beside the phase of least |u - beta sigma v|
    among the 360 of a scan (the one-matrix oracle), also for random u, v;
    the signed zeros of -1 +- 0j give the phase 0, not -+2 pi."""
    rng = np.random.default_rng(11)
    beta, sigmas = 0.7, _phases(360)
    pairs = dict(_TURN_UV)
    for i in range(40):
        pairs[f"random-{i}"] = tuple(complex(*rng.normal(size=2)) for _ in range(2))
    for name, (u, v) in pairs.items():
        u, v = np.array([u], dtype=complex), np.array([v], dtype=complex)
        detail = _phase_detail(0.0, complex(u[0]), complex(v[0]))
        if name in ("minus-2pi", "plus-2pi"):
            assert np.angle(u[0]) - np.angle(v[0]) == (-2.0 if name == "minus-2pi" else 2.0) * np.pi
            assert "approached as theta -> 0" in detail, name
            continue
        theta = _theta_of(detail)
        assert 0.0 < theta < 2.0 * np.pi, name
        s = _one_matrix_min(u, v, beta, sigmas)[1] + 1
        # half a gap from the nearest phase; a whole one next to the excluded 0,
        # where the scan's nearest is its first or last phase (the detail keeps 6 digits)
        assert abs(theta - _GAP * s) <= (_GAP if s in (1, 360) else _GAP / 2) + 1e-5, name
    assert _theta_of(_phase_detail(0.0, *map(complex, _TURN_UV["pi"]))) == pytest.approx(np.pi, abs=1e-5)


def test_convolution_theta_grid_is_interior():
    """theta = 0 is excluded (the statement's arc is open): where theta* = 0
    the infimum over the arc is approached and not attained, and the detail
    says so.  f = z^-1 - 1 under the identity operator has u = -z and
    v = -(1 + z)/2 at alpha = 3/4; on |z| = 0.9 the least ||u| - |v|/2| is
    at z = 0.9, where u and v are negative reals."""
    assert _phase_detail(0.25, 1.0, 1.0) == "min |value| = 0.25 approached as theta -> 0, excluded, and not attained"
    rep = convolution_nonvanishing(M0, ClassParams(0.75, 0.5), L(1, 0, [-1.0]), SampleGrid((0.9,), 16), 1)
    assert rep.verdict == "holds" and rep.witness == 0.9
    assert rep.worst_margin == pytest.approx(0.9 - 0.5 * 0.95, abs=1e-15)
    assert rep.detail.startswith(f"min |value| = {rep.worst_margin:.6g} approached as theta -> 0, excluded, ")


def test_convolution_phase_ties_where_u_or_v_vanishes():
    """Where u or v is 0, |u - beta sigma v| is the same at every phase, and the
    detail says so: v = 0, u = v = 0 and u = 0, and the bare pole z^-p, whose u
    is 0 at every point."""
    sigmas = _phases(360)
    for u, v in ((0.6 - 0.2j, 0.0), (0.0, 0.0), (0.0, 0.3 - 0.4j)):
        assert "at every theta (u = 0 or v = 0 at the witness)" in _phase_detail(0.5, u, v)
        vals = np.abs(u - 0.7 * sigmas * v)
        assert np.ptp(vals) <= 1e-15
    rep = convolution_nonvanishing(OP1, HALF, LaurentSeries.pole_only(1, 4))
    assert rep.detail.startswith(f"min |value| = {rep.worst_margin:.6g} at every theta ")


def test_convolution_theta_count_bound():
    """theta_count is read by nothing: no phase is sampled, so any value, 0 and
    beyond 2**53 included, gives the one report, and its margin is the least
    ||u| - beta |v|| over the grid points."""
    f = extremal_fn(OP1, HALF, 1)
    grid = SampleGrid((0.5,), 16)
    rep = convolution_nonvanishing(OP1, HALF, f, grid)
    assert rep.verdict == "holds" and "theta_count" not in rep.detail
    for T in (0, 1, 360, 10**11, 2**53, 2**53 + 1, -1):
        assert convolution_nonvanishing(OP1, HALF, f, grid, T) == rep
    zs = grid.points()
    F = apply_coeff(OP1, f)
    u, v = _conv_uv(OP1, HALF, zs, (eval_many(z_derivative(F), zs), eval_many(F, zs)))
    assert rep.worst_margin == pytest.approx(np.min(np.abs(np.abs(u) - np.abs(v))), rel=1e-9)


def _memory_member():
    """A K = 255 member on a 20x512 grid, and the bytes of one complex value row on it."""
    op = OperatorParams(0.8, 0.2, 1, 1)
    f = from_herglotz(op, 0.3, MeasureAtoms(((1j, 0.5), (-1.0 + 0j, 0.5))), 255)
    grid = SampleGrid(tuple(float(r) for r in np.linspace(0.1, 0.9, 20)), 512)
    return op, f, grid, 16 * grid.points(radius_cap=RADIUS_CAP).size


def _second_call_peak(check) -> int:
    """tracemalloc's peak of a second call of ``check`` (the first builds the grid's tables)."""
    check()
    tracemalloc.start()
    try:
        check()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convolution_memory_stays_within_the_values():
    """The margins are formed in the buffers of the FFT values of zF' and F, so the
    convolution check peaks below 2.875 times those two value rows (942080 bytes on a
    20x512 grid; it measured 914882): no more than the 973498 bytes of the subordination
    check of the same member with its margin formed by complex exp."""
    op, f, grid, row = _memory_member()
    peak = _second_call_peak(lambda: convolution_nonvanishing(op, ClassParams(0.3, 1.0), f, grid))
    assert peak <= 2.875 * (2 * row) <= 973498, (peak, row)


def test_subordination_memory_stays_within_four_value_rows():
    """The containment margin holds v = z^p F and three real arrays besides the FFT
    values of F, so the subordination check peaks below 4 value rows (655360 bytes on
    a 20x512 grid; it measured 616533, and 973498 with the complex exp form)."""
    op, f, grid, row = _memory_member()
    peak = _second_call_peak(lambda: subordination_power_target(op, 0.3, f, grid))
    assert peak <= 4 * row, (peak, row)


# ----------------------------------------------------------------- partial sums

def test_partial_sum_branches():
    f = L(1, 2, [0.5, 0.25, 0.125], exact=False)
    low = partial_sum(f, -1)
    assert np.all(low.coeffs == 0) and low.exact_support
    assert partial_sum(f, 3) is f
    mid = partial_sum(f, 1)
    assert mid.coeff(0) == 0.5 and mid.coeff(1) == 0.0 and mid.coeff(2) == 0.0
    assert mid.exact_support


def test_ratio_weights_frozen():
    th = ratio_weights(OP1, HALF, np.array([0, 1, 2]))
    assert np.allclose(th, [2.0, 9.0, 20.0])


def test_partial_sum_bounds_on_sharp_function():
    f = ratio_extremal(OP1, HALF, 1, trunc_order=4)
    grid = SampleGrid(radii=(0.3, 0.7, 0.999), angles_count=720)
    rep = partial_sum_bounds(OP1, HALF, f, 1, grid)
    assert rep.verdict == "holds"
    # near z -> 1 the first ratio approaches its bound 8/9 from above
    assert 0 < rep.worst_margin < 1e-2
    assert "theta=9" in rep.detail


def test_partial_sum_bounds_hypothesis_gate():
    f = LaurentSeries.pole_only(1, 2).with_coeff(1, 0.2)  # weighted sum 1.8 > 1
    rep = partial_sum_bounds(OP1, HALF, f, 1)
    assert rep.verdict == "inconclusive"
    assert "hypothesis" in rep.detail
    g = L(1, 2, [0.0, 0.05, 0.0], exact=False)
    rep = partial_sum_bounds(OP1, HALF, g, 1)
    assert rep.verdict == "inconclusive"
    assert "tail" in rep.detail


def test_partial_sum_bounds_monotone_premise_gate():
    # p=1, alpha=0, beta=1 gives ratio weight exactly 1 at k=1: derivation void
    cp = ClassParams(0.0, 1.0)
    rep = partial_sum_bounds(M0, cp, LaurentSeries.pole_only(1, 3), 1)
    assert rep.verdict == "inconclusive"
    assert "monotone" in rep.detail


def _window_premise(op, cp, hi):
    """The monotone-weight premise as partial_sum_bounds once checked it, kept as a
    reference: the ratio weights must be > 1 + SUM_TOL and strictly increasing on
    [1-p, max(hi, k_pos) + 2], past the index k_pos where the bracket turns
    positive.  None where the premise holds, else the reason."""
    p = op.p
    k_pos = int(np.ceil((-p * (1.0 + cp.beta * (2.0 * cp.alpha - 1.0))) / (cp.beta + 1.0))) + 1
    ks = np.arange(1 - p, max(hi, k_pos) + 3)
    th = ratio_weights(op, cp, ks)
    low = th <= 1.0 + SUM_TOL
    if np.any(low):
        k_bad = int(ks[int(np.argmax(low))])
        return f"weight at k={k_bad} is {th[ks == k_bad][0]:.6g} <= 1"
    if np.any(np.diff(th) <= 0.0):
        return f"weights not increasing at k={int(ks[int(np.argmax(np.diff(th) <= 0.0))])}"
    return None


@pytest.mark.parametrize("seed", range(3))
def test_first_weight_decides_the_monotone_premise_as_the_window(seed):
    """partial_sum_bounds decides the monotone-weight premise by its weight at
    k = 1 - p alone.  Over a seeded sweep (lam 1e-12..100, m <= 300, p <= 7,
    K <= 4095) it agrees with the window it replaced in verdict and message.
    Sets where the window overflows are skipped: it also evaluated phi at K + 1
    and K + 2, where the stored series does not reach."""
    rng = np.random.default_rng([seed, 20261019])
    grid = SampleGrid((0.5,), 1)
    compared = fired = 0
    for _ in range(200):
        p = int(rng.integers(1, 8))
        lam = float(10.0 ** rng.uniform(-12.0, 2.0))
        mu = lam * float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else 0.0
        m = int(rng.integers(0, 301)) if rng.random() < 0.3 else int(rng.integers(0, 4))
        op = OperatorParams(lam, mu, m, p)
        cp = ClassParams(float(rng.uniform(0.0, 1.0)), float(10.0 ** rng.uniform(-3.0, 0.0)))
        K = int(rng.integers(1 - p, 64 if rng.random() < 0.8 else 4096))
        try:
            want = _window_premise(op, cp, K)
        except OverflowError:
            continue
        rep = partial_sum_bounds(op, cp, LaurentSeries.pole_only(p, K), 1 - p, grid)
        if want is None:
            assert "monotone" not in rep.detail
        else:
            assert rep.verdict == "inconclusive"
            assert rep.detail == f"monotone-weight premise fails: {want}; the bounds' derivation does not apply"
            fired += 1
        compared += 1
    assert compared >= 100 and 20 <= fired < compared


@given(
    p=st.integers(1, 2),
    op_index=st.integers(0, 2),
    alpha=st.floats(0.0, 0.9),
    beta=st.floats(0.1, 1.0),
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=6,
    ),
    mass=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    m_cut_shift=st.integers(0, 7),
    r=st.floats(0.001, 0.999),
)
@settings(max_examples=150, deadline=None)
def test_partial_sum_premises_keep_values_off_zero(
    p, op_index, alpha, beta, coeffs, mass, m_cut_shift, r
):
    """Weights > 1 + SUM_TOL and sum theta_k |a_k| <= 1 + SUM_TOL give
    sum |a_k| <= 1 + 1e-12, so |z^p f| and |z^p k_m| stay at least
    1 - 0.999 (1 + 1e-12), about 1e-3, on every radius <= 0.999: eleven
    orders of magnitude above the vanishing floor 1e-14 |z|^-p."""
    op = (OperatorParams(1.0, 0.0, 1, p), OperatorParams(1.0, 0.5, 1, p),
          OperatorParams(2.0, 0.0, 2, p))[op_index]
    cp = ClassParams(alpha, beta)
    K = len(coeffs) - p
    a = np.asarray(coeffs, dtype=complex)
    th = ratio_weights(op, cp, np.arange(1 - p, K + 1))
    hyp = float(np.dot(th, np.abs(a)))
    f = L(p, K, a * (mass / hyp) if hyp > 1e-3 else a)  # a small sum already holds
    m_cut = 1 - p + m_cut_shift
    grid = SampleGrid((r, 0.999) if r < 0.999 else (0.999,), 16)
    rep = partial_sum_bounds(op, cp, f, m_cut, grid)
    assume(rep.verdict != "inconclusive")  # both premises hold
    zs = grid.points()
    floor = 1.0 - merokit.bounds.RATIO_RADIUS_CAP * (1.0 + 1e-12)
    for g in (f, partial_sum(f, m_cut)):
        for values in (eval_circles(g, grid), eval_many(g, zs)):
            assert np.all(np.abs(zs ** p * values) >= floor - 1e-13)


def test_partial_sum_bounds_memory_does_not_grow_with_the_cut():
    """The premises read the stored weights, not a window up to m_cut, so a cut
    far beyond the stored terms allocates nothing per index."""
    f = L(1, 1, [0.0, 0.05])
    tracemalloc.start()
    try:
        rep = partial_sum_bounds(OP1, HALF, f, 2**40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "holds" and peak < 2**20


def test_partial_sum_bounds_validation():
    with pytest.raises(ValueError, match="m_cut"):
        partial_sum_bounds(OP1, HALF, LaurentSeries.pole_only(1, 2), -1)
    with pytest.raises(ValueError, match="lead"):
        partial_sum_bounds(OP1, HALF, L(1, 0, [0.0], lead=2.0), 1)


# ------------------------------------------------------- verdict thresholds
#
# Each checker compares its worst margin against its own threshold: strict
# ``>`` for the membership, disk, containment and convolution checks,
# ``>=`` for coefficient bounds, distortion and partial sums.  Each case
# runs the checker once with its default threshold, then again with the
# threshold moved exactly onto the worst margin and one ulp past it.

TH_CP = ClassParams(0.2, 0.6)
TH_RADII = (0.3, 0.6, 0.9)


def _th_member():
    return from_schwarz(OP1, TH_CP, SchwarzPoly((0.4, 0.1j)), 12)


def _th_grid(margin):
    return SampleGrid(TH_RADII, 32) if margin is None else SampleGrid(TH_RADII, 32, margin)


def _th_numeric(at, monkeypatch):
    return numeric_membership(OP1, TH_CP, _th_member(), _th_grid(at))


def _th_disk(at, monkeypatch):
    return disk_characterization(OP1, TH_CP, _th_member(), _th_grid(at))


def _th_subordination(at, monkeypatch):
    return subordination_power_target(OP1, TH_CP.alpha, _th_member(), _th_grid(at))


def _th_convolution(at, monkeypatch):
    return convolution_nonvanishing(OP1, TH_CP, _th_member(), _th_grid(None), 24, at)


def _th_sum_tol(at, monkeypatch):
    # coefficient bounds and distortion hold when worst >= -SUM_TOL
    if at is not None:
        monkeypatch.setattr(merokit.bounds, "SUM_TOL", -at)


def _th_coeff(at, monkeypatch):
    _th_sum_tol(at, monkeypatch)
    f = LaurentSeries.pole_only(1, 4).with_coeff(2, 0.5)
    return coeff_bounds_report(OP1, HALF, f, kind="general")


def _th_distortion(at, monkeypatch):
    _th_sum_tol(at, monkeypatch)
    f = LaurentSeries.pole_only(1, 3).with_coeff(0, 2.0)
    return distortion_report(OP1, HALF, f, 0.5, "f_plus", TailPolicy("exact_support"), 64)


def _th_partial(at, monkeypatch):
    grid = _th_grid(None)
    if at is not None:
        # holds when worst >= -margin; premise-satisfying inputs always have
        # worst > 0, so the threshold is reached only by a negative margin,
        # which the grid's own validation refuses
        object.__setattr__(grid, "margin", -at)
    return partial_sum_bounds(OP1, HALF, L(1, 1, [0.0, -0.05]), 1, grid)


THRESHOLD_CASES = {
    "numeric": (_th_numeric, True),
    "disk": (_th_disk, True),
    "subordination": (_th_subordination, True),
    "convolution": (_th_convolution, True),
    "coeff-general": (_th_coeff, False),
    "distortion": (_th_distortion, False),
    "partial-sums": (_th_partial, False),
}


@pytest.mark.parametrize("case", list(THRESHOLD_CASES))
def test_worst_margin_exactly_on_threshold(case, monkeypatch):
    check, strict = THRESHOLD_CASES[case]
    worst = check(None, monkeypatch).worst_margin
    assert np.isfinite(worst)
    on = check(worst, monkeypatch)
    assert on.worst_margin == worst
    assert on.verdict == ("fails" if strict else "holds")
    past = np.nextafter(worst, -np.inf if strict else np.inf)
    assert check(past, monkeypatch).verdict == ("holds" if strict else "fails")


# ------------------------------------------------------------- grid checkers
#
# Every sampled checker evaluates its series together, as stacked rows
# (``series.SeriesRows``): one FFT call (``series.eval_circles``) locates its
# worst point, and one Horner pass (``series.eval_many``) gives every series'
# value there, from which the report's margin (and the convolution's phase) is
# taken.

GRID_CHECKERS = {
    "numeric": lambda grid: numeric_membership(OP1, TH_CP, _th_member(), grid),
    "disk": lambda grid: disk_characterization(OP1, TH_CP, _th_member(), grid),
    "subordination": lambda grid: subordination_power_target(OP1, TH_CP.alpha, _th_member(), grid),
    "partial-sums": lambda grid: partial_sum_bounds(OP1, HALF, L(1, 1, [0.0, -0.05]), 1, grid),
    "convolution": lambda grid: convolution_nonvanishing(OP1, TH_CP, _th_member(), grid, 24),
    "distortion": lambda grid: distortion_report(
        OP1, HALF, LaurentSeries.pole_only(1, 3).with_coeff(0, 2.0), grid.radii[0], "f_plus",
        TailPolicy("exact_support"), grid.angles_count,
    ),
}


#: the series each checker evaluates: (F, zF'), (f, k_m), (zF', F) or one
SERIES_ROWS = {"numeric": 2, "disk": 2, "subordination": 1, "partial-sums": 2, "convolution": 2, "distortion": 1}

RECHECK_GRIDS = (SampleGrid((0.5,), 8), _th_grid(None), SampleGrid((0.2, 0.9), 7))


@pytest.mark.parametrize("case", list(GRID_CHECKERS))
def test_grid_checker_rechecks_by_horner(case, monkeypatch):
    calls = []
    for fn in ("eval_circles", "eval_many"):
        orig = getattr(merokit.series, fn)

        def counted(*args, fn=fn, orig=orig):
            calls.append((fn, args))
            return orig(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("merokit") and getattr(module, fn, None) is orig:
                monkeypatch.setattr(module, fn, counted)
    rows = SERIES_ROWS[case]
    for grid in RECHECK_GRIDS:
        del calls[:]
        rep = GRID_CHECKERS[case](grid)
        assert rep.verdict != "inconclusive" and rep.witness is not None
        assert [fn for fn, _ in calls] == ["eval_circles", "eval_many"]
        (on_grid, _, _), (at_rows, zs) = (args for _, args in calls)
        assert len(on_grid.lead) == len(on_grid.coeffs) == len(at_rows.lead) == len(at_rows.coeffs) == rows
        assert zs.tolist() == [rep.witness] * rows  # one witness point per series row


@pytest.mark.parametrize("theta_count", [1, 24, 360])
def test_convolution_phase_is_horner_phase_at_witness(theta_count):
    """The detail's theta* is the phase of least |u - beta sigma v| at the
    witness, from a fresh Horner pass there, to within a 65536-phase scan's
    gap, and it does not depend on theta_count."""
    f = _th_member()
    F = apply_coeff(OP1, f)
    sigmas = _phases(65536)
    for grid in RECHECK_GRIDS:
        rep = convolution_nonvanishing(OP1, TH_CP, f, grid, theta_count)
        assert rep == convolution_nonvanishing(OP1, TH_CP, f, grid)
        at = np.array([rep.witness])
        u, v = _conv_uv(OP1, TH_CP, at, (eval_many(z_derivative(F), at), eval_many(F, at)))
        s = _one_matrix_min(u, v, TH_CP.beta, sigmas)[1] + 1
        theta = _theta_of(rep.detail)
        assert rep.detail.startswith(f"min |value| = {rep.worst_margin:.6g} at theta={theta:.6g}; ")
        assert abs(theta - 2.0 * np.pi * s / 65537) <= 1e-4


@pytest.mark.parametrize("case", list(GRID_CHECKERS))
def test_grid_checker_on_empty_capped_grid(case):
    """Radii beyond the cap leave no points: the membership cap 0.95, or the
    ratio cap 0.999 for partial sums.  Distortion samples its own circle
    |z| = r uncapped, so r = 0.96 still has points."""
    rep = GRID_CHECKERS[case](SampleGrid((0.9995,) if case == "partial-sums" else (0.96, 0.99), 8))
    if case == "distortion":
        assert rep.verdict != "inconclusive" and rep.witness is not None
        return
    assert rep.verdict == "inconclusive" and rep.witness is None
    assert np.isnan(rep.worst_margin) and rep.detail.startswith("no usable grid points; ")


def test_margin_arrays_on_empty_capped_grid():
    grid = SampleGrid((0.96, 0.99), 8)
    for margins in (numeric_margins, disk_margins):
        zs, m = margins(OP1, TH_CP, _th_member(), grid)
        assert zs.size == m.size == 0


@given(
    p=st.integers(1, 2),
    m=st.integers(0, 2),
    alpha=st.floats(0.0, 0.9),
    beta=st.floats(0.1, 0.99),
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=4, max_size=6,
    ),
    zero_at=st.one_of(st.none(), st.integers(0, 15)),
)
@settings(max_examples=60, deadline=None)
def test_every_failure_has_finite_margin_and_witness(p, m, alpha, beta, coeffs, zero_at):
    """Every checker's ``fails`` carries a finite margin and a witness, also
    where F is exactly 0 at a grid point (identity operator, f = z^-p (1 - z/z0))."""
    grid = SampleGrid((0.3, 0.5), 8)
    op = OperatorParams(1.0 if m else 0.0, 0.0, m, p)
    cp = ClassParams(alpha, beta)
    a = np.asarray(coeffs, dtype=complex)
    if zero_at is not None:
        op = OperatorParams(0.0, 0.0, 0, p)
        a[:] = 0.0
        a[0] = -1.0 / grid.points()[zero_at]
    f = L(p, len(a) - p, a)
    reports = [
        numeric_membership(op, cp, f, grid),
        disk_characterization(op, cp, f, grid),
        subordination_power_target(op, alpha, f, grid),
        convolution_nonvanishing(op, cp, f, grid, 12),
        partial_sum_bounds(op, cp, f, 1 - p, grid),
        coeff_bounds_report(op, cp, f, "general"),
        distortion_report(
            op, cp, f, 0.5, "f_general", TailPolicy("tail_estimate" if op.m else "divergent_flag"), 16
        ),
        verify_inclusion_general(op, cp, f, 0.05, eps_trials=2, trials=2, grid=grid),
    ]
    if zero_at is not None:
        assert reports[0].verdict == reports[1].verdict == "fails"
    for rep in reports:
        if rep.verdict == "fails":
            assert math.isfinite(rep.worst_margin) and rep.witness is not None
