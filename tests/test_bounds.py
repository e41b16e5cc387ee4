"""Coefficient bounds, distortion intervals, convolution non-vanishing and
partial-sum ratio bounds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import merokit.bounds
from merokit.bounds import (
    TailPolicy,
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
from merokit.generators import SchwarzPoly, extremal_fn, from_schwarz, ratio_extremal
from merokit.membership import (
    ClassParams,
    disk_characterization,
    numeric_membership,
    subordination_power_target,
)
from merokit.operator import OperatorParams
from merokit.series import LaurentSeries, SampleGrid, eval_at, hadamard, z_derivative

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
    """With a_1 = 4/9 the scanned combination is sigma + 3 a z^2 (2 - sigma)
    after the operator triples a_1, and it vanishes exactly at z = 0.5,
    sigma = -1.  Both lie on the scan grid (45 thetas puts pi on it), so
    the minimum modulus collapses to rounding error and the check fails."""
    f = L(1, 1, [0.0, 4.0 / 9.0])
    rep = convolution_nonvanishing(OP1, HALF, f, theta_count=45)
    assert rep.verdict == "fails"
    assert rep.worst_margin < 1e-12
    assert abs(rep.witness - 0.5) < 1e-12


def test_convolution_theta_grid_is_interior():
    # theta_count = 1 must still avoid theta = 0 (the open-interval contract)
    rep = convolution_nonvanishing(OP1, HALF, LaurentSeries.pole_only(1, 2), theta_count=1)
    assert "theta=3.14159" in rep.detail


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
