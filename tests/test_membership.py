"""Membership criteria: weights, coefficient tests, numeric and disk routes,
power-target containment."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merokit.membership import (
    ClassParams,
    Report,
    budget,
    criterion_weight,
    disk_characterization,
    disk_margins,
    disk_parameters,
    exact_membership_plus,
    numeric_margins,
    numeric_membership,
    subordination_power_target,
    sufficient_condition,
)
from merokit.operator import OperatorParams, apply_coeff
from merokit.series import LaurentSeries, SampleGrid, eval_many, z_derivative

M0 = OperatorParams(0.0, 0.0, 0, 1)  # identity operator, p = 1


def L(p, K, coeffs, lead=1.0, exact=True):
    return LaurentSeries(p, K, np.asarray(coeffs, dtype=complex), lead, exact)


# ----------------------------------------------------------------- parameters

def test_class_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        ClassParams(1.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        ClassParams(-0.1, 1.0)
    with pytest.raises(ValueError, match="beta"):
        ClassParams(0.5, 0.0)
    with pytest.raises(ValueError, match="beta"):
        ClassParams(0.5, 1.2)


def test_report_requires_witness_on_failure():
    with pytest.raises(ValueError, match="witness"):
        Report("fails", -1.0, None)
    with pytest.raises(ValueError, match="verdict"):
        Report("maybe", 0.0)
    obj = Report("fails", -1.0, 0.5 + 0.25j).to_json_dict()
    assert obj["witness"] == [0.5, 0.25]


def test_weight_frozen_values():
    cp = ClassParams(0.0, 1.0)
    assert criterion_weight(M0, cp, 0) == 0.0  # degenerate index
    assert criterion_weight(M0, cp, 2) == 4.0
    assert criterion_weight(M0, ClassParams(0.5, 1.0), 1) == 3.0
    op = OperatorParams(1.0, 0.0, 1, 1)
    assert criterion_weight(op, ClassParams(0.5, 1.0), 1) == 9.0  # bracket 3, phi 3


def test_budget_frozen_values():
    assert budget(M0, ClassParams(0.5, 1.0)) == 1.0
    assert budget(M0, ClassParams(0.0, 1.0)) == 2.0
    assert budget(OperatorParams(1, 0, 1, 2), ClassParams(0.25, 0.5)) == 1.5


# ----------------------------------------------------------- exact criterion

def test_exact_pole_only_margin_is_budget():
    cp = ClassParams(0.3, 0.8)
    rep = exact_membership_plus(M0, cp, LaurentSeries.pole_only(1, 4))
    assert rep.verdict == "holds"
    assert rep.worst_margin == pytest.approx(budget(M0, cp))


def test_exact_extremal_equality_and_failure():
    cp = ClassParams(0.5, 1.0)
    w = criterion_weight(M0, cp, 1)
    f = LaurentSeries.pole_only(1, 1).with_coeff(1, budget(M0, cp) / w)
    rep = exact_membership_plus(M0, cp, f)
    assert rep.verdict == "holds" and abs(rep.worst_margin) <= 1e-12
    g = f.with_coeff(1, f.coeff(1).real * (1 + 1e-6))
    rep = exact_membership_plus(M0, cp, g)
    assert rep.verdict == "fails" and rep.witness == 1
    assert rep.worst_margin < 0


def test_exact_rejects_bad_coefficients():
    cp = ClassParams(0.5, 1.0)
    with pytest.raises(ValueError, match=r"k=\[1\]"):
        exact_membership_plus(M0, cp, L(1, 1, [0.0, -0.5]))
    with pytest.raises(ValueError, match="coeffs"):
        exact_membership_plus(M0, cp, L(1, 1, [0.0, 0.5j]))
    with pytest.raises(ValueError, match="lead"):
        exact_membership_plus(M0, cp, L(1, 0, [0.0], lead=2.0))


def test_exact_without_exact_support_is_inconclusive():
    cp = ClassParams(0.5, 1.0)
    f = L(1, 1, [0.0, 0.1], exact=False)
    rep = exact_membership_plus(M0, cp, f)
    assert rep.verdict == "inconclusive"
    assert "tail" in rep.detail


def test_exact_notes_degenerate_weight():
    # at alpha = 0, beta = 1, p = 1 the weight at k = 0 vanishes
    cp = ClassParams(0.0, 1.0)
    f = L(1, 0, [5.0])  # huge a_0, yet unconstrained by the sum
    rep = exact_membership_plus(M0, cp, f)
    assert rep.verdict == "holds"
    assert "degenerate" in rep.detail


def test_exact_notes_sub_modulus_weight():
    # k + p(2 alpha - 1) < 0 at k = 0: sum criterion weaker than pointwise
    cp = ClassParams(0.0, 0.5)
    f = L(1, 0, [1.0])
    rep = exact_membership_plus(M0, cp, f)
    assert "sub-modulus" in rep.detail


# ------------------------------------------------------- sufficient criterion

def test_sufficient_never_fails():
    cp = ClassParams(0.5, 1.0)
    f = L(1, 1, [0.0, 10.0])  # way over the sum bound
    rep = sufficient_condition(M0, cp, f)
    assert rep.verdict == "inconclusive"


def test_sufficient_uses_modulus():
    cp = ClassParams(0.5, 1.0)
    w = criterion_weight(M0, cp, 1)
    a = budget(M0, cp) / w
    rep = sufficient_condition(M0, cp, L(1, 1, [0.0, a * 1j]))
    assert rep.verdict == "holds"
    assert abs(rep.worst_margin) <= 1e-12


# -------------------------------------------------------------- numeric route

def analytic_margin(zs):
    """For f = z^-1 - 1 at alpha = 1/2, beta = 1: Q = -1/(1-z) and the
    margin reduces to (1 - |z|)/|1 - z|."""
    return (1.0 - np.abs(zs)) / np.abs(1.0 - zs)


def test_numeric_matches_closed_form():
    cp = ClassParams(0.5, 1.0)
    f = L(1, 0, [-1.0])
    grid = SampleGrid(radii=(0.3, 0.6, 0.9), angles_count=16)
    zs, margins, bad = numeric_margins(M0, cp, f, grid)
    assert not np.any(bad)
    assert np.allclose(margins, analytic_margin(zs), atol=1e-12)
    rep = numeric_membership(M0, cp, f, grid)
    assert rep.verdict == "holds"
    assert rep.worst_margin == pytest.approx((1 - 0.9) / 1.9, abs=1e-9)


def test_numeric_fails_on_non_member():
    cp = ClassParams(0.5, 1.0)
    rep = numeric_membership(M0, cp, L(1, 1, [0.0, 3.0]))
    assert rep.verdict == "fails"
    assert rep.witness is not None and rep.worst_margin < 0


def test_numeric_detects_vanishing_denominator():
    # F = z^-1 - 2 vanishes at z = 0.5, a default grid point
    cp = ClassParams(0.5, 1.0)
    rep = numeric_membership(M0, cp, L(1, 0, [-2.0]))
    assert rep.verdict == "fails"
    assert rep.worst_margin == float("-inf")
    assert "denominator" in rep.detail


def test_numeric_with_no_usable_radii():
    cp = ClassParams(0.5, 1.0)
    grid = SampleGrid(radii=(0.99,), angles_count=8)
    rep = numeric_membership(M0, cp, LaurentSeries.pole_only(1, 0), grid)
    assert rep.verdict == "inconclusive"


def test_grid_digest_quoted_in_detail():
    cp = ClassParams(0.5, 1.0)
    grid = SampleGrid(radii=(0.3,), angles_count=8)
    rep = numeric_membership(M0, cp, LaurentSeries.pole_only(1, 0), grid)
    assert grid.digest() in rep.detail


# ----------------------------------------------------------------- disk route

def test_disk_parameters_frozen():
    center, radius = disk_parameters(ClassParams(0.0, 0.5))
    assert center == pytest.approx(5 / 3)
    assert radius == pytest.approx(4 / 3)
    with pytest.raises(ValueError, match="beta"):
        disk_parameters(ClassParams(0.0, 1.0))


def test_disk_route_requires_beta_below_one():
    with pytest.raises(ValueError, match="beta"):
        disk_characterization(M0, ClassParams(0.5, 1.0), LaurentSeries.pole_only(1, 0))


small_tail = st.lists(
    st.complex_numbers(max_magnitude=0.25, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


@given(tail=small_tail, alpha=st.floats(0.0, 0.9), beta=st.floats(0.2, 0.95))
@settings(max_examples=40, deadline=None)
def test_disk_and_numeric_margins_agree_in_sign(tail, alpha, beta):
    """The disk form is the same inequality rearranged, so the two margin
    fields must agree in sign wherever either is decisively nonzero."""
    cp = ClassParams(alpha, beta)
    f = L(1, len(tail) - 1, [0.0] + tail[:-1] if len(tail) > 1 else tail, exact=False)
    grid = SampleGrid(radii=(0.4, 0.8), angles_count=24)
    zs, mn, bad_n = numeric_margins(M0, cp, f, grid)
    _, md, bad_d = disk_margins(M0, cp, f, grid)
    assert np.array_equal(bad_n, bad_d)
    ok = ~bad_n & (np.abs(md) > 1e-9) & (np.abs(mn) > 1e-9)
    assert np.all((mn[ok] > 0) == (md[ok] > 0))


def test_disk_verdict_matches_numeric_on_member_and_non_member():
    cp = ClassParams(0.0, 0.5)
    member = LaurentSeries.pole_only(1, 2)
    bad = L(1, 1, [0.0, 2.0])
    for f in (member, bad):
        a = numeric_membership(M0, cp, f)
        b = disk_characterization(M0, cp, f)
        assert a.verdict == b.verdict


# --------------------------------------------------- membership implications

def test_member_satisfies_range_reduction():
    """For beta = 1 members, -Q has real part > alpha everywhere."""
    op = OperatorParams(1.0, 0.0, 1, 1)
    cp = ClassParams(0.5, 1.0)
    f = LaurentSeries.pole_only(1, 3).with_coeff(1, budget(op, cp) / 9)
    F = apply_coeff(op, f)
    grid = SampleGrid(radii=(0.3, 0.7, 0.9), angles_count=90)
    zs = grid.points()
    q = eval_many(z_derivative(F), zs) / (op.p * eval_many(F, zs))
    assert np.min((-q).real) > cp.alpha - 1e-12


@given(
    a0=st.floats(0.0, 1.0),
    a1=st.floats(0.0, 1.0),
    alpha=st.floats(0.5, 0.9),
)
@settings(max_examples=40, deadline=None)
def test_exact_implies_sufficient_implies_numeric(a0, a1, alpha):
    """On the nonnegative subclass with support clear of sub-modulus
    indices, the chain exact -> sufficient -> numeric must not break."""
    cp = ClassParams(alpha, 1.0)
    w0 = criterion_weight(M0, cp, 0)
    w1 = criterion_weight(M0, cp, 1)
    b = budget(M0, cp)
    # scale the pair onto the criterion simplex (strict interior); leave
    # near-zero pairs alone, their sum is already far inside the budget
    total = w0 * a0 + w1 * a1
    if total > 1e-9:
        s = 0.9 * b / total
        a0, a1 = a0 * s, a1 * s
    f = L(1, 1, [a0, a1])
    assert exact_membership_plus(M0, cp, f).verdict == "holds"
    assert sufficient_condition(M0, cp, f).verdict == "holds"
    rep = numeric_membership(M0, cp, f, SampleGrid(radii=(0.5, 0.9), angles_count=60))
    assert rep.verdict == "holds"


# --------------------------------------------------- power-target containment

def test_subordination_holds_for_member():
    cp = ClassParams(0.5, 1.0)
    f = L(1, 0, [-1.0])  # z^-1 - 1; target v = 1 - z, c = 1, w = z
    grid = SampleGrid(radii=(0.3, 0.9), angles_count=32)
    rep = subordination_power_target(M0, cp.alpha, f, grid)
    assert rep.verdict == "holds"
    assert rep.worst_margin == pytest.approx(0.1, abs=1e-9)


def test_subordination_fails_for_non_member():
    rep = subordination_power_target(M0, 0.5, L(1, 1, [0.0, 3.0]))
    assert rep.verdict == "fails"


def test_subordination_requires_normalized_lead():
    with pytest.raises(ValueError, match="lead"):
        subordination_power_target(M0, 0.5, L(1, 0, [0.0], lead=2.0))
    with pytest.raises(ValueError, match="alpha"):
        subordination_power_target(M0, 1.0, LaurentSeries.pole_only(1, 0))


def test_subordination_names_vanishing_point_without_warning():
    # f = 1/z - 2 under the identity operator: z F = 1 - 2z vanishes at z = 0.5
    grid = SampleGrid(radii=(0.5,), angles_count=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = subordination_power_target(M0, 0.5, L(1, 0, [-2.0]), grid)
    assert rep.verdict == "fails"
    assert rep.worst_margin == 0.0 and rep.witness == 0.5
    assert rep.detail.startswith("z^p F vanishes near z=(0.5+0j); grid=")
