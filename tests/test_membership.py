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
    vanishes,
)
from merokit.operator import OperatorParams, apply_coeff
from merokit.series import (
    LaurentSeries,
    SampleGrid,
    default_grid,
    eval_circles,
    eval_many,
    z_derivative,
)

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
    # strict JSON has no NaN: the margin of a report with nothing to measure is null
    assert Report("inconclusive", float("nan")).to_json_dict()["worst_margin"] is None


def test_report_refuses_failure_without_margin():
    with pytest.raises(ValueError, match="worst_margin"):
        Report("fails", float("nan"), 0.5)
    with pytest.raises(ValueError, match="worst_margin"):
        Report("fails", np.float64("nan"), 0.5)
    for margin in (float("-inf"), float("inf"), np.float64("-inf")):
        with pytest.raises(ValueError, match="finite"):
            Report("fails", margin, 0.5)


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
    zs, margins = numeric_margins(M0, cp, f, grid)
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
    # F = z^-1 - 2 vanishes at z = 0.5, a default grid point.  There the
    # margin is beta - 1 = 0; the worst one, (1 - 2|z|)/|1 - 2z| = -1, is
    # at z = 0.7, and the detail still names the vanishing point
    cp = ClassParams(0.5, 1.0)
    rep = numeric_membership(M0, cp, L(1, 0, [-2.0]))
    assert rep.verdict == "fails"
    assert rep.worst_margin == -1.0
    assert rep.witness == 0.7 + 0j
    assert rep.detail == f"denominator vanishes near z=(0.5+0j); grid={default_grid().digest()}"


def test_vanishing_denominator_margin_is_the_limit_of_the_form():
    # F = z^-1 - 2 is exactly 0 at z = 0.5: the margin there is the form's
    # limit over |Q| as Q -> inf, beta - 1 (numeric) or -1 (disk), on the
    # FFT route (the margin arrays) and on the Horner route (the report)
    cp = ClassParams(0.0, 0.5)
    f = L(1, 0, [-2.0])
    grid = SampleGrid(radii=(0.5,), angles_count=8)
    for margins, check, stand_in in (
        (numeric_margins, numeric_membership, cp.beta - 1.0),
        (disk_margins, disk_characterization, -1.0),
    ):
        zs, m = margins(M0, cp, f, grid)
        assert zs[0] == 0.5 and m[0] == stand_in
        assert np.all(np.isfinite(m))
        rep = check(M0, cp, f, grid)
        assert rep.verdict == "fails"
        assert rep.worst_margin == stand_in and rep.witness == 0.5 + 0j
        assert rep.detail == f"denominator vanishes near z=(0.5+0j); grid={grid.digest()}"


def test_vanishing_mask_is_computed_once_per_set_of_values(monkeypatch):
    """One mask serves the margins and the detail: one ``vanishes`` call on the
    FFT values and one on Horner's value at the witness, and none where the
    detail names no vanishing point."""
    from merokit import bounds, membership

    calls = []
    real = membership.vanishes

    def counted(values, *args):
        calls.append(np.shape(values))
        return real(values, *args)

    monkeypatch.setattr(membership, "vanishes", counted)
    cp = ClassParams(0.0, 0.5)
    f = L(1, 0, [-2.0])
    grid = SampleGrid(radii=(0.5,), angles_count=8)
    for check in (numeric_membership, disk_characterization):
        calls.clear()
        assert check(M0, cp, f, grid).detail.startswith("denominator vanishes near z=(0.5+0j)")
        assert calls == [(1, 8), (1, 1)]
    calls.clear()
    assert subordination_power_target(M0, 0.5, f, grid).detail.startswith("z^p F vanishes near z=(0.5+0j)")
    assert calls == [(1, 8), (1, 1)]
    calls.clear()
    bounds.convolution_nonvanishing(M0, cp, f, grid)
    assert calls == []


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
    zs, mn = numeric_margins(M0, cp, f, grid)
    _, md = disk_margins(M0, cp, f, grid)
    ok = (np.abs(md) > 1e-9) & (np.abs(mn) > 1e-9)
    assert np.all((mn[ok] > 0) == (md[ok] > 0))


def test_disk_verdict_matches_numeric_on_member_and_non_member():
    cp = ClassParams(0.0, 0.5)
    member = LaurentSeries.pole_only(1, 2)
    bad = L(1, 1, [0.0, 2.0])
    for f in (member, bad):
        a = numeric_membership(M0, cp, f)
        b = disk_characterization(M0, cp, f)
        assert a.verdict == b.verdict


def test_reported_margin_is_horners_at_the_witness():
    """The FFT values locate the worst point; the reported margin is the one
    Horner gives there, bit for bit, and no Horner margin on the grid is
    smaller by more than the two evaluators' rounding."""
    rng = np.random.default_rng(5)
    op = OperatorParams(0.7, 0.3, 1, 2)
    cp = ClassParams(0.2, 0.6)
    coeffs = (rng.normal(size=201) + 1j * rng.normal(size=201)) * 0.3 / np.arange(1, 202) ** 2
    f = L(2, 199, coeffs)
    grid = SampleGrid(radii=(0.3, 0.6, 0.9), angles_count=64)
    zs = grid.points()
    F = apply_coeff(op, f)
    q = eval_many(z_derivative(F), zs) / (op.p * eval_many(F, zs))
    horner = cp.beta * np.abs(q + (2.0 * cp.alpha - 1.0)) - np.abs(q + 1.0)
    rep = numeric_membership(op, cp, f, grid)
    i = int(np.flatnonzero(zs == rep.witness)[0])
    assert rep.worst_margin == horner[i]
    assert rep.worst_margin - horner.min() <= 1e-12 * max(1.0, abs(horner.min()))


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


def test_subordination_branch_cut_collision():
    # c = 2(1 - 0.9) = 0.2 and v = 1 + 0.5 z^2: at |z| = 0.9, |arg v| reaches
    # about 0.42 > (pi/2) c, so no branch of v^{1/c} stays admissible there.
    # Those points fail with margin cos(min(|theta|, pi)) >= -1; the worst
    # point is z = 0.9, where v = 1.405 > 1 and 1 - |w| = 2 - 1.405^5
    rep = subordination_power_target(M0, 0.9, L(1, 1, [0.0, 0.5]))
    assert rep.verdict == "fails"
    assert rep.worst_margin == -3.4749684543781276 and rep.witness == 0.9
    assert rep.worst_margin == pytest.approx(2.0 - 1.405 ** 5, abs=1e-12)
    assert rep.detail == "grid=291f11565520"


def _all_branches(v, c):
    """Reference inversion: the best |w| over every admissible branch of
    w = 1 - v^{1/c}, and whether any branch is admissible."""
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(v))
    arg = np.angle(v)
    half = np.pi / 2.0
    nmax = int(np.ceil(c * half / (2.0 * np.pi))) + 1
    best = np.full(v.shape, np.inf)
    admissible = np.zeros(v.shape, dtype=bool)
    for n in range(-nmax, nmax + 1):
        theta = (arg + 2.0 * np.pi * n) / c
        ok = np.abs(theta) < half
        if not np.any(ok):
            continue
        with np.errstate(over="ignore"):
            w = 1.0 - np.exp(logmag / c + 1j * theta)
        cand = np.abs(w)
        take = ok & (cand < best)
        best[take] = cand[take]
        admissible |= ok
    return best, admissible


def _reference_margin(zs, Fz, p, c):
    """min(1 - |w|, cos(min(|theta|, pi))), v = z^p F, theta = arg(v)/c: |w|
    is the best admissible branch's, or the principal branch's where none is
    admissible; at most 0 where |F| is at the vanishing floor.  Also gives
    where a branch is admissible and where F vanishes."""
    v = zs ** p * Fz
    best, admissible = _all_branches(v, c)
    theta = np.angle(v) / c
    vanish = vanishes(Fz, zs, p)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        principal = np.abs(1.0 - np.exp(np.log(np.abs(v)) / c + 1j * theta))
        w = np.where(admissible, best, principal)
        m = np.minimum(1.0 - w, np.cos(np.minimum(np.abs(theta), np.pi)))
        return np.where(vanish, np.minimum(m, 0.0), m), admissible, vanish


def test_subordination_on_the_branch_cut_has_a_finite_margin():
    # f = 1/z + 0.5 z, operator (1, 0, 1), alpha = 0: v = z F = 1 + 1.5 z^2 is
    # -0.215, on the negative real axis, at z = +-0.9i.  c = 2, theta = +-pi/2,
    # and |w| = |1 -+ 0.215^{1/2} i| > 1 on either side of the cut
    op, alpha = OperatorParams(1.0, 0.0, 1, 1), 0.0
    f = L(1, 1, [0.0, 0.5])
    grid = default_grid()
    rep = subordination_power_target(op, alpha, f, grid)
    assert rep.verdict == "fails"
    assert rep.worst_margin == -0.10227038425242974
    assert rep.witness == complex(-1.6532731788489269e-16, -0.9)
    expected = 1.0 - abs(complex(1.0, 0.215 ** 0.5))
    F = apply_coeff(op, f)
    zs = grid.points()
    cut = np.flatnonzero(np.isclose(zs, 0.9j) | np.isclose(zs, -0.9j))
    for route in (eval_circles(F, grid)[cut], eval_many(F, zs[cut])):
        margins, _, _ = _reference_margin(zs[cut], route, 1, 2.0)
        assert np.all(np.isfinite(margins))
        assert np.allclose(margins, expected, rtol=0, atol=1e-12)
    at = np.array([rep.witness])
    margin, _, _ = _reference_margin(at, eval_many(F, at), 1, 2.0)
    assert rep.worst_margin == margin[0]


target_v = st.one_of(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([-1.0, -2.5, -1e-3, 1e-3j - 1.0, -1e-3j - 1.0, 0.5, 3.0]),
)


@given(
    v0=target_v,
    c=st.floats(min_value=1e-3, max_value=4.0),
    r=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=300, deadline=None)
def test_subordination_principal_branch_matches_enumeration(v0, c, r, n):
    # p = 2, identity operator: v = z^2 F = 1 + a z, with a chosen so that
    # the first grid point z = r carries v close to v0
    op = OperatorParams(0.0, 0.0, 0, 2)
    alpha = 1.0 - c / 4.0
    f = L(2, -1, [(complex(v0) - 1.0) / r])
    grid = SampleGrid(radii=(r,), angles_count=n)
    zs = grid.points()
    c = 2.0 * op.p * (1.0 - alpha)
    F = apply_coeff(op, f)
    # the checker scans the FFT values and reports its worst point with
    # Horner's value there; built the same way, the asserts below are exact
    scanned, _, _ = _reference_margin(zs, eval_circles(F, grid), 2, c)
    i = int(np.argmin(scanned))
    at = zs[i : i + 1]
    margin, admissible, vanish = _reference_margin(at, eval_many(F, at), 2, c)
    if not np.isfinite(scanned[i]) or not np.isfinite(margin[0]):
        # |v|^{1/c} overflows: the margin has no float value
        with pytest.raises(OverflowError, match="margin: not finite"):
            subordination_power_target(op, alpha, f, grid)
        return
    rep = subordination_power_target(op, alpha, f, grid)
    assert rep.witness == zs[i]
    assert rep.worst_margin == margin[0]
    if admissible[0] and not vanish[0]:
        # where a branch is admissible, 1 - |w| <= cos(theta): the margin
        # is the best branch's own
        best, _ = _all_branches(at ** 2 * eval_many(F, at), c)
        assert rep.worst_margin == 1.0 - best[0]
    else:
        assert rep.verdict == "fails" and rep.worst_margin <= 0.0


def test_subordination_fails_where_v_vanishes_to_rounding():
    # f = 1/z + 2 under the identity operator, alpha = 0: z F = 1 + 2z is 0
    # at z = -0.5, so w = 1 there, on the boundary.  Rounding leaves v about
    # 1e-16 on either route, and 1 - |w| about |v|^{1/2} = 1e-8 above the
    # grid margin; the vanishing floor caps the margin at 0
    f = L(1, 0, [2.0])
    grid = SampleGrid(radii=(0.5,), angles_count=4)
    rep = subordination_power_target(M0, 0.0, f, grid)
    assert rep.verdict == "fails"
    assert rep.worst_margin == 0.0 and rep.witness == grid.points()[2]
    assert rep.detail.startswith(f"z^p F vanishes near z={grid.points()[2]}; grid=")
    zs = grid.points()
    for route in (eval_circles(f, grid), eval_many(f, zs)):
        margins, _, vanish = _reference_margin(zs, route, 1, 2.0)
        assert list(vanish) == [False, False, True, False]
        assert margins[2] <= 0.0


@given(
    p=st.sampled_from([1, 2]),
    tail=st.lists(
        st.one_of(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            st.sampled_from([-2.0, -1.0, 0.5, 2.0, -1.5j]),
        ),
        min_size=1, max_size=4,
    ),
    alpha=st.floats(0.0, 0.95),
    radii=st.sampled_from([(0.5,), (0.3, 0.9), (0.1, 0.5, 0.7, 0.9)]),
    n=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=150, deadline=None)
def test_subordination_fails_only_with_finite_margin_and_witness(p, tail, alpha, radii, n):
    f = L(p, len(tail) - p, tail)
    rep = subordination_power_target(OperatorParams(0.0, 0.0, 0, p), alpha, f, SampleGrid(radii, n))
    if rep.verdict == "fails":
        assert np.isfinite(rep.worst_margin) and rep.worst_margin <= 1e-9
        assert rep.witness in SampleGrid(radii, n).points()
