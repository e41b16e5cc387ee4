"""Weighted coefficient neighborhoods and the two inclusion verifiers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merokit.generators import extremal_fn
from merokit.membership import ClassParams
from merokit.neighborhoods import (
    WeightSeq,
    delta_star,
    distance,
    in_neighborhood,
    verify_inclusion_general,
    verify_inclusion_plus,
    weight,
    weight_array,
)
from merokit.operator import OperatorParams
from merokit.series import LaurentSeries, SampleGrid

M0 = OperatorParams(0.0, 0.0, 0, 1)
OP1 = OperatorParams(1.0, 0.0, 1, 1)


def L(p, K, coeffs, lead=1.0, exact=True):
    return LaurentSeries(p, K, np.asarray(coeffs, dtype=complex), lead, exact)


# ------------------------------------------------------------------- weights

def test_weight_frozen_values():
    cp = ClassParams(0.0, 1.0)
    assert weight(WeightSeq("plus", M0, cp), 1) == 1.0
    assert weight(WeightSeq("general", M0, cp), 1) == 2.0


def test_weight_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        WeightSeq("other", M0, ClassParams(0.0, 1.0))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_weight_overflow_reported():
    op = OperatorParams(1.0, 1.0, 300, 1)
    seq = WeightSeq("plus", op, ClassParams(0.0, 1.0))
    with pytest.raises(OverflowError, match="not finite"):
        weight_array(seq, np.array([10]))


def test_plus_weights_can_go_negative_at_small_k():
    # p = 2, alpha = 0, beta = 1: bracket at k = -1 is -2 + 2(1 - 1) = -2
    op = OperatorParams(0.0, 0.0, 0, 2)
    seq = WeightSeq("plus", op, ClassParams(0.0, 1.0))
    assert weight(seq, -1) < 0


# ------------------------------------------------------------------ distances

def test_distance_single_perturbation():
    cp = ClassParams(0.5, 1.0)
    seq = WeightSeq("plus", M0, cp)
    f = LaurentSeries.pole_only(1, 2)
    g = f.with_coeff(2, 0.1j)
    # s_2 = weight_2 / budget = (2*2+1)/1 = 5
    assert distance(seq, f, g) == pytest.approx(0.5, rel=1e-12)
    assert distance(seq, f, f) == 0.0


def test_distance_alignment_rules():
    cp = ClassParams(0.5, 1.0)
    seq = WeightSeq("plus", M0, cp)
    with pytest.raises(ValueError, match="pole_order"):
        distance(seq, L(1, 0, [0.0]), L(2, 0, [0.0, 0.0]))
    with pytest.raises(ValueError, match="lead"):
        distance(seq, L(1, 0, [0.0], lead=2.0), L(1, 0, [0.0]))
    with pytest.raises(ValueError, match="trunc_order"):
        distance(seq, L(1, 0, [0.0], exact=False), L(1, 2, [0, 0, 0], exact=False))
    # exact flags on both sides allow padding
    d = distance(seq, L(1, 0, [0.0]), L(1, 2, [0.0, 0.0, 0.2]))
    assert d == pytest.approx(1.0, rel=1e-12)


def test_in_neighborhood_boundary():
    cp = ClassParams(0.5, 1.0)
    seq = WeightSeq("plus", M0, cp)
    f = LaurentSeries.pole_only(1, 1)
    g = f.with_coeff(1, 0.1)  # distance = 3 * 0.1
    assert in_neighborhood(seq, f, g, 0.3)
    assert not in_neighborhood(seq, f, g, 0.2)
    with pytest.raises(ValueError, match="delta"):
        in_neighborhood(seq, f, g, 0.0)


coeffs3 = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
)


@given(a=coeffs3, b=coeffs3, c=coeffs3)
@settings(max_examples=50, deadline=None)
def test_distance_is_a_metric(a, b, c):
    """Symmetry and the triangle inequality, on strictly positive weights."""
    seq = WeightSeq("plus", M0, ClassParams(0.75, 1.0))
    f, g, h = (L(1, 2, xs) for xs in (a, b, c))
    dfg = distance(seq, f, g)
    assert dfg == pytest.approx(distance(seq, g, f), rel=1e-12, abs=1e-15)
    assert dfg <= distance(seq, f, h) + distance(seq, h, g) + 1e-12


# -------------------------------------------------------------- radius values

def test_delta_star_frozen_values():
    assert delta_star(OperatorParams(1.0, 0.0, 1, 1)) == pytest.approx(0.5)
    assert delta_star(OperatorParams(1.0, 1.0, 1, 1)) == pytest.approx(2 / 3)
    with pytest.warns(UserWarning, match="degenerate"):
        assert delta_star(M0) == 0.0


@given(lam=st.floats(0.01, 1.0), frac=st.floats(0.0, 1.0), p=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_delta_star_complements_premise_bound(lam, frac, p):
    """delta + 1/phi_{1-p}(m=1) = 1 exactly ties the radius to the premise."""
    from merokit.operator import phi

    op = OperatorParams(lam, lam * frac, 1, p)
    assert delta_star(op) + 1.0 / phi(op, 1 - p) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------- inclusion verifiers

def test_verify_plus_holds_on_premise_satisfying_member():
    cp = ClassParams(0.5, 1.0)
    f = LaurentSeries.pole_only(1, 8).with_coeff(1, 0.05)  # premise sum 0.45 < 0.5
    rep = verify_inclusion_plus(OP1, cp, f, trials=50, seed=1)
    assert rep.verdict == "holds"
    assert "trials=50" in rep.detail and "witness" in rep.detail
    assert rep.worst_margin >= 0


def test_verify_plus_inconclusive_on_criterion_extremal():
    """The one-term criterion-equality function breaks the premise, so the
    verifier must refuse rather than sample."""
    cp = ClassParams(0.5, 1.0)
    f = extremal_fn(OP1, cp, 0)
    rep = verify_inclusion_plus(OP1, cp, f, trials=10, seed=0)
    assert rep.verdict == "inconclusive"
    assert "premise violated" in rep.detail


def test_verify_plus_inconclusive_without_hypothesis():
    cp = ClassParams(0.5, 1.0)
    f = L(1, 1, [0.0, 0.05], exact=False)  # uncertified tail
    rep = verify_inclusion_plus(OP1, cp, f, trials=10, seed=0)
    assert rep.verdict == "inconclusive"
    assert "hypothesis" in rep.detail


def test_verify_plus_degenerate_radius():
    cp = ClassParams(0.5, 1.0)
    with pytest.warns(UserWarning):
        rep = verify_inclusion_plus(M0, cp, LaurentSeries.pole_only(1, 2), trials=5)
    assert rep.verdict == "inconclusive"
    assert "degenerate radius" in rep.detail


def test_verify_plus_vacuous_trials():
    cp = ClassParams(0.5, 1.0)
    f = LaurentSeries.pole_only(1, 4)
    rep = verify_inclusion_plus(OP1, cp, f, trials=0, seed=0)
    assert rep.verdict == "holds"
    assert "vacuous" in rep.detail


def test_verify_plus_is_deterministic():
    cp = ClassParams(0.5, 1.0)
    f = LaurentSeries.pole_only(1, 6).with_coeff(1, 0.05)
    a = verify_inclusion_plus(OP1, cp, f, trials=20, seed=7)
    b = verify_inclusion_plus(OP1, cp, f, trials=20, seed=7)
    assert a == b


GRID = SampleGrid(radii=(0.4, 0.8), angles_count=48)


def test_verify_general_holds_near_pole():
    cp = ClassParams(0.3, 0.8)
    f = LaurentSeries.pole_only(1, 8)
    rep = verify_inclusion_general(OP1, cp, f, 0.05, eps_trials=4, trials=16, grid=GRID)
    assert rep.verdict == "holds"
    assert "delta=0.05" in rep.detail and GRID.digest() in rep.detail


def test_verify_general_hypothesis_gate():
    cp = ClassParams(0.5, 1.0)
    bad = L(1, 1, [0.0, 3.0])  # not a member, eps = 0 sample already fails
    rep = verify_inclusion_general(OP1, cp, bad, 0.05, eps_trials=2, trials=4, grid=GRID)
    assert rep.verdict == "inconclusive"
    assert "hypothesis not established" in rep.detail


def test_verify_general_finds_escape_for_oversized_radius():
    cp = ClassParams(0.3, 0.8)
    f = LaurentSeries.pole_only(1, 8)
    rep = verify_inclusion_general(OP1, cp, f, 40.0, eps_trials=1, trials=32, grid=GRID, seed=0)
    assert rep.verdict == "fails"
    assert rep.witness is not None


def test_verify_general_validation():
    cp = ClassParams(0.3, 0.8)
    f = LaurentSeries.pole_only(1, 8)
    with pytest.raises(ValueError, match="delta"):
        verify_inclusion_general(OP1, cp, f, 0.0)
    with pytest.raises(ValueError, match="trunc_order"):
        verify_inclusion_general(OP1, cp, LaurentSeries.pole_only(1, 0), 0.1)
    with pytest.raises(ValueError, match="trials: must be >= 0, got -1"):
        verify_inclusion_general(OP1, cp, f, 0.1, trials=-1)
    with pytest.raises(ValueError, match="eps_trials: must be >= 0, got -2"):
        verify_inclusion_general(OP1, cp, f, 0.1, eps_trials=-2)
