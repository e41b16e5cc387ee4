"""Weighted coefficient neighborhoods and the two inclusion verifiers."""
import importlib.util
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import merokit
from merokit import membership, neighborhoods
from merokit.generators import MeasureAtoms, SchwarzPoly, extremal_fn, from_herglotz, from_schwarz
from merokit.membership import (
    RADIUS_CAP,
    SUM_TOL,
    ClassParams,
    budget,
    numeric_margins,
    numeric_membership,
    ratio_weights,
)
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
from merokit.operator import OperatorParams, apply_coeff, phi
from merokit.series import LaurentSeries, SampleGrid, eval_many, scale, z_derivative
import neighborhood_reference as serial

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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


def test_weight_overflow_reported():
    op = OperatorParams(1.0, 1.0, 300, 1)
    seq = WeightSeq("plus", op, ClassParams(0.0, 1.0))
    with pytest.raises(OverflowError, match=r"phi: the multiplier at k=10 overflows a float \(m=300\)"):
        weight_array(seq, np.array([10]))


def test_plus_weights_can_go_negative_at_small_k():
    """The plus weight can be negative at k = 1 - p (p >= 2); such a
    sequence is no metric, and WeightSeq refuses to build it."""
    # p = 2, alpha = 0, beta = 1: bracket at k = -1 is -2 + 2(1 - 1) = -2
    op, cp = OperatorParams(0.0, 0.0, 0, 2), ClassParams(0.0, 1.0)
    assert ratio_weights(op, cp, np.array([-1]))[0] < 0
    with pytest.raises(ValueError, match=r"^kind: the plus weight at k=-1 is -0\.5 < 0; "
                       "the weighted distance is not a metric$"):
        WeightSeq("plus", op, cp)


#: operator and class parameters whose general weight at k = 1 - p = -2 is
#: [beta(-2 + 0) - 2 + 3] phi_{-2} / budget = -1 * 1.5 / 3 = -0.5
GENERAL_NEGATIVE = (OperatorParams(0.5, 0.1, 1, 3), ClassParams(0.5, 1.0))
GENERAL_NEGATIVE_MSG = (
    r"^kind: the general weight at k=-2 is -0\.5 < 0; the weighted distance is not a metric$"
)


@pytest.mark.parametrize("kind,op,cp", [
    ("plus", OperatorParams(0.0, 0.0, 0, 2), ClassParams(0.0, 1.0)),
    ("general", *GENERAL_NEGATIVE),
])
def test_negative_weight_is_no_distance(kind, op, cp):
    """With a negative weight, g = f + 100 z^(1-p) would be at "distance" -50
    and a neighbor at any radius: the weight sequence itself is refused."""
    f = LaurentSeries.pole_only(op.p, op.p)
    g = f.with_coeff(1 - op.p, 100.0)
    with pytest.raises(ValueError, match=f"kind: the {kind} weight at k={1 - op.p} is -"):
        distance(WeightSeq(kind, op, cp), f, g)
    with pytest.raises(ValueError, match=f"kind: the {kind} weight at k={1 - op.p} is -"):
        in_neighborhood(WeightSeq(kind, op, cp), f, g, 1e-9)


def test_verify_general_refuses_a_negative_weight():
    """The verifier never perturbs a coefficient whose weight is negative, so
    its samples say nothing about such a neighborhood: refused before phase (a)."""
    op, cp = GENERAL_NEGATIVE
    f = LaurentSeries.pole_only(op.p, op.p)
    with pytest.raises(ValueError, match=GENERAL_NEGATIVE_MSG):
        verify_inclusion_general(op, cp, f, 0.01, 2, 4, None, 0)
    assert _general(op, cp, f, 0.01, 2, 4, None, 0)[0] == "ValueError"


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the degenerate radius is the callers' to report
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
    assert rep.verdict == "holds" and rep.witness == 0  # s_0 = 2 > SUM_TOL: k* is the first index
    assert rep.detail.startswith("closed form: ") and "witness at delta*=" in rep.detail
    assert rep.worst_margin == pytest.approx(0.05, rel=1e-15)  # budget 1 times premise slack 0.5 - 0.45


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_inclusion_plus(M0, cp, LaurentSeries.pole_only(1, 2), trials=5)
    assert rep.verdict == "inconclusive"
    assert "degenerate radius" in rep.detail


def test_verify_plus_vacuous_trials():
    """No neighbor is sampled, so trials = 0, like any other trial count (a
    negative one too) and any seed, gives the closed form's report."""
    cp = ClassParams(0.5, 1.0)
    f = LaurentSeries.pole_only(1, 4)
    reports = {verify_inclusion_plus(OP1, cp, f, trials, seed) for trials, seed in ((100, 0), (0, 0), (-1, 7))}
    assert len(reports) == 1 and reports.pop().verdict == "holds"


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
    """Under the identity operator, z^-1 + (1 - 1e-6) 1.4 leaves the alpha = 0, beta = 1
    class (Re Q < 0 fails near z = -0.8): the first constructed neighbor, at k = 0, is a
    counterexample at distance (1 - 1e-6) 1.4 of z^-1."""
    rep = verify_inclusion_general(M0, ClassParams(0.0, 1.0), LaurentSeries.pole_only(1, 8), 1.4, grid=GRID)
    assert rep.verdict == "fails"
    assert rep.witness is not None and " at k=0 theta=2pi*0/16 leaves the class: " in rep.detail


def test_verify_general_validation():
    cp = ClassParams(0.3, 0.8)
    f = LaurentSeries.pole_only(1, 8)
    with pytest.raises(ValueError, match="delta"):
        verify_inclusion_general(OP1, cp, f, 0.0)
    with pytest.raises(ValueError, match="trunc_order"):
        verify_inclusion_general(OP1, cp, LaurentSeries.pole_only(1, 0), 0.1)
    # nothing reads the sample counts, so negative ones are no error either
    assert verify_inclusion_general(OP1, cp, f, 0.1, -2, -1) == verify_inclusion_general(OP1, cp, f, 0.1)


# ----------------------------------- constructed perturbations against the serial sampler

def _outcome(fn, *args):
    """A report as comparable bits (float.hex margin, witness, detail), or the raised error."""
    try:
        rep = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    w = rep.witness
    w = (w.real.hex(), w.imag.hex()) if isinstance(w, complex) else w
    return rep.verdict, float(rep.worst_margin).hex(), w, rep.detail


#: the detail of a general run whose neighborhood was not certified and whose constructed neighbors all held
UNCERTIFIED = "neighborhood not certified; no escape among "

#: the phases e^(i theta_j), theta_j = 2 pi j / 16, of the constructed perturbations
TURNS = np.exp(2j * np.pi * np.arange(16) / 16)


def _neighbor(op, cp, f, delta, k, j):
    """The phase (b) neighbor f + (1 - 1e-6)(delta / s_k) e^(i theta_j) z^k, as the verifier builds it."""
    s = weight_array(WeightSeq("general", op, cp), f.k_values())[k - 1 + op.p]
    return f.with_coeff(k, f.coeff(k) + (1.0 - 1e-6) * delta / s * TURNS[j])


def _general(op, cp, f, delta, eps_trials, trials, grid, seed):
    """verify_inclusion_general's outcome, held to what it claims.  A holds is contradicted
    by no neighbor that the serial sampler, the oracle, draws from f (one eps sample, f
    itself, so that no sampled eps-shift ends its run first): that run holds at no lower
    margin, and the eps-shift radius it names is above delta.  A fails is
    numeric_membership of the neighbor rebuilt from the k and theta that its detail
    names, bit for bit, and that neighbor is within delta of f.  A phase (a) inconclusive
    names eps_a* <= delta, and is numeric_membership of the eps-shift that it names, bit
    for bit: f itself where eps_a* = 0, else at |eps| = min(2 eps_a*, (eps_a* + delta)/2),
    normalized below delta = 1."""
    got = _outcome(neighborhoods.verify_inclusion_general, op, cp, f, delta, eps_trials, trials, grid, seed)
    if got[0] == "holds":
        want = _outcome(serial.verify_inclusion_general, op, cp, f, delta, 1, 32, grid, seed)
        assert want[0] == "holds" and not float.fromhex(want[1]) < float.fromhex(got[1])
        assert delta < float(re.search(r"; eps-shifts hold for \|eps\| < (\S+?)[;( ]", got[3]).group(1))
    elif got[0] == "fails":
        k, j = map(int, re.search(r" at k=(-?\d+) theta=2pi\*(\d+)/16 leaves the class: ", got[3]).groups())
        g = _neighbor(op, cp, f, delta, k, j)
        want = _outcome(numeric_membership, op, cp, g, grid)
        assert got[:3] == want[:3] and got[3].endswith(f" leaves the class: {want[3]}")
        assert distance(WeightSeq("general", op, cp), f, g) < delta
    elif got[0] == "inconclusive" and got[3].startswith("hypothesis not established: "):
        radius = float(re.search(r"eps_a\*=(\S+?), ", got[3]).group(1))
        assert not delta < radius
        if radius == 0.0:
            g = f
            assert "; f itself (eps=0) gives " in got[3]
        else:
            eps = complex(re.search(r"; the eps-shift at eps=(\S+?) ", got[3]).group(1))
            assert abs(eps) == pytest.approx(min(2.0 * radius, (radius + delta) / 2.0), rel=1e-14)
            g = f.with_coeff(op.p, f.coeff(op.p) + eps)
            g = g if delta >= 1.0 else scale(g, 1.0 / (1.0 + eps))
            assert ("is undefined at eps=-1) gives " in got[3]) == (delta >= 1.0)
        rep = numeric_membership(op, cp, g, grid)
        assert got[1] == float(rep.worst_margin).hex() and got[3].endswith(
            f" gives {rep.verdict} at witness {rep.witness}")
    return got


def _plus(*args):
    """verify_inclusion_plus's outcome, held to the serial loop's.  A closed-form
    holds is the serial loop's run that no sampled neighbor failed (or that
    sampled none), at a margin that no sampled neighbor goes below by more than
    SUM_TOL; any other outcome, a refusal or an error, is the serial loop's, bit
    for bit."""
    got = _outcome(neighborhoods.verify_inclusion_plus, *args)
    want = _outcome(serial.verify_inclusion_plus, *args)
    if got[0] == "holds":
        assert want[0] == "holds" or want[3].startswith("no neighbor sampled (trials = 0); ")
        assert want[0] != "holds" or float.fromhex(got[1]) <= float.fromhex(want[1]) + SUM_TOL
    else:
        assert got == want
    return got


def _member(p, seed, K=None):
    """A seeded beta = 1 Herglotz member, its operator and class parameters."""
    rng = np.random.default_rng([seed, p])
    op = OperatorParams(float(rng.uniform(0.5, 1.0)), 0.1, int(rng.integers(1, 3)), p)
    alpha = float(rng.uniform(0.0, 0.5))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
    weights = rng.dirichlet(np.ones(3))
    atoms = MeasureAtoms(tuple((complex(np.cos(t), np.sin(t)), w) for t, w in zip(angles, weights)))
    return op, ClassParams(alpha, 1.0), from_herglotz(op, alpha, atoms, K)


TRIAL_GRID = SampleGrid(radii=(0.3, 0.6, 0.9), angles_count=90)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 2])
def test_verify_general_holds_as_serially(p, seed):
    op, cp, f = _member(p, seed)
    delta = 0.002 / phi(op, p)
    for grid in (TRIAL_GRID, None):
        assert _general(op, cp, f, delta, 8, 32, grid, seed)[0] == "holds"


def test_verify_general_schwarz_member_as_serially():
    op = OperatorParams(0.7, 0.2, 1, 1)
    cp = ClassParams(0.2, 0.6)
    f = from_schwarz(op, cp, SchwarzPoly((0.3 + 0.1j, -0.2j, 0.1)))
    for seed in range(4):
        _general(op, cp, f, 0.01, 8, 32, TRIAL_GRID, seed)


#: the start of the detail of a phase (a) miss
MISSED = "hypothesis not established: delta is not below eps_a*="


@pytest.mark.parametrize("p,d", [(1, 0.05), (2, 0.1), (1, 2.0)])
def test_verify_general_inconclusive_as_serially(p, d):
    """Phase (a): delta is not below eps_a*, and the eps-shift that the report names,
    past eps_a* toward conj(w), leaves the class."""
    op, cp, f = _member(p, 4)
    got = _general(op, cp, f, d / phi(op, p), 8, 32, None, 4)
    assert got[0] == "inconclusive" and got[3].startswith(MISSED) and " gives fails at witness " in got[3]


def test_verify_general_fails_as_serially():
    """Where the serial sampler's 32 neighbors find no escape, a constructed one does:
    the double-pole members 7 and 10 at 0.03 / phi_2, and 10 at 0.1 / phi_2, on the
    default grid, each moved at k = 1 - p."""
    for seed, d, j in ((7, 0.03, 1), (10, 0.03, 0), (10, 0.1, 0)):
        op, cp, f = _member(2, seed)
        got = _general(op, cp, f, d / phi(op, 2), 8, 32, None, seed)
        assert got[0] == "fails" and f" at k=-1 theta=2pi*{j}/16 leaves the class: " in got[3]
        assert serial.verify_inclusion_general(op, cp, f, d / phi(op, 2), 1, 32, None, seed).verdict == "holds"


def test_verify_general_constructed_eps_shift_leaves_the_class():
    """Seven eps sampled from seed 1 stay in the class, and so does every sampled
    neighbor; the eps-shift past eps_a* toward conj(w) does not: the hypothesis is not
    established."""
    op, cp, f = _member(1, 1)
    got = _general(op, cp, f, 0.1 / phi(op, 1), 8, 32, None, 1)
    assert got[0] == "inconclusive" and got[3].startswith(MISSED) and " gives fails at witness " in got[3]
    assert serial.verify_inclusion_general(op, cp, f, 0.1 / phi(op, 1), 8, 32, None, 1).verdict == "holds"


def test_verify_general_eps_shift_between_the_phases(monkeypatch):
    """_schwarz_member(2, 22) has eps_a* = 0.0311492 on the default grid.  Below it the
    hypothesis holds.  Just above it, where each of 16 eps-shifts at fixed phases stayed
    in the class, the one toward conj(w) leaves it: inconclusive, from one
    numeric_membership call."""
    op, cp, f = _schwarz_member(2, 22)
    held = _general(op, cp, f, 0.0311, 8, 32, None, 0)
    assert held[0] == "holds" and "; eps-shifts hold for |eps| < 0.03114924" in held[3]
    checked = []
    check = neighborhoods.numeric_membership
    monkeypatch.setattr(neighborhoods, "numeric_membership", lambda *args: checked.append(args) or check(*args))
    missed = _general(op, cp, f, 0.0311496, 8, 32, None, 0)
    assert missed[0] == "inconclusive" and missed[3].startswith(f"{MISSED}0.03114924")
    assert " gives fails at witness " in missed[3] and -1e-5 < float.fromhex(missed[1]) < 0.0
    assert len(checked) == 1
    for eps in (1.0 - 1e-6) * 0.0311496 * TURNS:  # the 16 shifts that phase (a) used to check
        shifted = scale(f.with_coeff(2, f.coeff(2) + eps), 1.0 / (1.0 + eps))
        assert numeric_membership(op, cp, shifted).verdict == "holds"


def test_verify_general_fails_at_a_later_neighbor_as_serially():
    """Member 0 (p = 2) on the default grid: at 0.0071 / phi_2 every neighbor is
    certified; at 0.00716 / phi_2 the certificate does not close and no constructed
    neighbor leaves the class: inconclusive.  From 0.0072 / phi_2 on, one does, at
    k = -1 and a later phase."""
    op, cp, f = _member(2, 0)
    outcomes = [_general(op, cp, f, d / phi(op, 2), 8, 32, None, 0) for d in (0.0071, 0.00716, 0.0072, 0.008)]
    assert [o[0] for o in outcomes] == ["holds", "inconclusive", "fails", "fails"]
    assert outcomes[1][3].startswith(f"{UNCERTIFIED}64 constructed neighbors; ")
    assert " at k=-1 theta=2pi*9/16 " in outcomes[2][3] and " at k=-1 theta=2pi*7/16 " in outcomes[3][3]


@pytest.mark.parametrize("counts", [(8, 0), (0, 32), (0, 0), (3, 5)])
def test_verify_general_trial_counts_as_serially(counts):
    """A certified neighborhood holds whatever the sample counts: nothing is
    sampled.  One that is not certified and that no constructed neighbor leaves
    shows nothing, whatever the counts: inconclusive at its least certified
    margin, witnessed by its point."""
    op, cp, f = _member(1, 0)
    got = _general(op, cp, f, 0.002, *counts, TRIAL_GRID, 3)
    assert got[0] == "holds" and got[3].startswith("every neighbor certified at every grid point; ")
    op, cp, f = _member(2, 0)
    got = _general(op, cp, f, 0.00716 / phi(op, 2), *counts, None, 0)
    assert got[0] == "inconclusive" and got[3].startswith(f"{UNCERTIFIED}64 constructed neighbors; ")
    assert float.fromhex(got[1]) <= 0.0 and got[2] is not None


def test_verify_general_empty_capped_grid_as_serially():
    """A grid with no radius <= RADIUS_CAP is refused before any perturbation,
    with numeric_membership's own cause."""
    op, cp, f = _member(1, 0)
    grid = SampleGrid(radii=(0.97, 0.99), angles_count=16)
    got = _general(op, cp, f, 0.002, 8, 32, grid, 0)
    assert got[:2] == ("inconclusive", "nan")
    assert got[3].startswith(f"no usable grid points; grid={grid.digest()}")


def test_verify_general_overflowing_rows_as_serially():
    """An f whose operator image overflows is refused with the single check's error."""
    op, cp, f = _member(1, 0)
    f = f.with_coeff(3, 1e308)
    got = _general(op, cp, f, 0.002, 8, 32, TRIAL_GRID, 0)
    assert got == _outcome(numeric_membership, op, cp, f, TRIAL_GRID)
    assert got[0] == "OverflowError" and "image overflows" in got[1]


def test_verify_general_overflow_at_the_radius_witness_as_serially():
    """f = 1/z + 1.5e308 z under the identity operator: on |z| = 0.9, F and zF' are finite
    but zF' + pF overflows, so the eps-shift radius there is 0 and f itself is checked,
    whose margin overflows: the single check's error, with no numpy warning from the
    shift's direction at the radius' witness."""
    f, cp, grid = L(1, 1, [0.0, 1.5e308]), ClassParams(0.0, 1.0), SampleGrid(radii=(0.9,), angles_count=48)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _general(M0, cp, f, 0.05, 8, 32, grid, 0)
    assert got == _outcome(numeric_membership, M0, cp, f, grid) and got[0] == "OverflowError"


def test_verify_general_tiny_radius_as_serially():
    """At |z| = 1e-200 a double pole's term overflows: the margin's usage error,
    with no numpy warning from a Horner pass past the FFT's non-finite margin."""
    grid = SampleGrid((1e-200, 0.5), 8)
    for op in (OP1, OperatorParams(1.0, 0.0, 1, 2)):
        f = LaurentSeries.pole_only(op.p, 6)
        for counts in ((8, 4), (0, 4)):
            got = _general(op, ClassParams(0.3, 0.8), f, 0.01, *counts, grid, 0)
            assert (got[0] == "OverflowError") == (op.p == 2)
            assert op.p == 1 or got[1] == "margin: not finite at (1e-200+0j); the evaluation overflows a float"


def test_verify_general_errors_as_serially():
    op, cp, f = _member(2, 0)
    wrong_p = OperatorParams(op.lam, op.mu, op.m, 1)
    assert _general(wrong_p, cp, f, 0.002, 8, 32, GRID, 0)[0] == "ValueError"
    big_m = OperatorParams(1.0, 1.0, 300, 2)
    assert _general(big_m, cp, f, 0.002, 8, 32, GRID, 0)[0] == "OverflowError"


def _plus_member(op, cp, frac, seed, extra=10):
    """Nonnegative exact coefficients with premise sum s_k a_k = frac / phi_{1-p}(m=1)."""
    ks = np.arange(1 - op.p, 7 - op.p)
    s = weight_array(WeightSeq("plus", op, cp), ks)
    mass = np.random.default_rng(seed).dirichlet(np.ones(ks.size))
    a = np.where(s > 1e-6, frac * (1.0 - delta_star(op)) * mass / np.where(s > 1e-6, s, 1.0), 0.0)
    return L(op.p, 6 - op.p + extra, np.concatenate((a, np.zeros(extra))))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 2])
def test_verify_plus_as_serially(p, seed):
    op = OperatorParams(0.8, 0.3, 1, p)
    cp = ClassParams(0.6, 0.7)  # every weight positive, also at p = 2
    for frac in (0.3, 0.9, 1.0):
        f = _plus_member(op, cp, frac, seed)
        for trials in (0, 1, 100, 700):
            got = _plus(op, cp, f, trials, seed)
            assert got[0] == "holds" and "witness at delta*" in got[3]
    over = _plus_member(op, cp, 1.5, seed)
    assert "premise violated" in _plus(op, cp, over, 100, seed)[3]


def test_verify_plus_clipped_steps_as_serially():
    """From z^-p every step down clips to zero."""
    for seed in range(3):
        assert _plus(OP1, ClassParams(0.5, 1.0), LaurentSeries.pole_only(1, 8), 300, seed)[0] == "holds"


def test_verify_plus_degenerate_weight_as_serially():
    """A weight <= SUM_TOL leaves its coefficient alone in every trial; the
    sharpness witness then has no extremal at that index, the same error."""
    cp = ClassParams(5e-14, 1.0)
    assert 0 < weight(WeightSeq("plus", OP1, cp), 0) <= 1e-12
    f = LaurentSeries.pole_only(1, 8).with_coeff(1, 0.05)
    for seed in range(3):
        got = _plus(OP1, cp, f, 200, seed)
        assert got == ("ValueError", "n: degenerate criterion weight at n=0; no finite bound")


def test_verify_plus_failing_neighbor_as_serially(monkeypatch):
    """A radius beyond delta* lets sampled neighbors violate the criterion: the
    serial sampler fails.  g* violates it with them, so the closed form is
    inconclusive at g*'s own margin, witnessed by k*, and never fails."""
    op = OperatorParams(0.8, 0.3, 1, 1)
    cp = ClassParams(0.6, 0.7)
    f = _plus_member(op, cp, 0.9, 0)
    for module in (neighborhoods, serial):
        monkeypatch.setattr(module, "delta_star", lambda _op: 0.95)
    want = _outcome(serial.verify_inclusion_plus, op, cp, f, 300, 1)
    assert want[0] == "fails" and want[2] > 0
    rep = neighborhoods.verify_inclusion_plus(op, cp, f, 300, 1)
    assert (rep.verdict, rep.witness) == ("inconclusive", 0) and rep.worst_margin < -SUM_TOL
    assert rep.detail.startswith("g* = f + (delta/s_k) z^k at k=0 exceeds the budget by ")
    assert f", beyond the tolerance {SUM_TOL:g} (premise_slack=" in rep.detail


def test_verify_plus_failing_neighbor_is_decided_once(monkeypatch):
    """Beyond delta* the criterion is run three times, f first and once: on f,
    on the sharpness witness and on g*; the report carries g*'s margin."""
    op, cp = OperatorParams(0.8, 0.3, 1, 1), ClassParams(0.6, 0.7)
    f = _plus_member(op, cp, 0.9, 0)
    for module in (neighborhoods, serial):
        monkeypatch.setattr(module, "delta_star", lambda _op: 0.95)
    checked, check = [], neighborhoods._exact_plus

    def spy(op, cp, g, weights):
        checked.append((g, check(op, cp, g, weights)))
        return checked[-1][1]

    monkeypatch.setattr(neighborhoods, "_exact_plus", spy)
    rep = neighborhoods.verify_inclusion_plus(op, cp, f, 300, 1)
    assert [r.verdict for _, r in checked] == ["holds", "fails", "fails"]
    assert checked[0][0] is f and all(g is not f for g, _ in checked[1:])
    assert (rep.verdict, rep.worst_margin) == ("inconclusive", checked[-1][1].worst_margin)


def test_verify_plus_builds_its_weights_once(monkeypatch):
    """Each call builds the criterion weights once, over k = 1 - p .. max(K, 2 - p),
    for f, the premise, the sharpness witness and g*, down every path: a
    closed-form holds, g* over the budget beyond delta*, a violated premise and
    a base that fails the criterion."""
    op, cp = OperatorParams(0.8, 0.3, 1, 1), ClassParams(0.6, 0.7)
    inside, over = _plus_member(op, cp, 0.9, 0), _plus_member(op, cp, 1.5, 0)
    outside = inside.with_coeff(1, 10.0)
    builds, build = [], membership._criterion_weights

    def counted(op, cp, ks):
        builds.append(ks.tolist())
        return build(op, cp, ks)

    monkeypatch.setattr(membership, "_criterion_weights", counted)
    reports = [verify_inclusion_plus(op, cp, g) for g in (inside, over, outside)]
    monkeypatch.setattr(neighborhoods, "delta_star", lambda _op: 0.95)
    reports.append(verify_inclusion_plus(op, cp, inside))
    assert [r.verdict for r in reports] == ["holds", "inconclusive", "inconclusive", "inconclusive"]
    assert reports[1].detail.startswith("premise violated")
    assert reports[2].detail.startswith("base function does not certify")
    assert reports[3].detail.startswith("g* = f + (delta/s_k) z^k")
    assert builds == [list(range(0, inside.trunc_order + 1))] * 4


def test_verify_plus_premise_within_tolerance_is_inconclusive_at_g_star():
    """At alpha = 4e-13 (p = 1, beta = 1) the criterion weight at k = 0 is 1.6e-12,
    so the sharpness witness exists, but s_0 = 8e-13 <= SUM_TOL: k* = 1, beyond
    the stored range of z^-1, which g* extends.  A premise over its bound by
    9e-13, within SUM_TOL, puts g* over the budget by twice that, beyond SUM_TOL:
    inconclusive at g*'s margin, witnessed by k* = 1."""
    cp = ClassParams(4e-13, 1.0)
    seq = WeightSeq("plus", OP1, cp)
    assert 1e-12 < membership.criterion_weight(OP1, cp, 0) and weight(seq, 0) <= SUM_TOL
    rep = verify_inclusion_plus(OP1, cp, LaurentSeries.pole_only(1, 0))
    assert (rep.verdict, rep.witness) == ("holds", 1) and rep.worst_margin == budget(OP1, cp) * 0.5
    f = L(1, 1, [0.0, (0.5 + 9e-13) / weight(seq, 1)])
    rep = verify_inclusion_plus(OP1, cp, f)
    assert (rep.verdict, rep.witness) == ("inconclusive", 1)
    assert -2e-12 < rep.worst_margin < -SUM_TOL and "beyond the tolerance 1e-12" in rep.detail


def test_verify_plus_sharpness_within_tolerance_as_serially():
    """At beta = 1e-13 the sharpness witness g* exceeds the budget by budget * delta*,
    less than SUM_TOL, so it passes the criterion: the radius is not shown sharp,
    and k = -1 witnesses no failure."""
    op, cp = OperatorParams(1.0, 0.0, 1, 1), ClassParams(0.5, 1e-13)
    got = _plus(op, cp, LaurentSeries.pole_only(1, 8), 10, 0)
    assert got[:3] == ("inconclusive", "-0x1.c25c268c25b04p-45", None)
    assert "passes the criterion only within its tolerance 1e-12" in got[3]


@pytest.mark.parametrize("lam", [1e-16, 1e-17, 1e-320])
def test_verify_plus_sharpness_rounded_onto_f_as_serially(lam):
    """At a tiny delta* the inflation of g* rounds away: g* is f, at distance 0,
    and passes the criterion.  That shows rounding at work, not a neighbor outside
    the class: inconclusive with no witness, never fails, and the detail says
    that g* passes outright.  A subnormal delta* still gets a sharpness radius
    beyond it."""
    op, cp = OperatorParams(lam, 0.0, 1, 1), ClassParams(0.5, 1.0)
    got = _plus(op, cp, LaurentSeries.pole_only(1, 1), 100, 0)
    assert got == (
        "inconclusive", "0x0.0p+0", None,
        "sharpness witness at distance 0 passes the criterion outright (its inflation rounds away); "
        "sharpness not established",
    )


def test_verify_plus_degenerate_radius_measures_no_margin_as_serially():
    """delta = 0 samples nothing, so no inequality measures a margin: NaN."""
    got = _plus(M0, ClassParams(0.5, 1.0), LaurentSeries.pole_only(1, 2), 5, 0)
    assert got == ("inconclusive", "nan", None, "degenerate radius delta = 0; nothing to verify")


def test_certified_run_screens_nothing(monkeypatch):
    """A run whose two phases are certified checks no constructed perturbation: one
    evaluation of f's image gives the report, one FFT call of its F and zF' rows and
    one Horner pass of them at both phases' witnesses (four rows)."""
    calls = _spied(monkeypatch, "eval_circles", "eval_many")
    monkeypatch.setattr(neighborhoods, "numeric_membership", lambda *args: pytest.fail("numeric_membership called"))
    op, cp, f = _member(1, 0)
    rep = verify_inclusion_general(op, cp, f, 0.002 / phi(op, 1), 8, 32, None, 0)
    assert rep.verdict == "holds" and rep.detail.startswith("every neighbor certified at every grid point; ")
    assert "; eps-shifts hold for |eps| < " in rep.detail and "constructed" not in rep.detail
    assert calls == {"eval_circles": [2], "eval_many": [4]}


def test_verify_general_builds_phi_once(monkeypatch):
    """phi over k = 1 - p .. K is built once per call: the metric's weight at k = 1 - p,
    F's coefficients, phi_p and the weights s_k all come from that one build."""
    from merokit import operator

    op, cp, f = _member(1, 0)
    delta = 0.002 / phi(op, 1)
    builds, build = [], operator._phi_product

    def counted(op, ks):
        builds.append(np.asarray(ks).tolist())
        return build(op, ks)

    monkeypatch.setattr(operator, "_phi_product", counted)
    monkeypatch.setattr(neighborhoods, "_phi_product", counted)
    rep = verify_inclusion_general(op, cp, f, delta, 8, 32, None, 0)
    assert rep.verdict == "holds" and builds == [f.k_values().tolist()]


@pytest.mark.parametrize("op,cp,message", [
    (OperatorParams(1.0, 1.0, 700, 1), ClassParams(0.0, 1.0), r"phi: the multiplier at k=0 overflows a float \(m=700\)"),
    (OperatorParams(1.0, 1.0, 645, 1), ClassParams(0.9, 1.0), r"weight: the general weight at k=0 overflows a float"),
    (OperatorParams(1.0, 1.0, 645, 1), ClassParams(0.0, 1.0), r"phi: the multiplier at k=1 overflows a float \(m=645\)"),
])
def test_verify_general_refuses_overflow_in_the_order_of_separate_builds(op, cp, message):
    """From its one build of phi, the call raises what building the metric's weight at
    k = 1 - p (its phi, then the weight) and then F (phi at every k) each on its own
    raises, in that order: phi_0 = 3^m, phi_1 = 7^m, and the general weight at k = 0 is
    9 phi_0 at alpha = 0.9."""
    f = LaurentSeries.pole_only(1, 3)
    for separate in (lambda: WeightSeq("general", op, cp), lambda: apply_coeff(op, f)):
        try:
            separate()
        except OverflowError as exc:
            assert re.fullmatch(message, str(exc))
            break
    else:
        pytest.fail("no separate build overflows")
    with pytest.raises(OverflowError, match=f"^{message}$"):
        verify_inclusion_general(op, cp, f, 0.01)


def _schwarz_member(p, seed):
    """A seeded Schwarz member (beta < 1), its operator and class parameters."""
    rng = np.random.default_rng([seed, p, 7])
    op = OperatorParams(float(rng.uniform(0.5, 1.0)), 0.1, int(rng.integers(1, 3)), p)
    cp = ClassParams(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.3, 0.9)))
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    w *= 0.6 / float(np.sum(np.abs(w)))
    return op, cp, from_schwarz(op, cp, SchwarzPoly(tuple(complex(c) for c in w)))


def _stated_bounds(op, cp, f, delta, zs):
    """The eps-shift radii r(z) and phase (b)'s certified margins c(z) at zs, computed
    from the closed form and the bounds as stated, index by index, and Horner values of
    f's image: r from c0 = |v|^2 - beta^2 |u|^2 itself, squares and all."""
    p, a, b = op.p, cp.alpha, cp.beta
    F = apply_coeff(op, f)
    Fz, Az = eval_many(F, zs), eval_many(z_derivative(F), zs)
    v, u = Az + p * Fz, Az + (2 * a - 1) * p * Fz
    M = b * np.abs(u) - np.abs(v)
    r, B, q = np.abs(zs), 2 * p * b * (1 - a), 2 * p * phi(op, p)
    c0, e = np.abs(v) ** 2 - b**2 * np.abs(u) ** 2, np.abs(v - a * b**2 * u)
    radii = np.where(c0 < 0, (-c0 / (q * r**p)) / (e + np.sqrt(e**2 - (1 - a**2 * b**2) * c0)), 0.0)
    D = {k: b * (k + abs(2 * a - 1) * p) + k + p for k in range(1 - p, 1)}
    slack_b = np.max([delta * B * r**k * (b * abs(k + (2 * a - 1) * p) + k + p) / D[k] for k in D], axis=0)
    inflate_b = np.max([delta * B * r**k / D[k] for k in D], axis=0)
    return radii, (M - slack_b) / (p * (np.abs(Fz) + inflate_b))


@pytest.mark.parametrize("delta", [0.005, 0.05])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", ["herglotz", "schwarz"])
def test_certified_margin_bounds_extreme_neighbors(kind, p, delta):
    """Wherever a certified margin is positive, no neighbor at the edge of the
    neighborhood goes below it: one coefficient moved by 0.999999 delta / s_k at a
    random phase (phase (b)).  No eps-shift inside the least radius eps_a*, at
    |eps| = 0.999999 min(delta, eps_a*) and a random phase, has a negative margin at
    any point (phase (a)).  The verifier's reported margin is the least phase (b)
    bound, and its detail names eps_a*, the closed form's least r, wherever that is
    above delta."""
    grid = SampleGrid()
    zs = grid.points(radius_cap=RADIUS_CAP)
    certified = 0
    for seed in range(3):
        op, cp, f = _member(p, seed) if kind == "herglotz" else _schwarz_member(p, seed)
        radii, c_b = _stated_bounds(op, cp, f, delta, zs)
        rep = verify_inclusion_general(op, cp, f, delta, 0, 0, grid, seed)
        if rep.verdict == "holds":
            assert rep.worst_margin == pytest.approx(c_b.min(), rel=1e-9, abs=1e-12)
        named = re.search(r"(?:eps-shifts hold for \|eps\| < |eps_a\*=)(\S+?)[;,]", rep.detail)
        assert float(named.group(1)) == pytest.approx(radii.min(), rel=1e-9)
        assert rep.detail.startswith(MISSED) == (delta >= radii.min())
        rng = np.random.default_rng([seed, p, 11])
        s = weight_array(WeightSeq("general", op, cp), f.k_values())
        for _ in range(6):
            k = int(rng.integers(0, 8))
            step = 0.999999 * delta / s[k] * np.exp(2j * np.pi * rng.uniform())
            g = f.with_coeff(int(f.k_values()[k]), f.coeffs[k] + step)
            _, margins = numeric_margins(op, cp, g, grid)
            held = c_b > 0
            assert np.all(margins[held] >= c_b[held] - 1e-12)
            certified += int(held.sum())
            eps = 0.999999 * min(delta, radii.min()) * np.exp(2j * np.pi * rng.uniform())
            _, margins = numeric_margins(op, cp, scale(f.with_coeff(p, f.coeff(p) + eps), 1.0 / (1.0 + eps)), grid)
            assert margins.min() > -1e-12
    assert certified > 0


def _shift_radius_function(monkeypatch, op, cp, f, grid):
    """The eps-shift radius function that ``verify_inclusion_general`` reduces, taken from
    its ``_grid_minima`` call, and the report."""
    taken, reduce = [], neighborhoods._grid_minima

    def spy(grid, cap, series, margin_ofs, *rest):
        taken.append(margin_ofs[0])
        return reduce(grid, cap, series, margin_ofs, *rest)

    monkeypatch.setattr(neighborhoods, "_grid_minima", spy)
    rep = verify_inclusion_general(op, cp, f, 1e-6, 8, 32, grid, 0)
    monkeypatch.undo()
    return taken[0], rep


def _shift_margin(op, cp, v, u, z, eps):
    """|v_eps|^2 - beta^2 |u_eps|^2 of the eps-shifts, < 0 where they pass, from the
    shift itself: v moves by eps q z^p and u by alpha eps q z^p."""
    t = eps * 2 * op.p * phi(op, op.p) * z**op.p
    return np.abs(v + t) ** 2 - cp.beta**2 * np.abs(u + cp.alpha * t) ** 2


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", ["herglotz", "schwarz"])
def test_shift_radius_is_the_exact_disk(monkeypatch, kind, p):
    """The closed-form radius r(z) of the eps-shifts, against two oracles.  At the 8 grid
    points of least r, a scan of 4096 phases, each bisected in |eps| on the shift's own
    margin, finds no eps inside r that leaves the class, and its least boundary is r to
    within the scan's phase step.  At the witness, eps_a* is the closed form evaluated in
    40-digit mpmath from the stored image coefficients, within 1e-12 relative."""
    import mpmath

    grid = SampleGrid()
    zs = grid.points(radius_cap=RADIUS_CAP)
    phases = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for seed in range(3):
        op, cp, f = _member(p, seed) if kind == "herglotz" else _schwarz_member(p, seed)
        radius_of, rep = _shift_radius_function(monkeypatch, op, cp, f, grid)
        F = apply_coeff(op, f)
        Fz, Az = eval_many(F, zs), eval_many(z_derivative(F), zs)
        v, u = Az + p * Fz, Az + (2 * cp.alpha - 1) * p * Fz
        radii = radius_of(zs, Fz, Az)
        assert np.all(radii > 0)
        for i in np.argsort(radii)[:8]:
            lo, hi = np.zeros(phases.size), np.full(phases.size, radii[i])
            while np.any(grow := _shift_margin(op, cp, v[i], u[i], zs[i], hi * phases) < 0):
                lo, hi = np.where(grow, hi, lo), np.where(grow, 2 * hi, hi)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                inside = _shift_margin(op, cp, v[i], u[i], zs[i], mid * phases) < 0
                lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
            assert radii[i] * (1 - 1e-9) <= hi.min() <= radii[i] * (1 + 1e-5)
        z_star, eps_star = neighborhoods._certified(op, cp, grid, (F, z_derivative(F)), 1e-6, phi(op, p))[0][:2]
        assert rep.verdict == "holds" and f"eps-shifts hold for |eps| < {eps_star:.17g}; " in rep.detail
        assert eps_star == pytest.approx(radii.min(), rel=1e-12)
        with mpmath.workdps(40):
            z = mpmath.mpc(z_star)
            ks = [-p, *range(1 - p, F.trunc_order + 1)]
            cs = [mpmath.mpc(F.lead), *(mpmath.mpc(c) for c in F.coeffs)]
            Fm = mpmath.fsum(c * z**k for c, k in zip(cs, ks))
            Am = mpmath.fsum(k * c * z**k for c, k in zip(cs, ks))
            a, b = mpmath.mpf(cp.alpha), mpmath.mpf(cp.beta)
            vm, um = Am + p * Fm, Am + (2 * a - 1) * p * Fm
            c0 = abs(vm) ** 2 - b**2 * abs(um) ** 2
            e = abs(vm - a * b**2 * um)
            q = 2 * p * mpmath.mpf(phi(op, p))
            exact = (-c0 / (q * abs(z) ** p)) / (e + mpmath.sqrt(e**2 - (1 - a**2 * b**2) * c0))
            assert abs(eps_star - exact) <= 1e-12 * exact


@pytest.mark.parametrize("case", ["zero bracket", "radius above 1", "largest radius"])
def test_uncertifiable_inputs_raise_no_warning(case):
    """A zero bracket D_{1-p} (p = 2, alpha = 1/2, beta = 1) leaves the phase (b) bound
    infinite: no certified margin (NaN), no witness, and s_{1-p} = 0 moves no neighbor
    at k = 1 - p.  Above 1, and at a radius near the largest float too, phase (a) misses
    at eps_a* = 0.1505.../0.9^2 (f = 1/z: eps_a* = beta (2 - 2 alpha) / (q |z|^2 (1 + alpha
    beta)), q = 6), and the shift f + eps z at eps = 2 eps_a* leaves the class.  No numpy
    warning on the way."""
    missed = f"{MISSED}0.185848931368644"  # every point of |z| = 0.9 ties, to rounding
    op, cp, f, delta, detail = {
        "zero bracket": (OperatorParams(1.0, 0.0, 1, 2), ClassParams(0.5, 1.0), LaurentSeries.pole_only(2, 4),
                         0.01, f"{UNCERTIFIED}48 constructed neighbors; eps-shifts hold for |eps| < "),
        "radius above 1": (OP1, ClassParams(0.3, 0.8), LaurentSeries.pole_only(1, 8), 1.5, missed),
        "largest radius": (OP1, ClassParams(0.3, 0.8), LaurentSeries.pole_only(1, 8), 1.7e308, missed),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _general(op, cp, f, delta, 0, 0, TRIAL_GRID, 0)
    assert got[0] == "inconclusive" and got[3].startswith(detail) and got[2] is None
    assert (got[1] == "nan") == (case == "zero bracket")
    assert (" (as f + eps z^p: (f + eps z^p)/(1 + eps) is undefined at eps=-1) gives fails " in got[3]) == (
        case != "zero bracket")


def _closed_form_is_sound(op, cp, f, trials, seed):
    """A plus report that holds, held to what the closed form claims: no trial count
    or seed moves it; the serial sampler, the oracle, finds no neighbor below its
    margin by more than SUM_TOL; g* = f + (delta/s_k*) z^k*, at the least k* with
    s_k* > SUM_TOL, is in the neighborhood; and the margin is budget * (1/phi_{1-p}
    - sum s_k a_k), computed exactly from the stored floats, to within its rounding."""
    rep = verify_inclusion_plus(op, cp, f, trials, seed)
    assert rep.verdict == "holds"
    assert all(verify_inclusion_plus(op, cp, f, n, other) == rep for n, other in ((0, 0), (7, seed + 1)))
    sampled = serial.verify_inclusion_plus(op, cp, f, trials, seed)
    assert sampled.verdict == "holds" and sampled.worst_margin >= rep.worst_margin - SUM_TOL
    seq, d, k = WeightSeq("plus", op, cp), delta_star(op), rep.witness
    assert k == next(j for j in range(1 - op.p, 3 - op.p) if weight(seq, j) > SUM_TOL)
    tail = np.zeros(max(f.trunc_order, k) + op.p, dtype=complex)
    tail[: f.coeffs.size] = f.coeffs
    tail[k - 1 + op.p] += d / weight(seq, k)
    assert in_neighborhood(seq, f, L(op.p, tail.size - op.p, tail), d)
    s = weight_array(seq, f.k_values())
    premise = sum(Fraction(w) * Fraction(a) for w, a in zip(s.tolist(), f.coeffs.real.tolist()))
    bound, B = neighborhoods._premise_bound(op), budget(op, cp)
    exact = Fraction(B) * (Fraction(bound) - premise)
    # the rounding of fl(B fl(bound - fl(sum s_k a_k))), to first order: gamma_n for the sum of
    # n nonnegative terms, one rounding for the difference and one for the product
    rounding = (s.size + 2) * 2.0**-53 * B * (bound + float(premise))
    assert abs(Fraction(rep.worst_margin) - exact) <= Fraction(rounding)


def test_verify_plus_never_samples_below_the_closed_form(monkeypatch):
    """Every g in the plus neighborhood has sum s_k b_k <= premise + delta* = 1 -
    premise_slack, so its criterion margin is at least budget * premise_slack, the
    exact infimum, which g* attains.  So it is on the benchmark's sampling-small
    plus members (seeds 0-19, with the trial counts and seeds it passes): no
    sampled neighbor goes below it by more than SUM_TOL."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    seen, check = [], merokit.verify_inclusion_plus

    def spy(*args):
        seen.append(args)
        return check(*args)

    monkeypatch.setattr(merokit, "verify_inclusion_plus", spy)
    for seed in range(20):
        next(op for op in workloads.sampling_small(merokit, seed) if op.name == "verify_inclusion_plus.member").call()
    assert len(seen) == 20
    for args in seen:
        _closed_form_is_sound(*args)


def _extremal_combination(rng):
    """Operator and class parameters with metric plus weights (p <= 3), and z^-p plus
    a convex combination of the one-term premise extremals (theta / phi_{1-p} s_n) z^n,
    for n up to 1 - p + 8 with s_n > SUM_TOL and theta in {0.5, 0.9, 1}: its premise
    sum is theta / phi_{1-p}, on the bound for theta = 1."""
    while True:
        p = int(rng.integers(1, 4))
        lam = float(10.0 ** rng.uniform(-2.0, 0.5))
        op = OperatorParams(lam, lam * float(rng.uniform(0.0, 1.0)), int(rng.integers(0, 3)), p)
        cp = ClassParams(float(rng.uniform(0.0, 0.95)), float(rng.uniform(0.05, 1.0)))
        if delta_star(op) > 0 and ratio_weights(op, cp, np.array([1 - p]))[0] >= 0:
            break
    ks = np.arange(1 - p, 10 - p)
    s = weight_array(WeightSeq("plus", op, cp), ks)
    usable = s > SUM_TOL
    t = rng.dirichlet(np.ones(ks.size)) * usable
    theta = float(rng.choice([0.5, 0.9, 1.0]))
    a = np.where(usable, theta * neighborhoods._premise_bound(op) * t / t.sum() / np.where(usable, s, 1.0), 0.0)
    return op, cp, L(p, int(ks[-1]), a)


def test_verify_plus_closed_form_on_extremal_combinations():
    """As on the benchmark's members, on 24 seeded convex combinations of premise
    extremals, some of them with their premise sum on its bound."""
    rng = np.random.default_rng(20261019)
    for seed in range(24):
        _closed_form_is_sound(*_extremal_combination(rng), 100, seed)


def test_verify_plus_refusals_as_serially():
    cp = ClassParams(0.5, 1.0)
    assert _plus(OP1, cp, extremal_fn(OP1, cp, 0), 10, 0)[0] == "inconclusive"
    assert _plus(OP1, cp, L(1, 1, [0.0, 0.05], exact=False), 10, 0)[0] == "inconclusive"
    wrong_p = OperatorParams(1.0, 0.0, 1, 2)
    assert _plus(wrong_p, cp, LaurentSeries.pole_only(1, 4), 10, 0)[0] == "ValueError"


# ------------------------------------------------------------ constructed checks

def _screened():
    """A p = 2 member and radius 0.00716 / phi_2 at which, on the default grid, the
    eps-shifts hold (eps_a* = 0.00233 > delta), phase (b) is not certified and no
    constructed neighbor leaves the class: all 64 of phase (b) are checked."""
    op, cp, f = _member(2, 0)
    return op, cp, f, 0.00716 / phi(op, 2)


def test_default_scale_trial_memory_peak():
    """tracemalloc's peak of a default-scale call (K = 64 - p on the 5x720 grid) that
    checks every constructed perturbation, one numeric_membership call after another,
    the certificate's evaluation first, is about 433 KiB, and must stay below the
    640 KiB that the batched screen it replaced was held to."""
    args = (*_screened(), 8, 32, None, 0)
    verify_inclusion_general(*args)  # first-call allocations are not the checks' own
    tracemalloc.start()
    rep = verify_inclusion_general(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rep.verdict == "inconclusive" and rep.detail.startswith(UNCERTIFIED)
    assert peak < 640 * 1024


def _spied(monkeypatch, *names):
    """Per named evaluator of ``membership``, the row count of each call."""
    calls = {name: [] for name in names}
    for name in names:
        def spy(rows, *args, _evaluate=getattr(membership, name), _calls=calls[name]):
            _calls.append(len(rows.lead))
            return _evaluate(rows, *args)

        monkeypatch.setattr(membership, name, spy)
    return calls


def test_dense_grid_run_evaluates_one_row_at_a_time(monkeypatch):
    """On a 20x4096 grid, where the radius of ``_screened`` takes the same path, the
    eps-shift radius and phase (b)'s certificate, and each constructed check, is its own
    FFT call of its F and zF' rows and its own Horner pass of them, at its witnesses."""
    calls = _spied(monkeypatch, "eval_circles", "eval_many")
    op, cp, f, delta = _screened()
    grid = SampleGrid(tuple(float(r) for r in np.linspace(0.1, 0.9, 20)), 4096)
    rep = verify_inclusion_general(op, cp, f, delta, 8, 32, grid, 0)
    assert rep.verdict == "inconclusive" and rep.detail.startswith(UNCERTIFIED)
    assert calls == {"eval_circles": [2] * (1 + 64), "eval_many": [4] + [2] * 64}


def test_many_trials_keep_the_default_scale_memory_peak(monkeypatch):
    """Nothing reads the trial count: 256 trials check what 32 do, with the same
    report and below the same 640 KiB peak."""
    op, cp, f, delta = _screened()
    args = (op, cp, f, delta, 8, 256, None, 0)
    verify_inclusion_general(*args)  # first-call allocations are not the checks' own
    tracemalloc.start()
    rep = verify_inclusion_general(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rep == verify_inclusion_general(op, cp, f, delta, 8, 32, None, 0) and peak < 640 * 1024


def test_failing_run_checks_no_neighbor_past_its_miss(monkeypatch):
    """A run stops at its first miss: member 7 (p = 2) at 0.03 / phi_2 certifies its
    eps-shifts, then checks the constructed neighbors at k = -1 up to the failing
    one, the second."""
    checked = []
    check = neighborhoods.numeric_membership

    def counted(*args):
        checked.append(args[2])
        return check(*args)

    monkeypatch.setattr(neighborhoods, "numeric_membership", counted)
    op, cp, f = _member(2, 7)
    rep = verify_inclusion_general(op, cp, f, 0.03 / phi(op, 2), 8, 32, None, 7)
    assert rep.verdict == "fails" and " at k=-1 theta=2pi*1/16 " in rep.detail
    assert len(checked) == 2
    assert all(np.array_equal(g.coeffs, _neighbor(op, cp, f, 0.03 / phi(op, 2), -1, j).coeffs)
               for j, g in enumerate(checked))


def _counts_case(case):
    """verify_inclusion_general's arguments but the sample counts and seed, per case."""
    if case == "margin overflow":  # a double pole's term at |z| = 1e-200
        op = OperatorParams(1.0, 0.0, 1, 2)
        return op, ClassParams(0.3, 0.8), LaurentSeries.pole_only(2, 6), 0.01, SampleGrid((1e-200, 0.5), 8)
    p = 2 if case in ("fails", "fails at a later neighbor", "uncertified") else 1
    op, cp, f = _member(p, 0 if p == 2 else 4)
    delta, grid = {
        "holds": (0.002 / phi(op, 1), TRIAL_GRID),
        "holds default grid": (0.002 / phi(op, 1), None),
        "fails": (0.0072 / phi(op, 2), None),
        "fails at a later neighbor": (0.008 / phi(op, 2), None),
        "inconclusive": (0.05 / phi(op, 1), None),
        "uncertified": (0.00716 / phi(op, 2), None),
        "image overflow": (0.002, TRIAL_GRID),
        "no capped circle": (0.002, SampleGrid((0.97, 0.99), 16)),
    }[case]
    return op, cp, f.with_coeff(3, 1e308) if case == "image overflow" else f, delta, grid


@pytest.mark.parametrize(
    "case,outcome",
    [
        ("holds", "holds"),
        ("holds default grid", "holds"),
        ("fails", "fails"),
        ("fails at a later neighbor", "fails"),
        ("inconclusive", "inconclusive"),
        ("uncertified", "inconclusive"),
        ("image overflow", "OverflowError"),
        ("margin overflow", "OverflowError"),
        ("no capped circle", "inconclusive"),
    ],
)
def test_counts_and_seed_leave_every_report_bit(case, outcome):
    """Nothing is sampled, so every sample count and seed, negative ones too, gives
    each report or error the same bits."""
    op, cp, f, delta, grid = _counts_case(case)
    want = _general(op, cp, f, delta, 8, 32, grid, 0)
    assert want[0] == outcome
    for eps_trials, trials, seed in ((0, 0, 0), (3, 5, 7), (-1, -1, 2**40)):
        assert _outcome(neighborhoods.verify_inclusion_general, op, cp, f, delta, eps_trials, trials, grid, seed) == want
