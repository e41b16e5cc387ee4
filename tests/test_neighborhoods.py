"""Weighted coefficient neighborhoods and the two inclusion verifiers."""
import importlib.util
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
from merokit.membership import RADIUS_CAP, SUM_TOL, ClassParams, budget, numeric_margins, ratio_weights
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


# ------------------------------------------- batched trials against the serial loops

def _outcome(fn, *args):
    """A report as comparable bits (float.hex margin, witness, detail), or the raised error."""
    try:
        rep = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    w = rep.witness
    w = (w.real.hex(), w.imag.hex()) if isinstance(w, complex) else w
    return rep.verdict, float(rep.worst_margin).hex(), w, rep.detail


#: the detail of a general run whose neighborhood was not certified and whose sampled neighbors all held
UNCERTIFIED = "neighborhood not certified; no escape among trials="


def _general(*args):
    """verify_inclusion_general's outcome, held to the serial loop's.  A certified
    neighborhood holds at a margin no sampled neighbor goes below; a screen that
    finds no escape is the serial loop's run that no neighbor failed; any other
    outcome, a sampled miss or an error, is the serial loop's, bit for bit."""
    got = _outcome(neighborhoods.verify_inclusion_general, *args)
    want = _outcome(serial.verify_inclusion_general, *args)
    if got[0] == "holds" or got[-1].startswith(UNCERTIFIED):
        assert want[0] == "holds" or want[3].startswith("no neighbor sampled (trials = 0); ")
        assert got[0] == "inconclusive" or not float.fromhex(want[1]) < float.fromhex(got[1])
    else:
        assert got == want
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


@pytest.mark.parametrize("p,d,first_miss", [(1, 0.05, 7), (2, 0.1, 6), (1, 2.0, 1)])
def test_verify_general_inconclusive_as_serially(p, d, first_miss):
    """Phase (a): an eps-shift leaves the class, in the first block of the
    default grid or a later one."""
    op, cp, f = _member(p, 4)
    got = _general(op, cp, f, d / phi(op, p), 8, 32, None, 4)
    assert got[0] == "inconclusive" and f"eps sample #{first_miss} " in got[3]


def test_verify_general_fails_as_serially():
    cp = ClassParams(0.3, 0.8)
    f = LaurentSeries.pole_only(1, 8)
    for seed in range(3):
        got = _general(OP1, cp, f, 40.0, 1, 32, GRID, seed)
        assert got[0] == "fails" and "sampled neighbor #" in got[3]


def test_verify_general_fails_at_a_later_block_as_serially():
    """At 0.2 / phi_1 the neighborhood is not certified and no sampled neighbor
    leaves the class: inconclusive.  At 0.8 and 1.6 one does, in a later block."""
    op, cp, f = _member(1, 4)
    outcomes = [
        _general(op, cp, f, d / phi(op, 1), 0, 32, grid, 11)
        for d in (0.2, 0.8, 1.6)
        for grid in (TRIAL_GRID, None)
    ]
    assert [o[0] for o in outcomes] == ["inconclusive"] * 2 + ["fails"] * 4
    assert all(o[3].startswith(UNCERTIFIED) for o in outcomes[:2])
    assert "sampled neighbor #19 " in outcomes[3][3] and "sampled neighbor #10 " in outcomes[5][3]


@pytest.mark.parametrize("counts", [(8, 0), (0, 32), (0, 0), (3, 5)])
def test_verify_general_trial_counts_as_serially(counts):
    """A certified neighborhood holds whatever the sample counts, trials = 0
    included: the certificate draws no neighbor.  One that is not certified and
    that no sampled neighbor leaves shows nothing, trials = 0 or not:
    inconclusive at its least certified margin, witnessed by its point."""
    op, cp, f = _member(1, 0)
    got = _general(op, cp, f, 0.002, *counts, TRIAL_GRID, 3)
    assert got[0] == "holds" and got[3].startswith("every neighbor certified at every grid point; ")
    op, cp, f = _member(2, 0)
    got = _general(op, cp, f, 0.01 / phi(op, 2), *counts, TRIAL_GRID, 0)
    assert got[0] == "inconclusive" and got[3].startswith(f"{UNCERTIFIED}{counts[1]} seed=0; ")
    assert float.fromhex(got[1]) <= 0.0 and got[2] is not None


def test_verify_general_empty_capped_grid_as_serially():
    """A grid with no radius <= RADIUS_CAP is refused before any eps sample,
    with numeric_membership's own cause."""
    op, cp, f = _member(1, 0)
    grid = SampleGrid(radii=(0.97, 0.99), angles_count=16)
    got = _general(op, cp, f, 0.002, 8, 32, grid, 0)
    assert got[:2] == ("inconclusive", "nan")
    assert got[3].startswith(f"no usable grid points; grid={grid.digest()}")


def test_verify_general_overflowing_rows_as_serially():
    """A trial whose operator image or margin overflows raises the single check's error."""
    op, cp, f = _member(1, 0)
    got = _general(op, cp, f.with_coeff(3, 1e308), 0.002, 8, 32, TRIAL_GRID, 0)
    assert got[0] == "OverflowError" and "image overflows" in got[1]
    op = OperatorParams(1.0, 0.0, 1, 2)
    cp = ClassParams(0.5, 0.5)
    f = LaurentSeries.pole_only(2, 8)
    got = _general(op, cp, f, 1.7e308, 0, 32, TRIAL_GRID, 98)
    assert got == ("OverflowError", "apply: the operator image overflows a float at k=-1 (m=1)")
    got = _general(op, cp, f, 1.7e308, 0, 32, TRIAL_GRID, 5)
    assert got[0] == "OverflowError" and got[1].startswith("margin: not finite")


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


def test_verify_general_overflowing_step_is_the_image_error():
    """A step u mass e^(i t) / s_k beyond the float range (s_k just above SUM_TOL,
    delta near the largest float) is the overflowing image's usage error, with
    no numpy warning; the serial loop, its warning silenced, agrees."""
    op = OperatorParams(1.0, 0.0, 1, 2)
    cp = ClassParams(0.5, 1.0 - 1e-10)
    f = LaurentSeries.pole_only(2, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(serial.verify_inclusion_general, op, cp, f, 1.7e308, 0, 32, TRIAL_GRID, 1)
    got = _outcome(neighborhoods.verify_inclusion_general, op, cp, f, 1.7e308, 0, 32, TRIAL_GRID, 1)
    assert got == want == ("OverflowError", "apply: the operator image overflows a float at k=-1 (m=1)")


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
    checked, check = [], neighborhoods.exact_membership_plus

    def spy(op, cp, g):
        checked.append((g, check(op, cp, g)))
        return checked[-1][1]

    monkeypatch.setattr(neighborhoods, "exact_membership_plus", spy)
    rep = neighborhoods.verify_inclusion_plus(op, cp, f, 300, 1)
    assert [r.verdict for _, r in checked] == ["holds", "fails", "fails"]
    assert checked[0][0] is f and all(g is not f for g, _ in checked[1:])
    assert (rep.verdict, rep.worst_margin) == ("inconclusive", checked[-1][1].worst_margin)


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


def test_each_sampled_run_draws_its_steps_in_one_call(monkeypatch):
    """A general run draws its neighbors' steps from one _steps call, whether it
    fails or samples nothing; a general run whose neighborhood is certified draws
    none, and a plus run draws none at all."""
    calls = []
    steps = neighborhoods._steps

    def spy(rng, s, radius, trials):
        calls.append(trials)
        return steps(rng, s, radius, trials)

    monkeypatch.setattr(neighborhoods, "_steps", spy)
    cp = ClassParams(0.5, 1.0)
    f = LaurentSeries.pole_only(1, 8).with_coeff(1, 0.05)
    assert verify_inclusion_plus(OP1, cp, f, 50, 1).verdict == "holds"
    op, cp, f = _member(1, 4)
    verdicts = [
        verify_inclusion_general(op, cp, f, r / phi(op, 1), eps, n, None, 11).verdict
        for r, eps, n in ((0.002, 8, 32), (0.002, 8, 0), (0.8, 0, 32))
    ]
    assert verdicts == ["holds", "holds", "fails"]
    assert calls == [32]


def test_certified_run_screens_nothing(monkeypatch):
    """A run whose two phases are certified makes no _numeric_rows screen and no
    _steps draw: one evaluation of f's image gives the report, one FFT call of its
    F and zF' rows and one Horner pass of them at both phases' witnesses (four
    rows).  The eps samples are still drawn from the seed."""
    calls = _spied(monkeypatch, "eval_circles", "eval_many")
    for name in ("_numeric_rows", "_steps"):
        monkeypatch.setattr(neighborhoods, name, lambda *args, _name=name: pytest.fail(f"{_name} called"))
    op, cp, f = _member(1, 0)
    rep = verify_inclusion_general(op, cp, f, 0.002 / phi(op, 1), 8, 32, None, 0)
    assert rep.verdict == "holds" and rep.detail.startswith("every neighbor certified at every grid point; ")
    assert "eps-shifts certified at " in rep.detail and "trials" not in rep.detail
    assert calls == {"eval_circles": [2], "eval_many": [4]}


def _schwarz_member(p, seed):
    """A seeded Schwarz member (beta < 1), its operator and class parameters."""
    rng = np.random.default_rng([seed, p, 7])
    op = OperatorParams(float(rng.uniform(0.5, 1.0)), 0.1, int(rng.integers(1, 3)), p)
    cp = ClassParams(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.3, 0.9)))
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    w *= 0.6 / float(np.sum(np.abs(w)))
    return op, cp, from_schwarz(op, cp, SchwarzPoly(tuple(complex(c) for c in w)))


def _stated_bounds(op, cp, f, delta, zs):
    """The certified margins c(z) of phase (a) and phase (b) at zs, computed from the
    bounds as stated, index by index, and Horner values of f's image."""
    p, a, b = op.p, cp.alpha, cp.beta
    F = apply_coeff(op, f)
    Fz, Az = eval_many(F, zs), eval_many(z_derivative(F), zs)
    M = b * np.abs(Az + (2 * a - 1) * p * Fz) - np.abs(Az + p * Fz)
    r, B, phi_p = np.abs(zs), 2 * p * b * (1 - a), phi(op, p)
    D = {k: b * (k + abs(2 * a - 1) * p) + k + p for k in range(1 - p, 1)}
    slack_b = np.max([delta * B * r**k * (b * abs(k + (2 * a - 1) * p) + k + p) / D[k] for k in D], axis=0)
    inflate_b = np.max([delta * B * r**k / D[k] for k in D], axis=0)
    inflate_a = delta * phi_p * r**p
    slack_a = 2 * p * (a * b + 1) * inflate_a
    return (M - slack_a) / (p * (np.abs(Fz) + inflate_a)), (M - slack_b) / (p * (np.abs(Fz) + inflate_b))


@pytest.mark.parametrize("delta", [0.005, 0.05])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", ["herglotz", "schwarz"])
def test_certified_margin_bounds_extreme_neighbors(kind, p, delta):
    """Wherever a certified margin is positive, no neighbor at the edge of the
    neighborhood goes below it: one coefficient moved by 0.999999 delta / s_k
    at a random phase (phase (b)), or the eps-shift at |eps| = 0.999999 delta
    (phase (a)).  The verifier's reported margin is the least phase (b) bound,
    and its detail names the least phase (a) bound where that closes."""
    grid = SampleGrid()
    zs = grid.points(radius_cap=RADIUS_CAP)
    certified = 0
    for seed in range(3):
        op, cp, f = _member(p, seed) if kind == "herglotz" else _schwarz_member(p, seed)
        c_a, c_b = _stated_bounds(op, cp, f, delta, zs)
        rep = verify_inclusion_general(op, cp, f, delta, 0, 0, grid, seed)
        if rep.verdict == "holds":
            assert rep.worst_margin == pytest.approx(c_b.min(), rel=1e-9, abs=1e-12)
        closed = c_a.min() > grid.margin
        assert (f"eps-shifts certified at {c_a.min():.3g}; " if closed else "eps-shifts screened: ") in rep.detail
        rng = np.random.default_rng([seed, p, 11])
        s = weight_array(WeightSeq("general", op, cp), f.k_values())
        for _ in range(6):
            k = int(rng.integers(0, 8))
            step = 0.999999 * delta / s[k] * np.exp(2j * np.pi * rng.uniform())
            g = f.with_coeff(int(f.k_values()[k]), f.coeffs[k] + step)
            eps = 0.999999 * delta * np.exp(2j * np.pi * rng.uniform())
            shifted = scale(f.with_coeff(p, f.coeff(p) + eps), 1.0 / (1.0 + eps))
            for c, neighbor in ((c_b, g), (c_a, shifted)):
                _, margins = numeric_margins(op, cp, neighbor, grid)
                held = c > 0
                assert np.all(margins[held] >= c[held] - 1e-12)
                certified += int(held.sum())
    assert certified > 0


@pytest.mark.parametrize("case", ["zero bracket", "radius above 1", "largest radius"])
def test_uncertifiable_inputs_raise_no_warning(case):
    """A zero bracket D_{1-p} (p = 2, alpha = 1/2, beta = 1) and a radius near the
    largest float leave the phase (b) bound infinite: no certified margin (NaN),
    no witness.  Above 1 phase (a) is not certified but screened, and phase (b)
    does not close.  No numpy warning on the way."""
    op, cp, f, delta, hypothesis = {
        "zero bracket": (OperatorParams(1.0, 0.0, 1, 2), ClassParams(0.5, 1.0), LaurentSeries.pole_only(2, 4),
                         0.01, "eps-shifts certified at "),
        "radius above 1": (OP1, ClassParams(0.3, 0.8), LaurentSeries.pole_only(1, 8), 1.5, "eps-shifts screened: "),
        "largest radius": (OP1, ClassParams(0.3, 0.8), LaurentSeries.pole_only(1, 8), 1.7e308, "eps-shifts screened: "),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _general(op, cp, f, delta, 0, 0, TRIAL_GRID, 0)
    assert got[0] == "inconclusive" and got[3].startswith(f"{UNCERTIFIED}0 seed=0; {hypothesis}")
    assert (got[1] == "nan" and got[2] is None) == (case != "radius above 1")


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


# ---------------------------------------------------------------- block sizes

def _screened_blocks(monkeypatch, grid, tail, count):
    """Screen ``count`` copies of z^-1 with ``tail`` zero coefficients (each
    holds): the screen's miss, and per ``eval_circles`` call the rows it got
    and how many candidates had been drawn from the stream by then."""
    drawn, calls = [], []
    evaluate = membership.eval_circles

    def spy(rows, *args):
        calls.append((len(rows.lead), len(drawn)))
        return evaluate(rows, *args)

    def stream():
        for i in range(count):
            drawn.append(i)
            yield 1.0, np.zeros(tail, dtype=complex)

    monkeypatch.setattr(membership, "eval_circles", spy)
    got = membership._numeric_rows(OP1, ClassParams(0.3, 0.8), grid, np.arange(tail), stream())
    return got, calls, len(drawn)


@pytest.mark.parametrize(
    "radii,angles,tail,rows",
    [
        (np.linspace(0.1, 0.9, 5), 720, 65, 2),  # the default grid at K = 64
        (np.linspace(0.1, 0.9, 20), 4096, 1024, 1),
        ((0.5,), 8, 4096, 1),  # a long series on a small grid: its tails and terms
        ((0.97, 0.99), 16, 4096, 2),  # no capped circle: the tails alone
        (np.linspace(0.1, 0.9, 20), 8, 4096, 1),  # the terms on 20 circles outweigh the bins
    ],
)
def test_trial_blocks_stay_within_their_byte_cap(monkeypatch, radii, angles, tail, rows):
    """A block's complex arrays, per candidate its F and zF' rows' tails (2n
    entries), their terms a_k r^k on the R capped circles (2Rn) and their bins
    there (2RM), hold at most 256 KiB, unless it is a single row, the least a
    block can hold.  Each block is one eval_circles call of its F and zF' rows,
    made once the block, and no more, has been drawn from the stream."""
    grid = SampleGrid(tuple(float(r) for r in radii), angles)
    circles = sum(r <= RADIUS_CAP for r in grid.radii)
    entries = 2 * (tail + circles * (tail + angles))
    assert rows == 1 or rows * entries * 16 <= 256 * 1024
    assert (rows + 1) * entries * 16 > 256 * 1024
    miss, calls, drawn = _screened_blocks(monkeypatch, grid, tail, 3 * rows)
    if circles:
        assert miss is None
        assert calls == [(2 * rows, rows), (2 * rows, 2 * rows), (2 * rows, 3 * rows)]
    else:  # nothing to evaluate: the first candidate is the caller's to re-run
        assert miss[0] == 0 and calls == [] and drawn == rows


def _screened(K=None):
    """A p = 2 member and radius 0.01 / phi_2 at which, on the grids below,
    neither phase is certified and no eps sample or neighbor drawn from seed 0
    leaves the class: every sample is screened."""
    op, cp, f = _member(2, 0, K)
    return op, cp, f, 0.01 / phi(op, 2)


def test_trial_memory_does_not_grow_with_the_trial_count():
    """A long series on a one-circle grid: eight times the trials leave the
    traced peak of a run where it was, about a block's few arrays."""
    op, cp, f, delta = _screened(4094)
    grid = SampleGrid((0.9,), 8)
    peaks = []
    for trials in (8, 64):
        tracemalloc.start()
        rep = verify_inclusion_general(op, cp, f, delta, 8, trials, grid, 0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert rep.verdict == "inconclusive" and rep.detail.startswith(UNCERTIFIED)
    assert peaks[1] < peaks[0] + 64 * 1024
    assert peaks[1] < 16 * 256 * 1024


def test_default_scale_trial_memory_peak():
    """tracemalloc's peak of a default-scale call (K = 64 - p on the 5x720 grid,
    8 + 32 trials in 2-row blocks) was 652 KiB while the numeric form allocated
    five full-size temporaries; with reused buffers and the FFT's M bins per
    circle it was about 619.5 KiB.  With the bins transformed in place, the
    quotient margins computed into the consumed values and one Horner pass per
    phase it is about 498 KiB, and must stay below 640 KiB, the two certificate
    evaluations that precede the screens included."""
    op, cp, f, delta = _screened()
    args = (op, cp, f, delta, 8, 32, None, 0)
    verify_inclusion_general(*args)  # first-call allocations are not the trials' own
    tracemalloc.start()
    rep = verify_inclusion_general(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rep.verdict == "inconclusive" and rep.detail.startswith(UNCERTIFIED)
    assert peak < 640 * 1024


def test_dense_grid_run_evaluates_one_row_at_a_time(monkeypatch):
    """On a 20x4096 grid the certificate of both phases, each eps sample and
    each trial is its own block: one eval_circles call of its F and zF' rows."""
    sizes = []
    evaluate = membership.eval_circles

    def spy(rows, *args):
        sizes.append(len(rows.lead))
        return evaluate(rows, *args)

    monkeypatch.setattr(membership, "eval_circles", spy)
    op, cp, f, delta = _screened()
    grid = SampleGrid(tuple(float(r) for r in np.linspace(0.1, 0.9, 20)), 4096)
    rep = neighborhoods.verify_inclusion_general(op, cp, f, delta, 2, 3, grid, 0)
    assert rep.verdict == "inconclusive" and rep.detail.startswith(UNCERTIFIED)
    assert sizes == [2] * 6


def _spied(monkeypatch, *names):
    """Per named evaluator of ``membership``, the row count of each call."""
    calls = {name: [] for name in names}
    for name in names:
        def spy(rows, *args, _evaluate=getattr(membership, name), _calls=calls[name]):
            _calls.append(len(rows.lead))
            return _evaluate(rows, *args)

        monkeypatch.setattr(membership, name, spy)
    return calls


def test_default_scale_run_makes_one_horner_pass_per_phase(monkeypatch):
    """A default-scale call (8 eps samples and 32 trials, K = 64 - p on the 5x720
    grid) that certifies neither phase is the certificate of both phases (one
    eval_circles call of f's F and zF' rows and one eval_many pass of them at
    both witnesses), then per phase the screen: FFT blocks of 2 candidates, each
    one eval_circles call of its F and zF' rows, and one Horner pass (eval_many)
    per phase, not per block."""
    calls = _spied(monkeypatch, "eval_circles", "eval_many")
    op, cp, f, delta = _screened()
    rep = verify_inclusion_general(op, cp, f, delta, 8, 32, None, 0)
    assert rep.verdict == "inconclusive" and rep.detail.startswith(UNCERTIFIED)
    assert calls["eval_circles"] == [2] + [4] * 4 + [4] * 16
    assert calls["eval_many"] == [4, 16, 64]


def test_long_series_horner_batches_stay_within_the_byte_cap(monkeypatch):
    """A screen's Horner batch holds as many candidates as keep its F and zF'
    tails and Horner's transposed copy of them (4n entries each) within 256 KiB.
    At K = 4096 - p on a one-circle grid that is one candidate, a block of its
    own.  The certificate, one Horner pass of f's F and zF' rows at both phases'
    witnesses, comes first."""
    calls = _spied(monkeypatch, "eval_circles", "eval_many")
    op, cp, f, delta = _screened(4094)
    rep = verify_inclusion_general(op, cp, f, delta, 3, 5, SampleGrid((0.9,), 8), 0)
    assert rep.verdict == "inconclusive" and rep.detail.startswith(UNCERTIFIED)
    assert calls["eval_circles"] == [2] * 9 and calls["eval_many"] == [4] + [2] * 8
    assert all(2 * rows * len(f.coeffs) * 16 <= membership._BLOCK_BYTES for rows in calls["eval_many"][1:])


def test_many_trials_keep_the_default_scale_memory_peak(monkeypatch):
    """At the default scale a Horner batch is 64 candidates (128 rows), so 256
    trials make four passes, and the traced peak stays below the 640 KiB of
    the 8 + 32 call (about 613 KiB; 803 KiB with batches of 128)."""
    op, cp, f, delta = _screened()
    args = (op, cp, f, delta, 8, 256, None, 0)
    verify_inclusion_general(*args)  # first-call allocations are not the trials' own
    tracemalloc.start()
    rep = verify_inclusion_general(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rep.verdict == "inconclusive" and peak < 640 * 1024
    calls = _spied(monkeypatch, "eval_many")
    assert verify_inclusion_general(*args) == rep
    assert calls["eval_many"] == [4, 16] + [128] * 4


def test_failing_run_draws_only_to_the_failing_block(monkeypatch):
    """A neighbor that leaves the class ends its Horner batch early: the stream
    is drawn to the end of the FFT block that holds it (neighbor #19, the 10th
    block of 2), as when every block had its own Horner pass."""
    drawn = []
    screen = neighborhoods._numeric_rows

    def counted(*args):
        *head, candidates = args
        drawn.append(0)

        def stream():
            for c in candidates:
                drawn[-1] += 1
                yield c

        return screen(*head, stream())

    monkeypatch.setattr(neighborhoods, "_numeric_rows", counted)
    op, cp, f = _member(1, 4)
    rep = verify_inclusion_general(op, cp, f, 0.8 / phi(op, 1), 0, 32, None, 11)
    assert rep.verdict == "fails" and "sampled neighbor #19 " in rep.detail
    assert drawn == [1, 20]


@pytest.mark.parametrize(
    "case,outcome",
    [
        ("holds", "holds"),
        ("holds default grid", "holds"),
        ("fails", "fails"),
        ("fails at a later block", "fails"),
        ("inconclusive", "inconclusive"),
        ("image overflow", "OverflowError"),
        ("margin overflow", "OverflowError"),
        ("no capped circle", "inconclusive"),
    ],
)
def test_block_size_leaves_every_report_bit(monkeypatch, case, outcome):
    """One row per block, and all rows in one block, give each report or error
    the bits the sized blocks give, and the serial loop gives."""
    op, cp, f = _member(1, 4)
    args = {
        "holds": (op, cp, f, 0.002 / phi(op, 1), 8, 32, TRIAL_GRID, 3),
        "holds default grid": (op, cp, f, 0.002 / phi(op, 1), 8, 32, None, 3),
        "fails": (OP1, ClassParams(0.3, 0.8), LaurentSeries.pole_only(1, 8), 40.0, 1, 32, GRID, 0),
        "fails at a later block": (op, cp, f, 0.8 / phi(op, 1), 0, 32, None, 11),
        "inconclusive": (op, cp, f, 0.05 / phi(op, 1), 8, 32, None, 4),
        "image overflow": (op, cp, f.with_coeff(3, 1e308), 0.002, 8, 32, TRIAL_GRID, 0),
        "margin overflow": (
            OperatorParams(1.0, 0.0, 1, 2), ClassParams(0.5, 0.5), LaurentSeries.pole_only(2, 8),
            1.7e308, 0, 32, TRIAL_GRID, 5,
        ),
        "no capped circle": (op, cp, f, 0.002, 8, 32, SampleGrid((0.97, 0.99), 16), 0),
    }[case]
    want = _general(*args)
    assert want[0] == outcome
    for cap in (1, 2**40):
        monkeypatch.setattr(membership, "_BLOCK_BYTES", cap)
        assert _outcome(neighborhoods.verify_inclusion_general, *args) == want
