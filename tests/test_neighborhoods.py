"""Weighted coefficient neighborhoods and the two inclusion verifiers."""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merokit import membership, neighborhoods
from merokit.generators import MeasureAtoms, SchwarzPoly, extremal_fn, from_herglotz, from_schwarz
from merokit.membership import RADIUS_CAP, ClassParams
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
from merokit.operator import OperatorParams, phi
from merokit.series import LaurentSeries, SampleGrid
import neighborhood_reference as serial

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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def _general(*args):
    """verify_inclusion_general's outcome, asserted equal to the serial loop's."""
    got = _outcome(neighborhoods.verify_inclusion_general, *args)
    assert got == _outcome(serial.verify_inclusion_general, *args)
    return got


def _plus(*args):
    """verify_inclusion_plus's outcome, asserted equal to the serial loop's."""
    got = _outcome(neighborhoods.verify_inclusion_plus, *args)
    assert got == _outcome(serial.verify_inclusion_plus, *args)
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
    op, cp, f = _member(1, 4)
    outcomes = [
        _general(op, cp, f, d / phi(op, 1), 0, 32, grid, 11)
        for d in (0.2, 0.8, 1.6)
        for grid in (TRIAL_GRID, None)
    ]
    assert [o[0] for o in outcomes] == ["holds"] * 2 + ["fails"] * 4
    assert "sampled neighbor #19 " in outcomes[3][3] and "sampled neighbor #10 " in outcomes[5][3]


@pytest.mark.parametrize("counts", [(8, 0), (0, 32), (0, 0), (3, 5)])
def test_verify_general_trial_counts_as_serially(counts):
    op, cp, f = _member(1, 0)
    got = _general(op, cp, f, 0.002, *counts, TRIAL_GRID, 3)
    assert got[0] == "holds"
    assert ("vacuous" in got[3]) == (counts[1] == 0)


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
    """A radius beyond delta* lets sampled neighbors violate the criterion."""
    op = OperatorParams(0.8, 0.3, 1, 1)
    cp = ClassParams(0.6, 0.7)
    f = _plus_member(op, cp, 0.9, 0)
    for module in (neighborhoods, serial):
        monkeypatch.setattr(module, "delta_star", lambda _op: 0.95)
    got = _plus(op, cp, f, 300, 1)
    assert got[0] == "fails" and got[2] > 0


def test_verify_plus_sharpness_within_tolerance_as_serially():
    """At beta = 1e-13 the sharpness witness g* exceeds the budget by budget * delta*,
    less than SUM_TOL, so it passes the criterion: the radius is not shown sharp,
    and k = -1 witnesses no failure."""
    op, cp = OperatorParams(1.0, 0.0, 1, 1), ClassParams(0.5, 1e-13)
    got = _plus(op, cp, LaurentSeries.pole_only(1, 8), 10, 0)
    assert got[:3] == ("inconclusive", "-0x1.c25c268c25b04p-45", None)
    assert "passes the criterion only within its tolerance 1e-12" in got[3]


def test_verify_plus_refusals_as_serially():
    cp = ClassParams(0.5, 1.0)
    assert _plus(OP1, cp, extremal_fn(OP1, cp, 0), 10, 0)[0] == "inconclusive"
    assert _plus(OP1, cp, L(1, 1, [0.0, 0.05], exact=False), 10, 0)[0] == "inconclusive"
    wrong_p = OperatorParams(1.0, 0.0, 1, 2)
    assert _plus(wrong_p, cp, LaurentSeries.pole_only(1, 4), 10, 0)[0] == "ValueError"


# ---------------------------------------------------------------- block sizes

def _screened_blocks(monkeypatch, grid, tail, count):
    """Screen ``count`` copies of z^-1 with ``tail`` zero coefficients (each
    holds): the screen's outcome, and per ``eval_circles`` call the rows it
    got and how many candidates had been drawn from the stream by then."""
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
    (miss, worst, witness), calls, drawn = _screened_blocks(monkeypatch, grid, tail, 3 * rows)
    if circles:
        assert miss is None and np.isfinite(worst) and witness is not None
        assert calls == [(2 * rows, rows), (2 * rows, 2 * rows), (2 * rows, 3 * rows)]
    else:  # nothing to evaluate: the first candidate is the caller's to re-run
        assert miss[0] == 0 and calls == [] and drawn == rows


def test_trial_memory_does_not_grow_with_the_trial_count():
    """A long series on a one-circle grid: eight times the trials leave the
    traced peak of a run where it was, about a block's few arrays."""
    op, cp, f = _member(1, 0, 4095)
    grid = SampleGrid((0.5,), 8)
    peaks = []
    for trials in (8, 64):
        tracemalloc.start()
        rep = verify_inclusion_general(op, cp, f, 0.002 / phi(op, 1), 8, trials, grid, 0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert rep.verdict == "holds"
    assert peaks[1] < peaks[0] + 64 * 1024
    assert peaks[1] < 16 * 256 * 1024


def test_default_scale_trial_memory_peak():
    """tracemalloc's peak of a default-scale call (K = 63 on the 5x720 grid, 8 + 32
    trials in 2-row blocks) was 652 KiB while the numeric form allocated five
    full-size temporaries; with reused buffers and the FFT's M bins per circle
    it is about 619.5 KiB, and must stay below 640 KiB."""
    op, cp, f = _member(1, 0)
    args = (op, cp, f, 0.002 / phi(op, 1), 8, 32, None, 0)
    verify_inclusion_general(*args)  # first-call allocations are not the trials' own
    tracemalloc.start()
    rep = verify_inclusion_general(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rep.verdict == "holds"
    assert peak < 640 * 1024


def test_dense_grid_run_evaluates_one_row_at_a_time(monkeypatch):
    """On a 20x4096 grid each eps sample and each trial is its own block: one
    eval_circles call of its F and zF' rows."""
    sizes = []
    evaluate = membership.eval_circles

    def spy(rows, *args):
        sizes.append(len(rows.lead))
        return evaluate(rows, *args)

    monkeypatch.setattr(membership, "eval_circles", spy)
    op, cp, f = _member(1, 0)
    grid = SampleGrid(tuple(float(r) for r in np.linspace(0.1, 0.9, 20)), 4096)
    rep = neighborhoods.verify_inclusion_general(op, cp, f, 0.002 / phi(op, 1), 2, 3, grid, 0)
    assert rep.verdict == "holds"
    assert sizes == [2] * 5


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
