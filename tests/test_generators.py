"""Constructive members: boundary-measure and disk-self-map generators,
one-term extremal functions, neighborhood sharpness witnesses."""
import tracemalloc

import numpy as np
import pytest

from merokit.generators import (
    MeasureAtoms,
    SchwarzPoly,
    extremal_fn,
    from_herglotz,
    from_schwarz,
    neighborhood_witnesses,
    ratio_extremal,
    _block_count,
    _recurrence,
    _schwarz_points,
)
from merokit.membership import (
    ClassParams,
    budget,
    criterion_weight,
    exact_membership_plus,
    numeric_membership,
)
from merokit.neighborhoods import WeightSeq, distance
from merokit.operator import OperatorParams, apply_coeff, phi
from merokit.series import LaurentSeries, SampleGrid, eval_many, z_derivative
from taylor_reference import (
    herglotz_convolved,
    herglotz_taylor,
    recurrence_loop,
    recurrence_mp,
    schwarz_rows,
    schwarz_taylor,
)

M0 = OperatorParams(0.0, 0.0, 0, 1)
OP1 = OperatorParams(1.0, 0.0, 1, 1)


# ------------------------------------------------------------------ measures

def test_atoms_validation():
    with pytest.raises(ValueError, match="atoms"):
        MeasureAtoms(())
    with pytest.raises(ValueError, match=r"atoms\[0\].x"):
        MeasureAtoms(((0.5 + 0.0j, 1.0),))
    with pytest.raises(ValueError, match=r"atoms\[1\].w"):
        MeasureAtoms(((1.0 + 0.0j, 1.5), (-1.0 + 0.0j, -0.5)))
    with pytest.raises(ValueError, match="sum to 1"):
        MeasureAtoms(((1.0 + 0.0j, 0.7),))


def test_atoms_snap_to_circle_and_roundtrip():
    x = (1.0 + 1e-10) * np.exp(0.4j)
    atoms = MeasureAtoms(((complex(x), 1.0),))
    assert abs(abs(atoms.atoms[0][0]) - 1.0) < 1e-15
    again = MeasureAtoms.from_json_dict(atoms.to_json_dict())
    assert again.atoms == atoms.atoms


# ------------------------------------------------------------- disk self-maps

def test_schwarz_rejects_boundary_violation():
    with pytest.raises(ValueError, match="disk self-map"):
        SchwarzPoly((0.8, 0.4))


@pytest.mark.parametrize("coeffs", [(1e308, 1e308), (1e308 + 1e308j,) * 2, (1e308 + 1e308j,) * 5])
def test_schwarz_refuses_an_overflowing_boundary(coeffs):
    """Boundary values that overflow, to inf or (textbook inf - inf) to NaN, are
    not a certificate: refused, with no numpy warning from the Cauchy sum."""
    with pytest.raises(ValueError, match=r"sampled max \|w\| = (inf|nan), not below 1"):
        SchwarzPoly(coeffs)


def test_schwarz_boundary_points_are_shared_and_read_only():
    points = _schwarz_points()
    assert _schwarz_points() is points and not points.flags.writeable
    assert points.tobytes() == SampleGrid((0.999,), 4096).points().tobytes()


def test_schwarz_certificate_fields():
    w = SchwarzPoly((0.5, 0.3))
    cert = w.certificate()
    assert cert["cauchy_bound_ok"] is True
    assert cert["boundary_max"] < 1.0
    assert cert["boundary_samples"] == 4096
    again = SchwarzPoly.from_json_dict(w.to_json_dict())
    assert again.coeffs == w.coeffs


@pytest.mark.parametrize(
    "coeffs",
    [(0.5,), (0.5, 0.3), (0.2 - 0.1j, 0.3j, -0.25, 0.1 + 0.05j), (0.0, 0.0, 0.9)],
)
def test_schwarz_eval_matches_nested_horner_bitwise(coeffs):
    """w = z*(c_1 + z*(c_2 + ...)) on Python complex scalars, whose product is the
    textbook (ar*xr - ai*xi, ar*xi + ai*xr) that ``polyval`` rounds as on every
    route.  ``eval_many`` ends by adding c_0 = 0, so a zero part is +0.0: the
    reference adds 0j too."""
    def nested(zs):
        vals = []
        for x in zs.tolist():
            acc = 0j
            for c in reversed(coeffs):
                acc = (acc + c) * x
            vals.append(acc + 0j)
        return np.array(vals)

    w = SchwarzPoly(coeffs)
    rng = np.random.default_rng(11)
    zs = 0.999 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    inner = rng.uniform(0.0, 0.99, 256) * np.exp(2j * np.pi * rng.uniform(size=256))
    for pts in (zs, inner):
        assert w.eval_many(pts).tobytes() == nested(pts).tobytes()
    assert w.boundary_max == float(np.max(np.abs(nested(zs))))


# ------------------------------------------------------ boundary-measure route

def test_herglotz_single_atom_identity_operator():
    """x = 1, alpha = 1/2, identity operator: exactly z^-1 - 1."""
    atoms = MeasureAtoms(((1.0 + 0.0j, 1.0),))
    f = from_herglotz(M0, 0.5, atoms, trunc_order=8)
    assert f.is_normalized
    assert abs(f.coeff(0) + 1.0) < 1e-12
    others = [f.coeff(k) for k in range(1, 9)]
    assert max(abs(c) for c in others) < 1e-12


def test_herglotz_single_atom_nontrivial_operator():
    """Same target, operator inverted: tail coefficient divides by phi."""
    atoms = MeasureAtoms(((1.0 + 0.0j, 1.0),))
    f = from_herglotz(OP1, 0.5, atoms, trunc_order=4)
    assert abs(f.coeff(0) + 1.0 / phi(OP1, 0)) < 1e-12


def test_herglotz_two_symmetric_atoms():
    """x = +-1 with weight 1/2, alpha = 0: target (1 - z^2), f = z^-1 - z."""
    atoms = MeasureAtoms(((1.0 + 0.0j, 0.5), (-1.0 + 0.0j, 0.5)))
    f = from_herglotz(M0, 0.0, atoms, trunc_order=6)
    assert abs(f.coeff(1) + 1.0) < 1e-12
    for k in (0, 2, 3, 4, 5, 6):
        assert abs(f.coeff(k)) < 1e-12


def test_herglotz_alpha_near_one_degenerates_to_pole():
    atoms = MeasureAtoms(((1.0 + 0.0j, 1.0),))
    f = from_herglotz(M0, 1.0 - 1e-9, atoms, trunc_order=16)
    assert np.max(np.abs(f.coeffs)) < 1e-7


def test_herglotz_members_pass_numeric_check():
    atoms = MeasureAtoms(((np.exp(0.7j), 0.3), (np.exp(-1.2j), 0.7),))
    cp = ClassParams(0.25, 1.0)
    f = from_herglotz(OP1, cp.alpha, atoms)
    rep = numeric_membership(OP1, cp, f, SampleGrid(radii=(0.3, 0.7), angles_count=64))
    assert rep.verdict == "holds"


def test_herglotz_trunc_validation():
    atoms = MeasureAtoms(((1.0 + 0.0j, 1.0),))
    with pytest.raises(ValueError, match="alpha"):
        from_herglotz(M0, 1.0, atoms)
    with pytest.raises(ValueError, match="trunc_order"):
        from_herglotz(M0, 0.5, atoms, trunc_order=-1)


# ------------------------------------------------------- disk-self-map route

def test_schwarz_zero_map_gives_pole():
    f = from_schwarz(M0, ClassParams(0.3, 0.7), SchwarzPoly(()), trunc_order=5)
    assert np.all(f.coeffs == 0) and f.exact_support


def test_schwarz_linear_map_matches_herglotz_atom():
    """w(z) = z at beta = 1 is the single-atom boundary measure at x = 1."""
    cp = ClassParams(0.35, 1.0)
    atoms = MeasureAtoms(((1.0 + 0.0j, 1.0),))
    a = from_herglotz(OP1, cp.alpha, atoms, trunc_order=24)
    b = from_schwarz(OP1, cp, SchwarzPoly((1.0 - 1e-12,)), trunc_order=24)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-8


def test_schwarz_member_satisfies_defining_quotient():
    """z F'/(p F) must equal -1 - 2(1-alpha) beta w/(1 - beta w)."""
    op = OperatorParams(1.0, 0.0, 1, 1)
    cp = ClassParams(0.3, 0.5)
    w = SchwarzPoly((0.5,))
    f = from_schwarz(op, cp, w)
    F = apply_coeff(op, f)
    zs = 0.5 * np.exp(2j * np.pi * np.arange(12) / 12)
    q = eval_many(z_derivative(F), zs) / (op.p * eval_many(F, zs))
    wv = w.eval_many(zs)
    target = -1.0 - 2.0 * (1.0 - cp.alpha) * cp.beta * wv / (1.0 - cp.beta * wv)
    assert np.max(np.abs(q - target)) < 1e-8


def test_schwarz_members_pass_numeric_check():
    cp = ClassParams(0.1, 0.6)
    f = from_schwarz(OP1, cp, SchwarzPoly((0.3, 0.2j)))
    rep = numeric_membership(OP1, cp, f, SampleGrid(radii=(0.4, 0.8), angles_count=64))
    assert rep.verdict == "holds"


def test_schwarz_uses_the_last_coefficient_of_w():
    """deg w = K + p: the z^{K+p} term of w reaches a_K.  With w = 0.1 (z + z^2
    + z^3 + z^4), alpha = 1/2 and beta = 1, z F = exp(-int w/(t(1 - w)) dt)
    has the Taylor coefficients 1, -0.1, -0.05, -0.035, -0.028."""
    f = from_schwarz(M0, ClassParams(0.5, 1.0), SchwarzPoly((0.1,) * 4), trunc_order=3)
    assert np.allclose(f.coeffs, [-0.1, -0.05, -0.035, -0.028], rtol=0, atol=1e-15)


def test_exact_polynomial_targets_are_exact():
    """Polynomial targets come out bit for bit: x = +-1 with weight 1/2 and
    alpha = 0 give z F = 1 - z^2, and w = z/2 with beta = 1, alpha = 0 gives
    z F = (1 - z/2)^2, where h_n = h_{n-1} (n - 3) / (2n) is exactly 0 from n = 3."""
    want = LaurentSeries.pole_only(1, 6).with_coeff(1, -1.0)
    f = from_herglotz(M0, 0.0, MeasureAtoms(((1.0 + 0.0j, 0.5), (-1.0 + 0.0j, 0.5))), 6)
    assert f.coeffs.tobytes() == want.coeffs.tobytes()
    g = from_schwarz(M0, ClassParams(0.0, 1.0), SchwarzPoly((0.5,)), trunc_order=6)
    assert g.coeffs.tolist() == [-1.0, 0.25, 0, 0, 0, 0, 0]


def _random_atoms(rng):
    n = int(rng.integers(1, 6))
    if rng.uniform() < 0.4:  # a cluster of atoms 1e-3 rad apart
        angles = rng.uniform(-np.pi, np.pi) + 1e-3 * np.arange(n)
    else:
        angles = rng.uniform(-np.pi, np.pi, size=n)
    w = rng.dirichlet(np.ones(n))
    w[-1] = 1.0 - float(np.sum(w[:-1]))
    return MeasureAtoms(tuple((complex(np.exp(1j * t)), float(x)) for t, x in zip(angles, w)))


def _random_schwarz(rng):
    d = int(rng.integers(1, 7))
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    c *= float(rng.uniform(0.05, 0.9999)) / float(np.sum(np.abs(c)))
    return SchwarzPoly(tuple(complex(x) for x in c))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("K", [63, 1023])
def test_generators_match_log_exp_reference(p, K):
    """Both closed-form recurrences agree with the log/exp route within
    1e-12 of the largest coefficient (identity operator: f's tail is h)."""
    rng = np.random.default_rng(1000 * p + K)
    op = OperatorParams(0.0, 0.0, 0, p)
    for _ in range(4):
        alpha = float(rng.uniform(0.0, 0.99))
        atoms = _random_atoms(rng)
        want = herglotz_taylor(p, alpha, atoms.atoms, K + p)[1:]
        got = from_herglotz(op, alpha, atoms, K).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        cp = ClassParams(alpha, float(rng.uniform(0.05, 1.0)))
        w = _random_schwarz(rng)
        want = schwarz_taylor(p, cp.alpha, cp.beta, w.coeffs, K + p)[1:]
        got = from_schwarz(op, cp, w, K).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_exact_polynomial_targets_stay_exact_in_blocks():
    """At K = 1023 the recurrence of w = z/2 runs in 32 blocks; z F = (1 - z/2)^2
    still comes out exactly: every block past n = 3 starts from a zero window."""
    assert _block_count(1024, 1) == 32
    g = from_schwarz(M0, ClassParams(0.0, 1.0), SchwarzPoly((0.5,)), trunc_order=1023)
    assert g.coeffs[:2].tolist() == [-1.0, 0.25] and not np.any(g.coeffs[2:])


@pytest.mark.parametrize("seed", range(12))
def test_herglotz_product_keeps_the_bits_of_its_convolution_with_one(seed):
    """Starting the product from the first factor of nonzero weight, not from a
    convolution of it with [1, 0, ...], leaves every bit, negative zeros too:
    atoms at +-1 and +-i with weights that make c w an integer give exact zeros."""
    rng = np.random.default_rng([7, seed])
    p, K = int(rng.integers(1, 4)), int(rng.choice([0, 5, 63, 1023]))
    alpha = float(rng.choice([0.0, 0.5, rng.uniform(0.0, 0.99)]))
    zero_first = seed % 3 == 0  # an atom of zero weight first: the product starts from the next
    xs = [complex(rng.choice([1, -1, 1j, -1j])) if rng.random() < 0.5 else complex(np.exp(2j * np.pi * rng.random()))
          for _ in range(int(rng.integers(1 + zero_first, 4)))]
    w = np.full(len(xs), 1.0 / len(xs)) if seed % 2 else rng.dirichlet(np.ones(len(xs)))
    if zero_first:
        w[0] = 0.0
        w /= w.sum()
    w[-1] = 1.0 - float(np.sum(w[:-1]))
    atoms = MeasureAtoms(tuple(zip(xs, map(float, w))))
    op = OperatorParams(0.0, 0.0, 0, p)
    want = herglotz_convolved(p, alpha, atoms.atoms, K + p)[1:]
    assert from_herglotz(op, alpha, atoms, K).coeffs.tobytes() == want.tobytes()


# ------------------------------------------------------- blocked recurrence

#: deg w and the order N = K + p of the recurrence, with N = 1000 not a multiple
#: of its block count, and deg w beyond N where w is cut to N terms
DEGREES = [1, 2, 3, 5, 8, 16, 64, 300]
ORDERS = [1, 2, 64, 1000, 1024, 1025]


def _rows(deg, N, seed):
    """Seeded ``from_schwarz`` rows: w of degree ``deg`` with sum |c_i| < 1."""
    rng = np.random.default_rng([deg, N, seed])
    c = rng.normal(size=deg) + 1j * rng.normal(size=deg)
    c *= float(rng.uniform(0.05, 0.9999)) / float(np.sum(np.abs(c)))
    p, alpha, beta = int(rng.integers(1, 4)), float(rng.uniform(0.0, 0.99)), float(rng.uniform(0.05, 1.0))
    return (p, alpha, beta, c), schwarz_rows(p, alpha, beta, c, N)


def test_block_count():
    """min(isqrt(N), N // d^2), where it is at least 3 and d <= 24; else 1."""
    assert [_block_count(1024, d) for d in (1, 3, 5, 8, 16, 18, 19, 24, 64, 300)] == [
        32, 32, 32, 16, 4, 3, 1, 1, 1, 1]
    assert [_block_count(N, 1) for N in (1, 2, 8, 9, 1000, 1025)] == [1, 1, 1, 3, 31, 32]
    assert _block_count(4096 * 12, 24) == 85 and _block_count(4096 * 12, 25) == 1


@pytest.mark.parametrize("N", ORDERS)
@pytest.mark.parametrize("deg", DEGREES)
def test_recurrence_against_the_loop_and_the_log_exp_route(deg, N):
    """Where blocks do not run, the recurrence is the term-by-term loop bit for
    bit.  Everywhere it agrees with the log/exp route within 1e-12 of the
    largest coefficient."""
    (p, alpha, beta, c), rows = _rows(deg, N, 0)
    assert rows.shape == (N, min(deg, N))
    got = _recurrence(rows)
    if _block_count(*rows.shape) == 1:
        assert got.tobytes() == recurrence_loop(rows).tobytes()
    want = schwarz_taylor(p, alpha, beta, c, N)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "deg, N", [(deg, N) for deg in DEGREES for N in ORDERS if _block_count(N, min(deg, N)) > 1]
)
def test_blocked_recurrence_against_mpmath(deg, N):
    """Where blocks run, every h_n is within 1e-13 |h_n| of the same recurrence
    in 40-digit arithmetic on the same rows (1e-300 absolute, below which h_n
    underflows), as the loop's are."""
    _, rows = _rows(deg, N, 1)
    want = np.array([complex(x) for x in recurrence_mp(rows)])
    for got in (_recurrence(rows), recurrence_loop(rows)):
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-300)


def test_from_schwarz_memory_is_a_small_multiple_of_its_rows():
    """deg w = 300 at K = 1023: the 1024 x 300 rows are 4.9 MB, and the peak of
    the whole construction stays within three times that (about twice, measured)."""
    (_, _, _, c), rows = _rows(300, 1024, 2)
    w = SchwarzPoly(tuple(complex(x) for x in c))
    tracemalloc.start()
    try:
        from_schwarz(M0, ClassParams(0.3, 0.7), w, 1023)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * rows.nbytes


# ------------------------------------------------------------------ extremals

def test_extremal_frozen_value():
    cp = ClassParams(0.5, 1.0)
    f = extremal_fn(M0, cp, 1)
    assert abs(f.coeff(1) - 1.0 / 3.0) < 1e-15
    assert f.exact_support
    rep = exact_membership_plus(M0, cp, f)
    assert rep.verdict == "holds" and abs(rep.worst_margin) <= 1e-12


def test_extremal_rejects_degenerate_weight():
    with pytest.raises(ValueError, match="degenerate"):
        extremal_fn(M0, ClassParams(0.0, 1.0), 0)  # weight 0 at k = 0
    with pytest.raises(ValueError, match="n"):
        extremal_fn(M0, ClassParams(0.5, 1.0), -1)


def test_ratio_extremal_frozen_value():
    cp = ClassParams(0.5, 1.0)
    f = ratio_extremal(OP1, cp, 1)
    # theta_1 = weight/budget = 9; coefficient is -1/9
    assert abs(f.coeff(1) + 1.0 / 9.0) < 1e-15
    g = ratio_extremal(OP1, cp, 1, trunc_order=5)
    assert g.trunc_order == 5 and abs(g.coeff(1) + 1.0 / 9.0) < 1e-15
    with pytest.raises(ValueError, match="m_cut"):
        ratio_extremal(OP1, cp, -1)


# ------------------------------------------------------- sharpness witnesses

def test_neighborhood_witness_pair():
    op = OperatorParams(1.0, 0.0, 1, 1)  # inclusion radius 1/2
    cp = ClassParams(0.5, 1.0)
    d_star = 0.6
    f, g = neighborhood_witnesses(op, cp, d_star)
    seq = WeightSeq("plus", op, cp)
    assert distance(seq, f, g) == pytest.approx(d_star, rel=1e-12)
    assert exact_membership_plus(op, cp, f).verdict == "holds"
    assert exact_membership_plus(op, cp, g).verdict == "fails"


def test_neighborhood_witness_needs_room():
    op = OperatorParams(1.0, 0.0, 1, 1)
    with pytest.raises(ValueError, match="delta_star"):
        neighborhood_witnesses(op, ClassParams(0.5, 1.0), 0.4)
