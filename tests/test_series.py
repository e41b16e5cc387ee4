"""Series arithmetic: construction, truncation discipline, evaluation."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merokit.series import (
    LaurentSeries,
    SampleGrid,
    SeriesRows,
    add,
    default_grid,
    default_trunc_order,
    derivative,
    eval_at,
    eval_circles,
    eval_many,
    hadamard,
    polyval,
    scale,
    z_derivative,
)
from taylor_reference import log_one_minus, series_exp


def L(p, K, coeffs, lead=1.0, exact=False):
    return LaurentSeries(p, K, np.asarray(coeffs, dtype=complex), lead, exact)


# ---------------------------------------------------------------- construction

def test_coeff_count_is_enforced():
    with pytest.raises(ValueError, match="coeffs"):
        L(1, 2, [1.0])  # p=1, K=2 needs 3 entries (k = 0, 1, 2)


def test_pole_order_must_be_positive_int():
    with pytest.raises(ValueError, match="pole_order"):
        L(0, 2, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="trunc_order"):
        L(2, -3, [])


def test_pole_only_shape():
    f = LaurentSeries.pole_only(2)
    assert f.trunc_order == default_trunc_order(2)
    assert f.exact_support and f.is_normalized
    assert np.all(f.coeffs == 0)
    assert f.coeff(-2) == 1.0


def test_coeff_lookup_and_with_coeff():
    f = L(1, 2, [1.0, 2.0, 3.0])
    assert f.coeff(-1) == 1.0  # the lead
    assert f.coeff(0) == 1.0
    assert f.coeff(2) == 3.0
    with pytest.raises(IndexError):
        f.coeff(3)
    g = f.with_coeff(1, 9.0)
    assert g.coeff(1) == 9.0 and f.coeff(1) == 2.0


def test_coeffs_are_frozen():
    f = L(1, 0, [5.0])
    with pytest.raises(ValueError):
        f.coeffs[0] = 0.0


def test_renormalized():
    f = L(1, 0, [4.0], lead=2.0)
    g = f.renormalized()
    assert g.lead == 1.0 and g.coeff(0) == 2.0
    with pytest.raises(ValueError, match="lead"):
        L(1, 0, [1.0], lead=0.0).renormalized()


# ------------------------------------------------------------------ JSON wire

def test_json_roundtrip():
    f = L(2, 3, [1.0, 2.0 + 1.0j, 0.0, 0.5, 0.0], exact=True)
    g = LaurentSeries.from_json_dict(f.to_json_dict())
    assert g.pole_order == 2 and g.trunc_order == 3 and g.exact_support
    assert np.allclose(g.coeffs, f.coeffs)


def test_json_refuses_non_normalized():
    with pytest.raises(ValueError, match="lead"):
        L(1, 0, [1.0], lead=2.0).to_json_dict()


def test_json_errors_name_the_field():
    with pytest.raises(ValueError, match="series.trunc_order"):
        LaurentSeries.from_json_dict({"pole_order": 1, "coeffs": []})
    with pytest.raises(ValueError, match=r"series.coeffs\[1\]"):
        LaurentSeries.from_json_dict(
            {"pole_order": 1, "trunc_order": 1, "coeffs": [[0, 0], [1]]}
        )


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e400", pytest.param("-1" + "0" * 400, id="int-1e400")],
)
def test_json_refuses_non_finite_numbers(literal):
    doc = json.loads(f'{{"pole_order": 1, "trunc_order": 0, "coeffs": [[{literal}, 0]]}}')
    with pytest.raises(ValueError, match=r"series.coeffs\[0\]: expected a finite number"):
        LaurentSeries.from_json_dict(doc)
    with pytest.raises(ValueError, match="grid.margin"):
        SampleGrid.from_json_dict(json.loads(f'{{"margin": {literal}}}'))


# ----------------------------------------------------------------- arithmetic

def test_add_truncates_to_shorter():
    f = L(1, 3, [1.0, 1.0, 1.0, 1.0])
    g = L(1, 1, [2.0, 2.0])
    out = add(f, g)
    assert out.trunc_order == 1
    assert out.lead == 2.0 and not out.is_normalized
    assert np.allclose(out.coeffs, [3.0, 3.0])


def test_add_zero_pads_only_when_both_exact():
    f = L(1, 3, [1.0, 0.0, 0.0, 4.0], exact=True)
    g = L(1, 1, [2.0, 2.0], exact=True)
    out = add(f, g)
    assert out.trunc_order == 3
    assert out.coeff(3) == 4.0  # g's absent a_3 is a true zero


def test_add_rejects_pole_mismatch():
    with pytest.raises(ValueError, match="pole_order"):
        add(L(1, 0, [1.0]), L(2, 0, [1.0, 1.0]))


def test_scale_touches_lead_and_tail():
    f = scale(L(1, 1, [1.0, 5.0]), 2.0)
    assert f.lead == 2.0 and f.coeff(1) == 10.0


def test_hadamard_frozen_value():
    f = L(1, 1, [0.0, 2.0])
    g = L(1, 1, [0.0, 3.0])
    out = hadamard(f, g)
    assert out.lead == 1.0
    assert np.allclose(out.coeffs, [0.0, 6.0])


def test_derivative_frozen_value():
    # f = z^-1 + 2z + 3z^2, f' = -z^-2 + 2 + 6z
    f = L(1, 2, [0.0, 2.0, 3.0])
    df = derivative(f)
    assert df.pole_order == 2 and df.trunc_order == 1
    assert df.lead == -1.0
    assert df.coeff(0) == 2.0 and df.coeff(1) == 6.0


def test_derivative_matches_finite_difference():
    f = L(2, 3, [0.3, -0.1, 0.7, 0.2 + 0.1j, 0.05])
    z = 0.4 + 0.1j
    h = 1e-6
    fd = (eval_at(f, z + h) - eval_at(f, z - h)) / (2 * h)
    assert abs(eval_at(derivative(f), z) - fd) < 1e-5


def test_z_derivative_is_z_times_derivative():
    f = L(1, 3, [0.2, 0.5, 0.0, -0.3])
    z = 0.35 - 0.2j
    lhs = eval_at(z_derivative(f), z)
    rhs = z * eval_at(derivative(f), z)
    assert abs(lhs - rhs) < 1e-12
    assert z_derivative(f).pole_order == f.pole_order


# ------------------------------------------- Taylor helpers of the test reference

def test_series_exp_frozen():
    out = series_exp(np.array([0.0, 1.0, 0, 0, 0, 0], dtype=complex))
    assert out.dtype == np.complex128
    want = [1.0, 1.0, 0.5, 1 / 6, 1 / 24, 1 / 120]
    assert np.allclose(out, want, atol=1e-15)


def test_series_exp_needs_zero_constant():
    with pytest.raises(ValueError, match="constant term"):
        series_exp(np.array([1.0, 0.0]))


def test_log_one_minus_frozen():
    out = log_one_minus(1.0, 3)
    assert out.dtype == np.complex128
    assert np.allclose(out, [0.0, -1.0, -0.5, -1 / 3])


def test_exp_log_binomial():
    # exp(2 log(1 - z)) = (1 - z)^2
    out = series_exp(2.0 * log_one_minus(1.0, 5))
    assert np.allclose(out, [1.0, -2.0, 1.0, 0.0, 0.0, 0.0], atol=1e-14)


@given(
    x=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    c=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50, deadline=None)
def test_exp_log_roundtrip_matches_binomial(x, c):
    """exp(c log(1-xz)) has coefficients binom(c, n) (-x)^n."""
    order = 6
    out = series_exp(float(c) * log_one_minus(x, order))
    from math import comb

    want = [comb(c, n) * (-x) ** n if n <= c else 0.0 for n in range(order + 1)]
    assert np.allclose(out, want, atol=1e-10)


# ----------------------------------------------------------------- evaluation

def test_eval_pole_values():
    f = LaurentSeries.pole_only(1, 0)
    assert abs(eval_at(f, 0.5) - 2.0) < 1e-15
    g = f.with_coeff(0, -1.0)
    assert abs(eval_at(g, 0.5) - 1.0) < 1e-15


def test_eval_rejects_outside_disk():
    f = LaurentSeries.pole_only(1, 0)
    with pytest.raises(ValueError, match="z"):
        eval_at(f, 0.0)
    with pytest.raises(ValueError, match="z"):
        eval_at(f, 1.0)


def test_polyval_is_horner():
    z = np.array([0.5 + 0.25j, -0.3j])
    got = polyval([1.0, 2.0, 3.0], z)
    assert np.array_equal(got, (3.0 * z + 2.0) * z + 1.0)  # the same rounding, bit for bit
    assert np.allclose(got, 1 + 2 * z + 3 * z * z, atol=1e-14)


finite_c = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_series_pair(draw):
    p = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1 - p, max_value=4))
    n = k - (1 - p) + 1
    fc = draw(st.lists(finite_c, min_size=n, max_size=n))
    gc = draw(st.lists(finite_c, min_size=n, max_size=n))
    return L(p, k, fc), L(p, k, gc)


@given(pair=small_series_pair(), z=st.complex_numbers(min_magnitude=0.05, max_magnitude=0.6))
@settings(max_examples=60, deadline=None)
def test_eval_is_additive(pair, z):
    f, g = pair
    lhs = eval_at(add(f, g), z)
    rhs = eval_at(f, z) + eval_at(g, z)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs), abs(rhs))


@given(pair=small_series_pair(), c=finite_c, z=st.complex_numbers(min_magnitude=0.05, max_magnitude=0.6))
@settings(max_examples=60, deadline=None)
def test_eval_commutes_with_scale(pair, c, z):
    f, _ = pair
    lhs = eval_at(scale(f, c), z)
    rhs = c * eval_at(f, z)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


@st.composite
def circle_case(draw):
    """A series with p in {1, 2, 3} and K in [1-p, 300], up to three radii in
    (0, 1) and 1..64 angles, so that the terms often fold (K + p + 1 > M)."""
    p = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1 - p, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = k + p
    coeffs = (rng.normal(size=n) + 1j * rng.normal(size=n)) * rng.uniform(0.1, 10.0)
    lead = draw(finite_c.filter(lambda c: c != 0))
    radii = draw(
        st.lists(st.floats(min_value=1e-3, max_value=0.999), min_size=1, max_size=3, unique=True)
    )
    m = draw(st.integers(min_value=1, max_value=64))
    return L(p, k, coeffs, lead), tuple(sorted(radii)), m


@given(case=circle_case())
@settings(max_examples=150, deadline=None)
def test_eval_circles_matches_horner(case):
    f, radii, m = case
    grid = SampleGrid(radii, m)
    r = np.repeat(grid.radii, m)[:, None]  # the radius of each point, radii-major
    powers = np.arange(-f.pole_order, f.trunc_order + 1)
    for g in (f, z_derivative(f)):
        scale = (np.abs(np.concatenate(([g.lead], g.coeffs))) * r ** powers).sum(axis=1)
        got = eval_circles(g, grid)
        assert got.shape == (len(radii) * m,)
        # compared point by point with Horner at grid.points(): radii-major order
        assert np.all(np.abs(got - eval_many(g, grid.points())) <= 1e-13 * scale)


def test_eval_circles_frozen_values():
    # 1/z + z on |z| = 0.5 at 4 angles: 2.5, -1.5i, -2.5, 1.5i; M = 1 folds
    # both terms onto one bin, whose single value is f(0.5) = 2.5
    f = L(1, 1, [0.0, 1.0])
    assert np.allclose(eval_circles(f, SampleGrid((0.5,), 4)), [2.5, -1.5j, -2.5, 1.5j], atol=1e-15)
    assert eval_circles(f, SampleGrid((0.25, 0.5), 1)).tolist() == [4.25, 2.5]
    # the cap drops whole circles, as grid.points(radius_cap) does
    assert eval_circles(f, SampleGrid((0.25, 0.5), 1), radius_cap=0.3).tolist() == [4.25]
    assert eval_circles(f, SampleGrid((0.5,), 4), radius_cap=0.3).size == 0


@st.composite
def row_block(draw):
    """1..6 series of one pole order p in {1, 2, 3} and K in [1-p, 300], each
    with its own lead, some coefficients exactly (signed) zero, up to three
    radii and 1..64 angles, so that the terms often fold (K + p + 1 > M)."""
    p = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1 - p, max_value=300))
    rows = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = k + p
    tails = (rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))) * rng.uniform(0.1, 10.0)
    tails[rng.uniform(size=tails.shape) < 0.2] = -0.0
    leads = np.array([draw(finite_c.filter(lambda c: c != 0)) for _ in range(rows)])
    radii = draw(
        st.lists(st.floats(min_value=1e-3, max_value=0.999), min_size=1, max_size=3, unique=True)
    )
    m = draw(st.integers(min_value=1, max_value=64))
    return p, k, leads, tails, SampleGrid(tuple(sorted(radii)), m)


@given(block=row_block())
@settings(max_examples=150, deadline=None)
def test_row_blocks_evaluate_bitwise_as_single_rows(block):
    """A row of a block gets the bits its own series gets alone: on the grid
    circles (FFT), and by Horner at one point per row."""
    p, k, leads, tails, grid = block
    cap = grid.radii[-1] if len(grid.radii) == 1 else grid.radii[-2]  # drops the outer circle, if two or more
    block = SeriesRows(p, leads, tails)
    on_circles = eval_circles(block, grid, cap)
    points = grid.points(radius_cap=cap)
    at = points[np.arange(len(leads)) * 7 % points.size]
    horner = polyval(tails, at)
    by_rows = eval_many(block, at)
    for i, (lead, tail) in enumerate(zip(leads, tails)):
        f = L(p, k, tail, lead)
        assert on_circles[i].tobytes() == eval_circles(f, grid, cap).tobytes()
        assert horner[i].tobytes() == polyval(tail, at[i : i + 1]).tobytes()
        assert by_rows[i].tobytes() == eval_many(f, at[i : i + 1]).tobytes()


@given(block=row_block())
@settings(max_examples=50, deadline=None)
def test_series_rows_evaluate_as_each_series(block):
    """``eval_many`` of series stacked by ``SeriesRows.of`` gives each row, at its
    own point, the bits ``eval_many`` gives that series alone."""
    p, k, leads, tails, grid = block
    series = [L(p, k, tail, lead) for lead, tail in zip(leads, tails)]
    points = grid.points()
    at = points[np.arange(len(series)) * 5 % points.size]
    stacked = eval_many(SeriesRows.of(series), at)
    assert stacked.tobytes() == np.concatenate([eval_many(f, at[i : i + 1]) for i, f in enumerate(series)]).tobytes()


def test_series_rows_refuse_points_outside_the_punctured_disk():
    rows = SeriesRows.of([L(1, 1, [1.0, 2.0]), L(1, 1, [0.5, 0.0], -1.0)])
    for bad, message in ((0.0, r"at z = 0"), (1.0, r"requires \|z\| < 1")):
        with pytest.raises(ValueError, match=message):
            eval_many(rows, np.array([0.5, bad]))


# ----------------------------------------------------------------- sample grid

def test_default_grid_shape_and_digest():
    g = default_grid()
    assert g.points().size == 5 * 720
    assert g.digest() == "291f11565520"  # pinned: config hash, not data hash


def test_grid_points_frozen():
    g = SampleGrid(radii=(0.2, 0.8), angles_count=4)
    pts = g.points()
    want = [0.2, 0.2j, -0.2, -0.2j, 0.8, 0.8j, -0.8, -0.8j]
    assert np.allclose(pts, want, atol=1e-15)
    assert g.digest() == "8635b5709c13"


def test_grid_radius_cap_filters():
    g = SampleGrid(radii=(0.2, 0.8), angles_count=4)
    assert g.points(radius_cap=0.5).size == 4
    assert g.points(radius_cap=0.1).size == 0


def test_grid_validation():
    with pytest.raises(ValueError, match="radii"):
        SampleGrid(radii=(0.8, 0.2))
    with pytest.raises(ValueError, match="radii"):
        SampleGrid(radii=(0.5, 1.0))
    with pytest.raises(ValueError, match="angles_count"):
        SampleGrid(angles_count=0)


def test_grid_json_roundtrip():
    g = SampleGrid(radii=(0.1, 0.5), angles_count=12, margin=1e-8)
    h = SampleGrid.from_json_dict(g.to_json_dict())
    assert h == g and h.digest() == g.digest()
