"""Series arithmetic: construction, truncation discipline, evaluation."""
import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
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
    _radius_powers,
    polyval,
    scale,
    z_derivative,
)
import fold_reference
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


@pytest.mark.parametrize("z", [complex("nan"), complex("nan+0.5j"), complex(0.5, float("nan")), complex("inf"),
                               complex(0.0, float("-inf"))])
def test_eval_refuses_non_finite_points(z):
    """|z| of a NaN point is NaN, which is no more below 1 than |inf| is."""
    f = LaurentSeries.pole_only(1, 3)
    message = re.escape(f"z: evaluation requires |z| < 1, got {z}")
    with pytest.raises(ValueError, match=message):
        eval_at(f, z)
    with pytest.raises(ValueError, match=message):
        eval_many(f, [0.5, z])


def test_polyval_is_horner():
    z = np.array([0.5 + 0.25j, -0.3j])
    got = polyval([1.0, 2.0, 3.0], z)
    assert np.array_equal(got, [(3.0 * x + 2.0) * x + 1.0 for x in z.tolist()])  # the same rounding, bit for bit
    assert np.allclose(got, 1 + 2 * z + 3 * z * z, atol=1e-14)


def _horner_reference(c, x):
    """acc = acc * x + a on Python complex, the rounding ``polyval`` defines."""
    acc = 0j
    for a in reversed(c):
        acc = acc * x + a
    return acc


_SPECIAL = [0.0, -0.0, 0.5, -2.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
_SPECIALS = np.array([complex(a, b) for a in _SPECIAL for b in _SPECIAL])  # 81 values


def test_polyval_routes_round_as_python_complex_horner():
    """Both routes, Python scalars (<= 32 points) and numpy float64 (more), give the
    reference's bits: a 1-D c at 81 points and alone at each, and 81-row blocks and
    their 32-row heads, with signed zeros, infinities and NaNs among the inputs and
    the points, and no RuntimeWarning."""
    rng = np.random.default_rng(23)
    order = rng.permutation(_SPECIALS.size)
    one = np.concatenate((_SPECIALS[order[:7]], [0.25 - 0.5j, -0.0, 3.0j]))
    block = _SPECIALS[(np.arange(81)[:, None] * 7 + np.arange(5) * 3) % 81]
    for zs in (_SPECIALS, _SPECIALS[order], 0.9 * np.exp(2j * np.pi * rng.uniform(size=81))):
        want = np.array([_horner_reference(one.tolist(), x) for x in zs.tolist()])
        assert polyval(one, zs).tobytes() == want.tobytes()
        assert all(polyval(one, zs[i : i + 1]).tobytes() == want[i : i + 1].tobytes() for i in range(81))
        want = np.array([_horner_reference(row, x) for row, x in zip(block.tolist(), zs.tolist())])
        assert polyval(block, zs).tobytes() == want.tobytes()
        assert polyval(block[:32], zs[:32]).tobytes() == want[:32].tobytes()


def test_polyval_overflow_is_textbook_on_both_routes():
    """(1e308 + 1e308j)^2 by the textbook product is (inf - inf) + (inf)j = nan + inf j,
    where a fused multiply-add gives -inf + inf j: the same on both routes, and not
    finite, so every caller's refusal of a non-finite value applies."""
    x = complex(1e308, 1e308)
    for points in (1, 33):
        got = polyval([0.0, 0.0, 1.0], np.full(points, x))
        assert np.isnan(got.real).all() and (got.imag == np.inf).all()
        assert got.tobytes() == np.array([_horner_reference([0.0, 0.0, 1.0], x)] * points).tobytes()


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


def _fold_case(rng, p, m, n):
    """Seeded SeriesRows of 1..4 rows with n stored terms, signed zeros in some
    parts and, in some draws, infinite and NaN terms, on 1..3 circles of m angles."""
    rows = int(rng.integers(1, 5))
    tails = (rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))) * rng.uniform(0.1, 10.0)
    u = rng.uniform(size=tails.shape)
    tails.real[u < 0.2] = -0.0
    tails.imag[(u > 0.1) & (u < 0.25)] = -0.0
    if rng.uniform() < 0.25:
        tails.real[u > 0.999] = np.inf
        tails.imag[(u > 0.998) & (u <= 0.999)] = -np.inf
        tails.real[(u > 0.997) & (u <= 0.998)] = np.nan
    leads = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    if rng.uniform() < 0.3:
        leads.real[:] = -0.0
    radii = np.sort(rng.uniform(0.01, 0.999, size=int(rng.integers(1, 4))))
    return SeriesRows(p, leads, tails), SampleGrid(tuple(float(r) for r in radii), m)


def test_eval_circles_bitwise_as_the_zero_filled_fold():
    """M bins per circle, filled in increasing k, give the bits of the zero-filled
    fold (the terms placed in whole blocks of M bins from the pole at bin M - p,
    the blocks summed) for every p in 1..8 and M in 2..40: series shorter than
    M, and folds of hundreds of blocks.  NaN values are compared as NaN, since
    their sign and payload bits carry nothing."""
    rng = np.random.default_rng(20261019)
    for p in range(1, 9):
        for m in range(2, 41):
            for n in (int(rng.integers(1, 2 * m)), int(rng.integers(100 * m, 300 * m))):
                rows, grid = _fold_case(rng, p, m, n)
                got = eval_circles(rows, grid).view(np.float64)
                want = fold_reference.eval_circles(rows, grid).view(np.float64)
                assert np.array_equal(np.isnan(got), np.isnan(want))
                real = ~np.isnan(got)
                assert got[real].tobytes() == want[real].tobytes()


def test_eval_circles_at_one_angle_within_the_sum_rounding():
    """At M = 1 the one bin is the sum of all n terms: added in k order here,
    pairwise in the fold.  Both lie within n units of rounding of the sum of
    the terms' moduli."""
    rng = np.random.default_rng(20261019)
    for p in range(1, 9):
        for n in (1, 7, 300, 3000):
            rows, grid = _fold_case(rng, p, 1, n)
            moduli = np.abs(np.concatenate((rows.lead[:, None], rows.coeffs), axis=1))[:, None, :]
            with np.errstate(invalid="ignore"):  # an infinite term at an underflowed r^k
                scale = (moduli * np.asarray(grid.radii)[:, None] ** np.arange(-p, n + 1 - p)).sum(axis=-1)
            got = eval_circles(rows, grid)
            want = fold_reference.eval_circles(rows, grid)
            finite = np.isfinite(scale.ravel())
            bound = 2.0 * (n + 1) * 2.0**-53 * scale.ravel()[finite]
            assert np.all(np.abs(got.ravel() - want.ravel())[finite] <= bound)


#: the radii of the grids in these tests, the benchmark's dense grid and the ratio
#: cap, and two tiny ones: at 1e-200, r^-2 overflows and r^2 underflows; at the least
#: subnormal, 1/r overflows
POWER_RADII = sorted({
    *np.linspace(0.1, 0.9, 20).tolist(), 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999,
    1e-200, 5e-324,
})


def _exact_powers(r: float, p: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """r^k for k = -p .. top in 40-digit mpmath, as the nearest float and the float nearest
    the rest, each in the float range (inf or 0 beyond it)."""
    with mpmath.workdps(40):
        x, inv = mpmath.mpf(r), 1 / mpmath.mpf(r)
        powers = [mpmath.mpf(1)]
        for _ in range(p):
            powers.insert(0, powers[0] * inv)
        for _ in range(top):
            powers.append(powers[-1] * x)
        hi = [float(v) for v in powers]
        return np.array(hi), np.array([float(v - h) if math.isfinite(h) else 0.0 for v, h in zip(powers, hi)])


def test_radius_powers_are_correctly_rounded_against_mpmath():
    """``eval_circles``' r^k, k = -p..K, are a running product of r, each step's rounding
    corrected, and its reciprocals, so between 2^-900 and 2^900 each is the float nearest r^k
    (relative error at most u = 2^-53; one within about (k u)^2 of a midpoint between floats
    might round the other way, and none does here): checked against 40-digit mpmath at
    p = 8, K = 4096.  Below 2^-900 the powers are the uncorrected running product: within
    gamma_n = n u / (1 - n u) of r^k, relative, n = k - 1 (Higham, 2nd ed., Lemma 3.1), the
    error taken as (r^k - hi) - lo from the nearest floats hi + lo to the exact power, which
    rounds it by at most 2^-52 of itself; below the normal range each step adds at most
    half the least subnormal, so r^k stays within gamma_n r^k + 2^-1075 / (1 - r), and r^2
    at r = 1e-200 is 0.  Past the float range an overflow is infinite.  No step warns.
    Every other p in 1..8 and K up to 4096 gives the same columns, bit for bit."""
    radii, p, top = np.array(POWER_RADII), 8, 4096
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _radius_powers(radii, p, p + top + 1)
        for q in range(1, p + 1):
            for k in (1 - q, 0, 1, 63, 1023, top):
                n = k + q + 1
                assert _radius_powers(radii, q, n).tobytes() == table[:, p - q : p - q + n].tobytes()
    u, tiny = 2.0**-53, np.finfo(float).tiny
    ks = np.arange(-p, top + 1)
    gamma = np.maximum(ks - 1, 0) * u / (1.0 - np.maximum(ks - 1, 0) * u) * (1.0 + 2.0**-52)
    corrected = 0
    for r, got in zip(POWER_RADII, table):
        hi, lo = _exact_powers(r, p, top)
        over = np.isinf(hi)
        assert np.all(np.isinf(got[over]))
        band = (hi >= 2.0**-900) & (hi <= 2.0**900)
        assert got[band].tobytes() == hi[band].tobytes(), r
        corrected += int(np.count_nonzero(band))
        normal = ~over & ~band & (hi >= tiny)
        assert np.all(ks[normal] > 0)
        err = np.abs((got[normal] - hi[normal]) - lo[normal]) / hi[normal]
        assert np.all(err <= gamma[normal]), r
        sub = ~over & ~band & ~normal
        # 2^-1075 / (1 - r) rounded up to whole subnormals, and one more for the underflow of
        # gamma_n r^k and of lo
        slack = (math.ceil(0.5 / (1.0 - r)) + 1) * 2.0**-1074
        assert np.all(got[sub] >= 0.0)
        assert np.all(np.abs((got[sub] - hi[sub]) - lo[sub]) <= gamma[sub] * hi[sub] + slack)
    assert corrected > table.size // 3  # a third of the table lies in the band
    # the plain running product is off by 1.1e-15 here, numpy's ** by 1.7e-17
    with mpmath.workdps(40):
        exact = mpmath.mpf(0.9) ** 1000
    assert float(abs(mpmath.mpf(float(table[POWER_RADII.index(0.9), p + 1000])) - exact) / exact) < 2.0**-53
    assert _radius_powers(np.array([1e-200]), 2, 5).tolist() == [[np.inf, 1e200, 1.0, 1e-200, 0.0]]


def test_eval_circles_at_tiny_radius_overflows_without_warning():
    """At r = 1e-200 a double pole overflows to infinity and the tail's powers go to 0, as
    values for the caller to refuse, with no RuntimeWarning."""
    f = L(2, 3, [1.0, 2.0, 0.0, -1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_circles(f, SampleGrid((1e-200, 0.5), 8))
    assert not np.any(np.isfinite(got[:8])) and np.all(np.isfinite(got[8:]))


#: ``eval_circles`` of the Herglotz and the Schwarz member's (F, zF') rows at p = 1 and 2,
#: K = 1023 on a 20x512 grid, as bytes; run in-process and in a subprocess
_GRID_VALUES = """
import numpy as np
from merokit.generators import MeasureAtoms, SchwarzPoly, from_herglotz, from_schwarz
from merokit.membership import ClassParams
from merokit.operator import OperatorParams, apply_coeff
from merokit.series import SampleGrid, SeriesRows, eval_circles, z_derivative


def grid_values():
    grid = SampleGrid(tuple(float(r) for r in np.linspace(0.1, 0.9, 20)), 512)
    atoms = MeasureAtoms(((complex(0.6, 0.8), 0.25), (-1j, 0.35), (complex(-0.8, 0.6), 0.4)))
    w = SchwarzPoly((0.2 - 0.1j, -0.15j, 0.1 + 0.05j))
    out = []
    for p in (1, 2):
        op = OperatorParams(0.8, 0.2, 1, p)
        for f in (from_herglotz(op, 0.3, atoms, 1023), from_schwarz(op, ClassParams(0.2, 0.6), w, 1023)):
            F = apply_coeff(op, f)
            out.append(eval_circles(SeriesRows.of((F, z_derivative(F))), grid).tobytes())
    return b"".join(out)
"""

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_grid_values_do_not_depend_on_cpu_dispatch():
    """Grid values are the same bytes with every CPU feature above numpy's baseline
    switched off (numpy's ``NPY_DISABLE_CPU_FEATURES``, read at import) as with them on."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    on = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    if not on:
        pytest.skip("no CPU feature above numpy's baseline is on here, so none can be switched off")
    scope = {}
    exec(_GRID_VALUES, scope)
    probe = _GRID_VALUES + (
        "\nimport sys\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        f"assert not any(__cpu_features__[name] for name in {on!r})\n"
        "sys.stdout.buffer.write(grid_values())\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
        "NPY_DISABLE_CPU_FEATURES": " ".join(on),
    }
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == scope["grid_values"]()


@st.composite
def row_block(draw):
    """1..6 or 33..40 series of one pole order p in {1, 2, 3} and K in [1-p, 300],
    each with its own lead, some coefficients exactly (signed) zero, up to three
    radii and 1..64 angles, so that the terms often fold (K + p + 1 > M).  A block
    of more than 32 rows takes ``polyval``'s numpy route, a single row its
    Python-scalar route."""
    p = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1 - p, max_value=300))
    rows = draw(st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=33, max_value=40)))
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
    """A cap selects the radii <= it: one equal to a radius keeps that radius, and a NaN
    cap, which no radius is <= and bisection would put past them all, selects none."""
    g = SampleGrid(radii=(0.2, 0.8), angles_count=4)
    assert g.points(radius_cap=0.5).size == 4
    assert g.points(radius_cap=0.1).size == 0
    assert g.capped_radii(0.8) == (0.2, 0.8) and g.points(radius_cap=0.8).size == 8
    assert g.capped_radii(0.2) == (0.2,) and g.powers(0.2, 1, 3).shape == (1, 3)
    assert g.capped_radii(float("nan")) == () and g.points(radius_cap=float("nan")).size == 0
    assert g.powers(float("nan"), 1, 3).shape == (0, 3) and g.capped_radii(None) == g.radii


def test_grid_points_are_built_once_as_the_direct_formula():
    """``points(cap)`` is a read-only view of points built once per grid, the bytes of
    r exp(2 pi i j / M) radii-major on the radii <= cap."""
    g = SampleGrid(radii=(0.2, 0.5, 0.8, 0.97), angles_count=12)
    ang = np.exp(2j * np.pi * np.arange(12) / 12)
    for cap, radii in ((None, g.radii), (0.95, g.radii[:3]), (0.6, g.radii[:2]), (0.1, ())):
        want = (np.asarray(radii)[:, None] * ang[None, :]).ravel()
        got = g.points(radius_cap=cap)
        assert got.dtype == np.complex128 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0
    full = g.points()
    assert g.points() is full
    assert np.shares_memory(g.points(radius_cap=0.6), full)
    dense = SampleGrid(radii=(0.2, 0.5), angles_count=12)
    assert dense.points(radius_cap=0.95) is dense.points()


def test_grid_powers_are_views_of_one_table_with_their_own_bits():
    """``powers(cap, p, n)`` has the bytes of ``_radius_powers`` on the radii <= cap, as a
    read-only view of one table per grid, rebuilt wider only when a call needs more powers."""
    g = SampleGrid(radii=(0.2, 0.5, 0.8, 0.97), angles_count=12)
    for cap, p, n in ((None, 1, 5), (0.95, 2, 4), (0.6, 1, 70), (None, 3, 6), (0.1, 2, 9), (0.95, 1, 5)):
        got = g.powers(cap, p, n)
        want = _radius_powers(np.array(g.capped_radii(cap)), p, n)
        assert got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert not got.flags.writeable
    before = g.powers(0.6, 1, 5)
    assert np.shares_memory(before, g.powers(None, 3, 72))  # within the table: no rebuild
    assert not np.shares_memory(before, g.powers(None, 4, 6))


def test_grid_tables_stay_out_of_equality_hash_digest_and_json():
    fresh = SampleGrid(radii=(0.1, 0.5), angles_count=12, margin=1e-8)
    used = SampleGrid(radii=(0.1, 0.5), angles_count=12, margin=1e-8)
    used.points()
    used.powers(None, 2, 9)
    used.digest()
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert used.digest() == fresh.digest()
    assert used.to_json_dict() == fresh.to_json_dict() == {"radii": [0.1, 0.5], "angles_count": 12, "margin": 1e-8}
    assert [field.name for field in dataclasses.fields(used)] == ["radii", "angles_count", "margin"]
    assert dataclasses.replace(used, margin=1e-9) == SampleGrid(radii=(0.1, 0.5), angles_count=12)


def test_a_dense_check_retains_no_per_point_table_but_the_points():
    """After a first check on a 20x4096 grid at K = 1024, the memory still allocated is the
    grid's points (1.25 MiB) and its r^k table (20 x 1026 floats, 160 KiB), and no per-point
    array besides: one of floats would be 0.625 MiB."""
    from merokit.membership import ClassParams, numeric_membership
    from merokit.operator import OperatorParams

    op, cp = OperatorParams(0.0, 0.0, 0, 1), ClassParams(0.3, 0.8)
    f = LaurentSeries.pole_only(1, 1024).with_coeff(1, 0.01)
    radii = tuple(float(r) for r in np.linspace(0.1, 0.9, 20))
    numeric_membership(op, cp, f, SampleGrid(radii, 4096, 1e-8))  # lazy module state, if any
    grid = SampleGrid(radii, 4096)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert numeric_membership(op, cp, f, grid).verdict == "holds"
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    points, powers = grid.points(), grid.powers(None, 1, 1026)
    assert points.nbytes == 20 * 4096 * 16 and powers.base.nbytes == 20 * 1026 * 8
    assert points.nbytes + powers.base.nbytes <= retained < points.nbytes + powers.base.nbytes + 64 * 1024


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
