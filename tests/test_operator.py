"""Operator routes: diagonal multipliers, the two application routes,
inversion, the kernel realization and the averaging transform."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merokit.membership import ClassParams, exact_membership_plus
from merokit.operator import (
    OperatorParams,
    _phi_product,
    apply_coeff,
    apply_differential,
    integral_operator,
    invert,
    kernel_h,
    phi,
    phi_array,
    phi_base,
)
from merokit.series import LaurentSeries, hadamard


def L(p, K, coeffs, lead=1.0, exact=False):
    return LaurentSeries(p, K, np.asarray(coeffs, dtype=complex), lead, exact)


# ------------------------------------------------------------------ phi values

def test_phi_frozen_values():
    assert phi(OperatorParams(1.0, 0.0, 1, 1), 1) == 3.0
    assert phi(OperatorParams(0.5, 0.5, 1, 2), -1) == 1.5
    assert phi(OperatorParams(0.7, 0.3, 0, 1), 5) == 1.0  # m = 0 is the identity
    assert phi(OperatorParams(0.9, 0.4, 3, 2), -2) == 1.0  # pole index always 1


def test_phi_rejects_indices_below_range():
    op = OperatorParams(1.0, 0.0, 1, 1)
    with pytest.raises(ValueError, match="k"):
        phi(op, -2)
    with pytest.raises(ValueError, match="k"):
        phi_array(op, np.array([-3, 0, 1]))


def test_phi_array_overflow_is_an_error():
    # lambda = 1, mu = 0: phi_k = (k + 2)^m, and 2^2000 overflows a float
    op = OperatorParams(1.0, 0.0, 2000, 1)
    msg = r"phi: the multiplier at k=0 overflows a float \(m=2000\)"
    with pytest.raises(OverflowError, match=msg):
        phi_array(op, np.array([-1, 0, 1]))
    with pytest.raises(OverflowError, match=msg):
        phi(op, 0)
    with pytest.raises(OverflowError, match=msg):
        invert(op, L(1, 1, [0.0, 0.0]))
    # the pole multiplier is exactly 1 for any m
    assert phi_array(op, np.array([-1])).tolist() == [1.0]


def test_params_validation():
    with pytest.raises(ValueError, match="mu"):
        OperatorParams(0.3, 0.5, 1, 1)  # mu > lam
    with pytest.raises(ValueError, match="mu"):
        OperatorParams(1.0, -0.1, 1, 1)
    with pytest.raises(ValueError, match="m"):
        OperatorParams(1.0, 0.0, -1, 1)
    with pytest.raises(ValueError, match="p"):
        OperatorParams(1.0, 0.0, 1, 0)


def test_params_json_roundtrip():
    op = OperatorParams(0.8, 0.2, 3, 2)
    assert OperatorParams.from_json_dict(op.to_json_dict()) == op
    with pytest.raises(ValueError, match="params.lambda"):
        OperatorParams.from_json_dict({"mu": 0, "m": 1, "p": 1})


@given(
    lam=st.floats(min_value=0.0, max_value=1.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    m=st.integers(min_value=1, max_value=8),
    p=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=80, deadline=None)
def test_phi_is_mth_power_of_base(lam, frac, m, p, k):
    mu = lam * frac
    one = OperatorParams(lam, mu, 1, p)
    many = OperatorParams(lam, mu, m, p)
    k = max(k, 1 - p)
    assert phi(many, k) == pytest.approx(phi(one, k) ** m, rel=1e-12)


def test_phi_large_power_switch_agrees_with_loop():
    # a large power is still repeated multiplication; it matches a plain loop
    op = OperatorParams(0.3, 0.1, 20, 1)
    base = 1.0 + 2 * (0.3 - 0.1 + 3 * 0.3 * 0.1)
    prod = 1.0
    for _ in range(20):
        prod *= base
    assert phi(op, 1) == pytest.approx(prod, rel=1e-12)


@given(
    lam=st.floats(min_value=0.0, max_value=5.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    m=st.integers(min_value=0, max_value=1500),
    p=st.integers(min_value=1, max_value=3),
    top=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_phi_early_stop_is_bitwise_the_full_product(lam, frac, m, p, top):
    """The product stops once a step changes nothing; the result is the one
    all m multiplications give, bit for bit, including entries that overflow."""
    op = OperatorParams(lam, lam * frac, m, p)
    ks = np.concatenate(([-p], np.arange(1 - p, top + 1)))
    base = phi_base(op, ks)
    want = np.ones_like(base, dtype=float)
    with np.errstate(over="ignore"):
        for _ in range(m):
            want = want * base
    assert _phi_product(op, ks).tobytes() == want.tobytes()


def test_phi_huge_power_overflows_without_the_full_loop():
    # 10^12 multiplications would hang; inf is reached after about 650
    op = OperatorParams(1.0, 0.0, 10**12, 1)
    with pytest.raises(OverflowError, match=r"k=1 overflows a float \(m=1000000000000\)"):
        phi(op, 1)
    assert phi(op, -1) == 1.0  # the pole multiplier is a fixed point at once
    assert phi(OperatorParams(0.0, 0.0, 10**12, 2), 5) == 1.0


# -------------------------------------------------------------------- routes

def test_apply_coeff_frozen():
    op = OperatorParams(1.0, 0.0, 1, 1)
    f = L(1, 1, [0.0, 1.0])
    g = apply_coeff(op, f)
    assert g.coeff(1) == 3.0 and g.lead == 1.0


def test_apply_rejects_pole_mismatch():
    op = OperatorParams(1.0, 0.0, 1, 2)
    with pytest.raises(ValueError, match="p"):
        apply_coeff(op, L(1, 0, [1.0]))
    with pytest.raises(ValueError, match="p"):
        apply_differential(op, L(1, 0, [1.0]))


def test_differential_route_on_monomials():
    """One operator pass over z^-p and over a single z^k term."""
    op = OperatorParams(0.6, 0.2, 1, 2)
    pole = LaurentSeries.pole_only(2, 3)
    out = apply_differential(op, pole)
    assert abs(out.lead - 1.0) < 1e-14
    assert np.max(np.abs(out.coeffs)) < 1e-14
    mono = pole.with_coeff(1, 1.0)
    out = apply_differential(op, mono)
    assert out.coeff(1) == pytest.approx(phi(op, 1), rel=1e-14)


op_strategy = st.builds(
    lambda lam, frac, m, p: OperatorParams(lam, lam * frac, m, p),
    lam=st.floats(min_value=0.0, max_value=1.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    m=st.integers(min_value=0, max_value=3),
    p=st.integers(min_value=1, max_value=3),
)

coeff_c = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def op_and_series(draw, max_k=6):
    op = draw(op_strategy)
    k = draw(st.integers(min_value=1 - op.p, max_value=max_k))
    n = k - (1 - op.p) + 1
    coeffs = draw(st.lists(coeff_c, min_size=n, max_size=n))
    return op, L(op.p, k, coeffs)


@given(pair=op_and_series())
@settings(max_examples=100, deadline=None)
def test_routes_agree(pair):
    """The literal differential route and the multiplier route are one map."""
    op, f = pair
    a = apply_coeff(op, f)
    b = apply_differential(op, f)
    assert abs(a.lead - b.lead) < 1e-9
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-7, rtol=1e-9)


@given(pair=op_and_series())
@settings(max_examples=60, deadline=None)
def test_invert_roundtrip(pair):
    op, f = pair
    g = invert(op, apply_coeff(op, f))
    assert np.allclose(g.coeffs, f.coeffs, rtol=1e-12, atol=1e-13)


def test_semigroup_in_m():
    opa = OperatorParams(0.8, 0.3, 2, 1)
    opb = OperatorParams(0.8, 0.3, 3, 1)
    opab = OperatorParams(0.8, 0.3, 5, 1)
    f = L(1, 4, [0.5, -0.2, 0.1j, 0.7, 0.0])
    two_step = apply_differential(opb, apply_differential(opa, f))
    one_step = apply_differential(opab, f)
    assert np.allclose(two_step.coeffs, one_step.coeffs, rtol=1e-10, atol=1e-10)


# -------------------------------------------------------------------- kernel

def test_kernel_frozen_values():
    op = OperatorParams(1.0, 0.0, 1, 1)
    h = kernel_h(op, 2)
    assert h.lead == 1.0
    assert np.allclose(h.coeffs, [2.0, 3.0, 4.0])


@given(pair=op_and_series())
@settings(max_examples=60, deadline=None)
def test_kernel_realizes_operator(pair):
    op, f = pair
    h = kernel_h(op, f.trunc_order)
    assert np.allclose(
        hadamard(h, f).coeffs, apply_coeff(op, f).coeffs, rtol=1e-13, atol=0
    )


# ---------------------------------------------------------------- integral op

def test_integral_operator_frozen():
    f = L(1, 1, [1.0, 1.0])
    g = integral_operator(f, 1.0)
    assert g.coeff(0) == 0.5  # 1/(1+1+0)
    assert g.coeff(1) == pytest.approx(1 / 3)
    assert g.lead == 1.0
    with pytest.raises(ValueError, match="c"):
        integral_operator(f, 0.0)


def test_integral_operator_large_c_is_near_identity():
    f = L(1, 8, np.ones(9))
    g = integral_operator(f, 1e9)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-8


def test_integral_operator_preserves_exact_criterion():
    """Multipliers in (0,1] can only shrink the weighted coefficient sum."""
    op = OperatorParams(1.0, 0.0, 1, 1)
    cp = ClassParams(0.5, 1.0)
    f = LaurentSeries.pole_only(1, 3).with_coeff(1, 1 / 9)  # criterion equality
    assert exact_membership_plus(op, cp, f).verdict == "holds"
    g = integral_operator(f, 2.5)
    rep = exact_membership_plus(op, cp, g)
    assert rep.verdict == "holds" and rep.worst_margin > 0
