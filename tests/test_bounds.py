"""Coefficient bounds, distortion intervals, convolution non-vanishing and
partial-sum ratio bounds."""
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import merokit.bounds
import merokit.series
from merokit.bounds import (
    TailPolicy,
    _nearest_phase,
    coeff_bound_general,
    coeff_bound_plus,
    coeff_bounds_report,
    conv_derivative_kernel,
    conv_identity_kernel,
    convolution_nonvanishing,
    distortion,
    distortion_report,
    partial_sum,
    partial_sum_bounds,
    phi_growth_degree,
    ratio_weights,
)
from merokit.generators import SchwarzPoly, extremal_fn, from_schwarz, ratio_extremal
from merokit.membership import (
    RADIUS_CAP,
    ClassParams,
    _grid_verdict,
    disk_characterization,
    disk_margins,
    numeric_margins,
    numeric_membership,
    subordination_power_target,
)
from merokit.neighborhoods import verify_inclusion_general
from merokit.operator import OperatorParams, apply_coeff
from merokit.series import (
    LaurentSeries,
    SampleGrid,
    eval_at,
    eval_circles,
    eval_many,
    hadamard,
    z_derivative,
)

M0 = OperatorParams(0.0, 0.0, 0, 1)
OP1 = OperatorParams(1.0, 0.0, 1, 1)
HALF = ClassParams(0.5, 1.0)


def L(p, K, coeffs, lead=1.0, exact=True):
    return LaurentSeries(p, K, np.asarray(coeffs, dtype=complex), lead, exact)


# ----------------------------------------------------------- coefficient bounds

def test_growth_degree():
    assert phi_growth_degree(M0) == 0
    assert phi_growth_degree(OperatorParams(0.0, 0.0, 3, 1)) == 0  # lam = 0
    assert phi_growth_degree(OP1) == 1
    assert phi_growth_degree(OperatorParams(1.0, 0.5, 2, 1)) == 4


def test_coeff_bound_frozen_values():
    assert coeff_bound_general(M0, ClassParams(0.0, 1.0), 3) == pytest.approx(0.5)
    assert coeff_bound_plus(M0, HALF, 1) == pytest.approx(1 / 3)


def test_coeff_bound_ranges_refused():
    with pytest.raises(ValueError, match="n"):
        coeff_bound_general(M0, HALF, 1)  # below 3 - p
    with pytest.raises(ValueError, match="n"):
        coeff_bound_plus(M0, HALF, -1)
    with pytest.raises(ValueError, match="degenerate"):
        coeff_bound_plus(M0, ClassParams(0.0, 1.0), 0)


@given(
    alpha=st.floats(0.5, 0.95),
    beta=st.floats(0.1, 1.0),
    n=st.integers(2, 12),
    m=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_plus_bound_is_sharper_above_balance_index(alpha, beta, n, m):
    """For n >= p(1-2alpha) the subclass bound is at most the general one."""
    op = OperatorParams(0.7, 0.2, m, 1)
    cp = ClassParams(alpha, beta)
    assert coeff_bound_plus(op, cp, n) <= coeff_bound_general(op, cp, n) + 1e-15


def test_coeff_bounds_report_general_equality_and_inflation():
    cp = ClassParams(0.0, 1.0)
    b = coeff_bound_general(M0, cp, 2)
    f = L(1, 3, [0.0, 0.0, b, 0.0])
    rep = coeff_bounds_report(M0, cp, f, kind="general")
    assert rep.verdict == "holds"
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.witness == 2
    rep = coeff_bounds_report(M0, cp, f.with_coeff(2, b * 1.01), kind="general")
    assert rep.verdict == "fails" and rep.witness == 2


def test_coeff_bounds_report_out_of_range_support():
    rep = coeff_bounds_report(M0, HALF, L(1, 1, [0.0, 0.1]), kind="general")
    assert rep.verdict == "inconclusive"  # stored ks stop below 3 - p


def test_coeff_bounds_report_plus_paths():
    f = extremal_fn(M0, HALF, 1)
    rep = coeff_bounds_report(M0, HALF, f, kind="plus")
    assert rep.verdict == "holds" and abs(rep.worst_margin) <= 1e-12
    g = f.with_coeff(1, f.coeff(1).real * 1.01)
    rep = coeff_bounds_report(M0, HALF, g, kind="plus")
    assert rep.verdict == "fails" and rep.witness == 1
    with pytest.raises(ValueError, match="coeffs"):
        coeff_bounds_report(M0, HALF, L(1, 1, [0.0, -0.1]), kind="plus")


def test_coeff_bounds_report_plus_notes_degenerate():
    cp = ClassParams(0.0, 1.0)
    rep = coeff_bounds_report(M0, cp, L(1, 1, [0.3, 0.1]), kind="plus")
    assert "degenerate" in rep.detail  # weight at k = 0 vanishes, skipped


# ------------------------------------------------------------------ distortion

def test_distortion_plus_closed_form_attained_on_real_axis():
    """The one-term extremal at k = 1-p meets the upper bound at z = r and
    the lower bound at z = -r, to machine accuracy."""
    op, cp = OP1, HALF
    b = coeff_bound_plus(op, cp, 0)
    assert b == pytest.approx(0.5)
    f = LaurentSeries.pole_only(1, 4).with_coeff(0, b)
    tail = TailPolicy("exact_support")
    for r in (0.2, 0.5, 0.8):
        lower, upper = distortion(op, cp, r, "f_plus", tail)
        assert abs(abs(eval_at(f, r)) - upper) < 1e-12
        assert abs(abs(eval_at(f, -r)) - lower) < 1e-12


def test_distortion_general_sum_brackets_telescoping_value():
    """For m=1, lam=1, mu=0, p=1 the multiplier sum telescopes to exactly 1;
    the certified upper estimate must sit just above it."""
    lower, upper = distortion(OP1, HALF, 0.5, "f_general", TailPolicy("tail_estimate"))
    s_upper = upper - 1 / 0.5  # budget = 1 and r^(1-p) = 1
    assert 1.0 < s_upper < 1.001


def test_distortion_with_overflowing_multipliers_is_finite():
    """With lam = 1, mu = 0, m = 100, phi_k = (k + 2)^100 overflows a float
    from about k = 1200 on.  Those terms of the multiplier sums are exact
    zeros, their limit, and the spread is far below an ulp of the base."""
    op = OperatorParams(1.0, 0.0, 100, 1)
    tail = TailPolicy("tail_estimate")
    assert distortion(op, HALF, 0.5, "f_general", tail) == (2.0, 2.0)
    assert distortion(op, HALF, 0.5, "fprime_general", tail) == (4.0, 4.0)


def test_distortion_tail_majorant_with_huge_power():
    """lam^(-m) alone overflows a float at lam = 0.5, m = 2000 (and
    (lam mu)^(-m) at lam mu = 0.125, m = 1000), yet every multiplier term
    and the majorant underflow to 0: the interval collapses onto the base."""
    tail = TailPolicy("tail_estimate")
    op = OperatorParams(0.5, 0.0, 2000, 1)
    assert distortion(op, HALF, 0.5, "f_general", tail) == (2.0, 2.0)
    assert distortion(op, HALF, 0.5, "fprime_general", tail) == (4.0, 4.0)
    assert distortion(OperatorParams(0.5, 0.25, 1000, 1), HALF, 0.5, "fprime_general", tail) == (
        4.0, 4.0,
    )
    rep = distortion_report(op, HALF, LaurentSeries.pole_only(1, 2), 0.5, "f_general", tail)
    assert rep.verdict == "holds" and abs(rep.worst_margin) <= 1e-12


def test_distortion_overflowing_tail_majorant_is_refused():
    # (lam (2048 + p))^(-m) = 0.002049^(-2000) has no float value, nor has
    # (lam mu (2048 + p)^2)^(-1) where lam mu = 1e-400 underflows to 0
    for op in (OperatorParams(1e-6, 0.0, 2000, 1), OperatorParams(1e-200, 1e-200, 1, 1)):
        with pytest.raises(ValueError, match="tail: the majorant of the sum beyond k=2048"):
            distortion(op, HALF, 0.5, "f_general", TailPolicy("tail_estimate"))


def test_distortion_tail_majorant_frozen_values():
    # at small lam mu the tail beyond k = 2048 reaches the interval's last
    # bits: the majorant (lam mu x0^2)^(-m) x0^extra/(s-1) moved the lower
    # end of this one by 2 ulps from the form with (lam mu)^(-m) and x0^(1-s)
    # apart (-0x1.0454f375c47b8p+8)
    op = OperatorParams(0.003269453560871229, 7.682609405526497e-05, 1, 1)
    cp = ClassParams(0.2898006661770327, 0.9993849920819283)
    r, tail = 0.09982998679306695, TailPolicy("tail_estimate")
    assert distortion(op, cp, r, "f_general", tail) == (
        float.fromhex("0x1.359d3f3daf0d0p-1"), float.fromhex("0x1.36de991906a40p+4"),
    )
    assert distortion(op, cp, r, "fprime_general", tail) == (
        float.fromhex("-0x1.0454f375c47b6p+8"), float.fromhex("0x1.cd037d514277ap+8"),
    )


def test_distortion_divergent_policy():
    tail = TailPolicy("divergent_flag")
    assert distortion(M0, HALF, 0.5, "f_general", tail) == (float("-inf"), float("inf"))
    with pytest.raises(ValueError, match="divergent_flag"):
        distortion(M0, HALF, 0.5, "f_general", TailPolicy("tail_estimate"))
    # derivative sum needs one more degree than the function sum
    assert distortion(OP1, HALF, 0.5, "fprime_general", tail)[1] == float("inf")


def test_distortion_validation():
    with pytest.raises(ValueError, match="r"):
        distortion(OP1, HALF, 1.0, "f_plus", TailPolicy("exact_support"))
    with pytest.raises(ValueError, match="which"):
        distortion(OP1, HALF, 0.5, "f", TailPolicy("exact_support"))
    with pytest.raises(ValueError, match="mode"):
        distortion(OP1, HALF, 0.5, "f_general", TailPolicy("exact_support"))
    with pytest.raises(ValueError, match="mode"):
        TailPolicy("whatever")


def test_distortion_report_holds_at_equality():
    op, cp = OP1, HALF
    f = LaurentSeries.pole_only(1, 4).with_coeff(0, coeff_bound_plus(op, cp, 0))
    rep = distortion_report(op, cp, f, 0.5, "f_plus", TailPolicy("exact_support"))
    assert rep.verdict == "holds"
    assert abs(rep.worst_margin) <= 1e-12  # equality at z = +-r


def test_distortion_report_vacuous_is_inconclusive():
    rep = distortion_report(
        M0, HALF, LaurentSeries.pole_only(1, 2), 0.5, "f_general", TailPolicy("divergent_flag")
    )
    assert rep.verdict == "inconclusive"
    assert "vacuous" in rep.detail


def test_distortion_report_fprime_route():
    """|f'| of the bare pole is p/r^(p+1), strictly inside the interval.
    Needs multiplier growth degree >= 2, so mu must be positive here."""
    op = OperatorParams(1.0, 0.5, 1, 1)
    rep = distortion_report(
        op, HALF, LaurentSeries.pole_only(1, 4), 0.5, "fprime_general",
        TailPolicy("tail_estimate"), angles_count=36,
    )
    assert rep.verdict == "holds" and rep.worst_margin > 0


# ------------------------------------------------------------------ convolution

def test_conv_kernel_identities():
    f = L(2, 3, [0.4, -0.2j, 0.0, 1.0, 0.3])
    ident = conv_identity_kernel(2, 3)
    assert np.allclose(hadamard(f, ident).coeffs, f.coeffs)
    assert hadamard(f, ident).lead == f.lead
    deriv = conv_derivative_kernel(2, 3)
    zd = z_derivative(f)
    out = hadamard(f, deriv)
    assert np.allclose(out.coeffs, zd.coeffs)
    assert out.lead == zd.lead


def test_convolution_constant_for_bare_pole():
    """f = z^-p makes the scanned combination exactly 2 p beta (1-alpha)
    times a unimodular factor, so the minimum modulus is that constant."""
    rep = convolution_nonvanishing(OP1, HALF, LaurentSeries.pole_only(1, 4))
    assert rep.verdict == "holds"
    assert rep.worst_margin == pytest.approx(1.0, abs=1e-12)  # 2*1*1*(1/2)
    cp = ClassParams(0.25, 0.8)
    rep = convolution_nonvanishing(OP1, cp, LaurentSeries.pole_only(1, 4))
    assert rep.worst_margin == pytest.approx(2 * 0.8 * 0.75, abs=1e-12)


def test_convolution_holds_for_member():
    f = extremal_fn(OP1, HALF, 1)
    rep = convolution_nonvanishing(OP1, HALF, f, theta_count=90)
    assert rep.verdict == "holds" and rep.worst_margin > 1e-3


def test_convolution_flags_vanishing_point():
    """With a_1 = 4/9 the scanned combination is sigma + 3 a z^2 (2 - sigma)
    after the operator triples a_1, and it vanishes exactly at z = 0.5 and
    z = -0.5, sigma = -1.  All lie on the scan grid (45 thetas puts pi on
    it), so the minimum modulus collapses to rounding error and the check
    fails.  Rounding decides which of the two zeros is reported."""
    f = L(1, 1, [0.0, 4.0 / 9.0])
    rep = convolution_nonvanishing(OP1, HALF, f, theta_count=45)
    assert rep.verdict == "fails"
    assert rep.worst_margin < 1e-12
    assert min(abs(rep.witness - 0.5), abs(rep.witness + 0.5)) < 1e-12


def _one_matrix_min(u, v, beta, sigmas):
    """The scan as one (sigma, point) matrix: minimum and sigma-major argmin."""
    vals = np.abs(u[None, :] - beta * sigmas[:, None] * v[None, :])
    flat = int(np.argmin(vals))
    return float(vals.flat[flat]), flat


def test_convolution_refuses_negative_threshold():
    # |value| >= 0 > threshold would hold whatever f is
    for threshold in (-1.0, -1e-300, float("nan")):
        with pytest.raises(ValueError, match="threshold: need >= 0"):
            convolution_nonvanishing(OP1, HALF, LaurentSeries.pole_only(1, 2), threshold=threshold)
    rep = convolution_nonvanishing(OP1, HALF, LaurentSeries.pole_only(1, 2), threshold=0.0)
    assert rep.verdict == "holds"


def test_nearest_phase_matches_one_matrix():
    """At each point the two phases either side of arg(u conj(v)) give the
    one-matrix scan's minimum, bit for bit, and its first-on-ties phase."""
    rng = np.random.default_rng(11)
    beta = 0.7
    for T in (1, 2, 45, 360):
        sigmas = np.exp(1j * (2.0 * np.pi * np.arange(1, T + 1) / (T + 1)))
        u = rng.normal(size=40) + 1j * rng.normal(size=40)
        v = rng.normal(size=40) + 1j * rng.normal(size=40)
        # exact zeros on the phase grid: the products the scan forms
        for z, s in ((1, 0), (2, T - 1), (3, T // 2)):
            u[z] = (beta * sigmas[:, None] * v[None, z : z + 1])[s, 0]
        # every phase ties: v = 0, and u = v = 0
        v[4] = 0.0
        u[5] = v[5] = 0.0
        # theta* = pi (the two middle phases tie for even T), and theta* = 0
        # (s = 1 ties s = T across the excluded theta = 0)
        u[6], v[6] = 1.0, -1.0
        u[7], v[7] = 1.0, 1.0
        # theta* inside the first gap and inside the last gap
        gap = 2.0 * np.pi / (T + 1)
        u[8], v[8] = np.exp(1j * gap / 3), 1.0
        u[9], v[9] = np.exp(-1j * gap / 3), 1.0
        best, phase = _nearest_phase(u, v, beta, T)
        for i in range(u.size):
            want, s = _one_matrix_min(u[i : i + 1], v[i : i + 1], beta, sigmas)
            assert (best[i].hex(), int(phase[i])) == (want.hex(), s + 1), (T, i)
        assert best[1] == best[2] == best[3] == best[5] == 0.0
        assert (phase[1], phase[2], phase[3]) == (1, T, T // 2 + 1)
        assert phase[4] == phase[5] == 1 and phase[8] == 1 and phase[9] == T
        # u = 0: every phase ties in exact arithmetic, and the rounding of
        # sigma decides the scan's pick; theta* = 0 weighs s = 1 against T
        u0, v0 = np.zeros(1, dtype=complex), np.array([0.3 - 0.4j])
        best, phase = _nearest_phase(u0, v0, beta, T)
        want, _ = _one_matrix_min(u0, v0, beta, sigmas)
        assert best[0] == pytest.approx(want, rel=1e-15) and phase[0] in (1, T)
    # an infinite value that is not the minimum passes; a NaN anywhere is the
    # driver's overflow error
    u[11] = np.inf
    best, _ = _nearest_phase(u, v, beta, T)
    assert best[11] == np.inf
    _grid_verdict(np.arange(u.size), best, lambda worst: True, "")
    u[36] = np.nan
    best, _ = _nearest_phase(u, v, beta, T)
    assert math.isnan(best[36])
    with pytest.raises(OverflowError, match="margin: not finite at 36"):
        _grid_verdict(np.arange(u.size), best, lambda worst: True, "")


def _scan_report(op, cp, f, grid, theta_count):
    """The full theta scan: the sigma-major argmin over (phase, point) of the
    FFT values, and Horner's value at that point and phase."""
    F = apply_coeff(op, f)
    dF = z_derivative(F)
    zs = grid.points(radius_cap=RADIUS_CAP)
    thetas = 2.0 * np.pi * np.arange(1, theta_count + 1) / (theta_count + 1)
    sigmas = np.exp(1j * thetas)

    def uv(points, values):
        a, b = values(dF), values(F)
        zp = points ** op.p
        return zp * (a + op.p * b), zp * (a + (2.0 * cp.alpha - 1.0) * op.p * b)

    _, flat = _one_matrix_min(*uv(zs, lambda g: eval_circles(g, grid, RADIUS_CAP)), cp.beta, sigmas)
    i, s = flat % zs.size, flat // zs.size
    at = zs[i : i + 1]
    best, _ = _one_matrix_min(*uv(at, lambda g: eval_many(g, at)), cp.beta, sigmas[s : s + 1])
    detail = f"min |value| = {best:.6g} at theta={float(thetas[s]):.6g}; "
    return best, complex(zs[i]), detail + f"grid={grid.digest()} theta_count={theta_count}"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_convolution_matches_full_scan(seed):
    rng = np.random.default_rng(seed)
    op = OperatorParams(1.0, 0.5, 1, seed)
    cp = ClassParams(rng.uniform(0.0, 0.9), rng.uniform(0.3, 1.0))
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    f = from_schwarz(op, cp, SchwarzPoly(tuple(c / (1.2 * np.sum(np.abs(c))))), 40)
    grid = SampleGrid((0.3, 0.6, 0.9), 64)
    for T in (1, 45, 360):
        rep = convolution_nonvanishing(op, cp, f, grid, T)
        best, witness, detail = _scan_report(op, cp, f, grid, T)
        assert (rep.worst_margin.hex(), rep.witness, rep.detail) == (best.hex(), witness, detail)


def test_convolution_theta_count_bound():
    """No array of length theta_count is built, so 1e11 phases cost what 360
    do, and their minimum is all but the infimum ||u| - beta |v|| over the
    circle.  Beyond 2**53 the phase index is not exact in a double."""
    f = extremal_fn(OP1, HALF, 1)
    grid = SampleGrid((0.5,), 16)
    for T in (10**11, 2**53):
        rep = convolution_nonvanishing(OP1, HALF, f, grid, T)
        assert rep.verdict == "holds" and rep.detail.endswith(f" theta_count={T}")
    zs = grid.points()
    F = apply_coeff(OP1, f)
    a, b = eval_many(z_derivative(F), zs), eval_many(F, zs)
    u, v = zs * (a + b), zs * a
    assert rep.worst_margin == pytest.approx(np.min(np.abs(np.abs(u) - np.abs(v))), rel=1e-9)
    for T in (0, 2**53 + 1):
        with pytest.raises(ValueError, match=r"theta_count: need 1 <= theta_count <= 2\*\*53"):
            convolution_nonvanishing(OP1, HALF, f, grid, T)


def test_convolution_theta_grid_is_interior():
    # theta_count = 1 must still avoid theta = 0 (the open-interval contract)
    rep = convolution_nonvanishing(OP1, HALF, LaurentSeries.pole_only(1, 2), theta_count=1)
    assert "theta=3.14159" in rep.detail


# ----------------------------------------------------------------- partial sums

def test_partial_sum_branches():
    f = L(1, 2, [0.5, 0.25, 0.125], exact=False)
    low = partial_sum(f, -1)
    assert np.all(low.coeffs == 0) and low.exact_support
    assert partial_sum(f, 3) is f
    mid = partial_sum(f, 1)
    assert mid.coeff(0) == 0.5 and mid.coeff(1) == 0.0 and mid.coeff(2) == 0.0
    assert mid.exact_support


def test_ratio_weights_frozen():
    th = ratio_weights(OP1, HALF, np.array([0, 1, 2]))
    assert np.allclose(th, [2.0, 9.0, 20.0])


def test_partial_sum_bounds_on_sharp_function():
    f = ratio_extremal(OP1, HALF, 1, trunc_order=4)
    grid = SampleGrid(radii=(0.3, 0.7, 0.999), angles_count=720)
    rep = partial_sum_bounds(OP1, HALF, f, 1, grid)
    assert rep.verdict == "holds"
    # near z -> 1 the first ratio approaches its bound 8/9 from above
    assert 0 < rep.worst_margin < 1e-2
    assert "theta=9" in rep.detail


def test_partial_sum_bounds_hypothesis_gate():
    f = LaurentSeries.pole_only(1, 2).with_coeff(1, 0.2)  # weighted sum 1.8 > 1
    rep = partial_sum_bounds(OP1, HALF, f, 1)
    assert rep.verdict == "inconclusive"
    assert "hypothesis" in rep.detail
    g = L(1, 2, [0.0, 0.05, 0.0], exact=False)
    rep = partial_sum_bounds(OP1, HALF, g, 1)
    assert rep.verdict == "inconclusive"
    assert "tail" in rep.detail


def test_partial_sum_bounds_monotone_premise_gate():
    # p=1, alpha=0, beta=1 gives ratio weight exactly 1 at k=1: derivation void
    cp = ClassParams(0.0, 1.0)
    rep = partial_sum_bounds(M0, cp, LaurentSeries.pole_only(1, 3), 1)
    assert rep.verdict == "inconclusive"
    assert "monotone" in rep.detail


@given(
    p=st.integers(1, 2),
    op_index=st.integers(0, 2),
    alpha=st.floats(0.0, 0.9),
    beta=st.floats(0.1, 1.0),
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=6,
    ),
    mass=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    m_cut_shift=st.integers(0, 7),
    r=st.floats(0.001, 0.999),
)
@settings(max_examples=150, deadline=None)
def test_partial_sum_premises_keep_values_off_zero(
    p, op_index, alpha, beta, coeffs, mass, m_cut_shift, r
):
    """Weights > 1 + SUM_TOL and sum theta_k |a_k| <= 1 + SUM_TOL give
    sum |a_k| <= 1 + 1e-12, so |z^p f| and |z^p k_m| stay at least
    1 - 0.999 (1 + 1e-12), about 1e-3, on every radius <= 0.999: eleven
    orders of magnitude above the vanishing floor 1e-14 |z|^-p."""
    op = (OperatorParams(1.0, 0.0, 1, p), OperatorParams(1.0, 0.5, 1, p),
          OperatorParams(2.0, 0.0, 2, p))[op_index]
    cp = ClassParams(alpha, beta)
    K = len(coeffs) - p
    a = np.asarray(coeffs, dtype=complex)
    th = ratio_weights(op, cp, np.arange(1 - p, K + 1))
    hyp = float(np.dot(th, np.abs(a)))
    f = L(p, K, a * (mass / hyp) if hyp > 1e-3 else a)  # a small sum already holds
    m_cut = 1 - p + m_cut_shift
    grid = SampleGrid((r, 0.999) if r < 0.999 else (0.999,), 16)
    rep = partial_sum_bounds(op, cp, f, m_cut, grid)
    assume(rep.verdict != "inconclusive")  # both premises hold
    zs = grid.points()
    floor = 1.0 - merokit.bounds.RATIO_RADIUS_CAP * (1.0 + 1e-12)
    for g in (f, partial_sum(f, m_cut)):
        for values in (eval_circles(g, grid), eval_many(g, zs)):
            assert np.all(np.abs(zs ** p * values) >= floor - 1e-13)


def test_partial_sum_bounds_validation():
    with pytest.raises(ValueError, match="m_cut"):
        partial_sum_bounds(OP1, HALF, LaurentSeries.pole_only(1, 2), -1)
    with pytest.raises(ValueError, match="lead"):
        partial_sum_bounds(OP1, HALF, L(1, 0, [0.0], lead=2.0), 1)


# ------------------------------------------------------- verdict thresholds
#
# Each checker compares its worst margin against its own threshold: strict
# ``>`` for the membership, disk, containment and convolution checks,
# ``>=`` for coefficient bounds, distortion and partial sums.  Each case
# runs the checker once with its default threshold, then again with the
# threshold moved exactly onto the worst margin and one ulp past it.

TH_CP = ClassParams(0.2, 0.6)
TH_RADII = (0.3, 0.6, 0.9)


def _th_member():
    return from_schwarz(OP1, TH_CP, SchwarzPoly((0.4, 0.1j)), 12)


def _th_grid(margin):
    return SampleGrid(TH_RADII, 32) if margin is None else SampleGrid(TH_RADII, 32, margin)


def _th_numeric(at, monkeypatch):
    return numeric_membership(OP1, TH_CP, _th_member(), _th_grid(at))


def _th_disk(at, monkeypatch):
    return disk_characterization(OP1, TH_CP, _th_member(), _th_grid(at))


def _th_subordination(at, monkeypatch):
    return subordination_power_target(OP1, TH_CP.alpha, _th_member(), _th_grid(at))


def _th_convolution(at, monkeypatch):
    return convolution_nonvanishing(OP1, TH_CP, _th_member(), _th_grid(None), 24, at)


def _th_sum_tol(at, monkeypatch):
    # coefficient bounds and distortion hold when worst >= -SUM_TOL
    if at is not None:
        monkeypatch.setattr(merokit.bounds, "SUM_TOL", -at)


def _th_coeff(at, monkeypatch):
    _th_sum_tol(at, monkeypatch)
    f = LaurentSeries.pole_only(1, 4).with_coeff(2, 0.5)
    return coeff_bounds_report(OP1, HALF, f, kind="general")


def _th_distortion(at, monkeypatch):
    _th_sum_tol(at, monkeypatch)
    f = LaurentSeries.pole_only(1, 3).with_coeff(0, 2.0)
    return distortion_report(OP1, HALF, f, 0.5, "f_plus", TailPolicy("exact_support"), 64)


def _th_partial(at, monkeypatch):
    grid = _th_grid(None)
    if at is not None:
        # holds when worst >= -margin; premise-satisfying inputs always have
        # worst > 0, so the threshold is reached only by a negative margin,
        # which the grid's own validation refuses
        object.__setattr__(grid, "margin", -at)
    return partial_sum_bounds(OP1, HALF, L(1, 1, [0.0, -0.05]), 1, grid)


THRESHOLD_CASES = {
    "numeric": (_th_numeric, True),
    "disk": (_th_disk, True),
    "subordination": (_th_subordination, True),
    "convolution": (_th_convolution, True),
    "coeff-general": (_th_coeff, False),
    "distortion": (_th_distortion, False),
    "partial-sums": (_th_partial, False),
}


@pytest.mark.parametrize("case", list(THRESHOLD_CASES))
def test_worst_margin_exactly_on_threshold(case, monkeypatch):
    check, strict = THRESHOLD_CASES[case]
    worst = check(None, monkeypatch).worst_margin
    assert np.isfinite(worst)
    on = check(worst, monkeypatch)
    assert on.worst_margin == worst
    assert on.verdict == ("fails" if strict else "holds")
    past = np.nextafter(worst, -np.inf if strict else np.inf)
    assert check(past, monkeypatch).verdict == ("holds" if strict else "fails")


# ------------------------------------------------------------- grid checkers
#
# Every sampled checker locates its worst point on the FFT values and
# reports Horner's margin there, through ``series.eval_many``.  The
# benchmark's traced run times that call as a layer, so each checker must
# make it on every report that has grid points.

GRID_CHECKERS = {
    "numeric": lambda grid: numeric_membership(OP1, TH_CP, _th_member(), grid),
    "disk": lambda grid: disk_characterization(OP1, TH_CP, _th_member(), grid),
    "subordination": lambda grid: subordination_power_target(OP1, TH_CP.alpha, _th_member(), grid),
    "partial-sums": lambda grid: partial_sum_bounds(OP1, HALF, L(1, 1, [0.0, -0.05]), 1, grid),
    "convolution": lambda grid: convolution_nonvanishing(OP1, TH_CP, _th_member(), grid, 24),
    "distortion": lambda grid: distortion_report(
        OP1, HALF, LaurentSeries.pole_only(1, 3).with_coeff(0, 2.0), grid.radii[0], "f_plus",
        TailPolicy("exact_support"), grid.angles_count,
    ),
}


@pytest.mark.parametrize("case", list(GRID_CHECKERS))
def test_grid_checker_rechecks_by_horner(case, monkeypatch):
    calls = []
    orig = merokit.series.eval_many

    def counted(f, zs):
        calls.append(np.size(zs))
        return orig(f, zs)

    for name, module in list(sys.modules.items()):
        if name.startswith("merokit") and getattr(module, "eval_many", None) is orig:
            monkeypatch.setattr(module, "eval_many", counted)
    for grid in (SampleGrid((0.5,), 8), _th_grid(None), SampleGrid((0.2, 0.9), 7)):
        del calls[:]
        rep = GRID_CHECKERS[case](grid)
        assert rep.verdict != "inconclusive" and rep.witness is not None
        assert calls and all(size == 1 for size in calls)


@pytest.mark.parametrize("case", list(GRID_CHECKERS))
def test_grid_checker_on_empty_capped_grid(case):
    """Radii beyond the cap leave no points: the membership cap 0.95, or the
    ratio cap 0.999 for partial sums.  Distortion samples its own circle
    |z| = r uncapped, so r = 0.96 still has points."""
    rep = GRID_CHECKERS[case](SampleGrid((0.9995,) if case == "partial-sums" else (0.96, 0.99), 8))
    if case == "distortion":
        assert rep.verdict != "inconclusive" and rep.witness is not None
        return
    assert rep.verdict == "inconclusive" and rep.witness is None
    assert np.isnan(rep.worst_margin) and rep.detail.startswith("no usable grid points; ")


def test_margin_arrays_on_empty_capped_grid():
    grid = SampleGrid((0.96, 0.99), 8)
    for margins in (numeric_margins, disk_margins):
        zs, m = margins(OP1, TH_CP, _th_member(), grid)
        assert zs.size == m.size == 0


@given(
    p=st.integers(1, 2),
    m=st.integers(0, 2),
    alpha=st.floats(0.0, 0.9),
    beta=st.floats(0.1, 0.99),
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=4, max_size=6,
    ),
    zero_at=st.one_of(st.none(), st.integers(0, 15)),
)
@settings(max_examples=60, deadline=None)
def test_every_failure_has_finite_margin_and_witness(p, m, alpha, beta, coeffs, zero_at):
    """Every checker's ``fails`` carries a finite margin and a witness, also
    where F is exactly 0 at a grid point (identity operator, f = z^-p (1 - z/z0))."""
    grid = SampleGrid((0.3, 0.5), 8)
    op = OperatorParams(1.0 if m else 0.0, 0.0, m, p)
    cp = ClassParams(alpha, beta)
    a = np.asarray(coeffs, dtype=complex)
    if zero_at is not None:
        op = OperatorParams(0.0, 0.0, 0, p)
        a[:] = 0.0
        a[0] = -1.0 / grid.points()[zero_at]
    f = L(p, len(a) - p, a)
    reports = [
        numeric_membership(op, cp, f, grid),
        disk_characterization(op, cp, f, grid),
        subordination_power_target(op, alpha, f, grid),
        convolution_nonvanishing(op, cp, f, grid, 12),
        partial_sum_bounds(op, cp, f, 1 - p, grid),
        coeff_bounds_report(op, cp, f, "general"),
        distortion_report(
            op, cp, f, 0.5, "f_general", TailPolicy("tail_estimate" if op.m else "divergent_flag"), 16
        ),
        verify_inclusion_general(op, cp, f, 0.05, eps_trials=2, trials=2, grid=grid),
    ]
    if zero_at is not None:
        assert reports[0].verdict == reports[1].verdict == "fails"
    for rep in reports:
        if rep.verdict == "fails":
            assert math.isfinite(rep.worst_margin) and rep.witness is not None
