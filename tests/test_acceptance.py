"""End-to-end acceptance checks.

Ten independent checks cover the whole surface: operator route agreement,
sharpness of the exact coefficient criterion, the implication chain
between criteria, the disk reformulation, generator certification,
convolution non-vanishing, neighborhood inclusion with its sharpness
witness, the partial-sum ratio bounds, distortion sharpness, and the
documented negative results.  Each test prints one [PASS]/[FAIL] line
(bypassing capture) so the suite output doubles as an acceptance report.

Every expected value here is either computed independently inside the
test or pinned from a hand-derived closed form; tolerances are stated
inline and are not tuned to make anything pass.
"""
import numpy as np
import pytest

from merokit.bounds import (
    TailPolicy,
    coeff_bound_plus,
    convolution_nonvanishing,
    distortion,
    distortion_report,
    partial_sum,
    partial_sum_bounds,
    ratio_weights,
)
from merokit.generators import (
    MeasureAtoms,
    SchwarzPoly,
    extremal_fn,
    from_herglotz,
    from_schwarz,
    neighborhood_witnesses,
    ratio_extremal,
)
from merokit.membership import (
    ClassParams,
    budget,
    criterion_weight_array,
    disk_characterization,
    disk_margins,
    exact_membership_plus,
    numeric_margins,
    numeric_membership,
    subordination_power_target,
    sufficient_condition,
)
from merokit.neighborhoods import delta_star, verify_inclusion_plus
from merokit.operator import OperatorParams, apply_coeff, apply_differential, phi
from merokit.series import (
    LaurentSeries,
    SampleGrid,
    default_grid,
    eval_at,
)


@pytest.fixture()
def announce(capsys):
    def emit(num: int, name: str, ok: bool, detail: str = ""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}{tail}")
    return emit


def _random_op(rng, lam_hi=1.0, m_hi=2, p_hi=3):
    lam = rng.uniform(0.0, lam_hi)
    mu = rng.uniform(0.0, lam)
    m = int(rng.integers(0, m_hi + 1))
    p = int(rng.integers(1, p_hi + 1))
    return OperatorParams(lam, mu, m, p)


@pytest.fixture(scope="module")
def herglotz_batch():
    """50 members built from random finite boundary measures, shared by
    the generator-certification and convolution checks."""
    rng = np.random.default_rng(505)
    out = []
    for _ in range(50):
        op = _random_op(rng)
        alpha = rng.uniform(0.25, 0.85)
        n_atoms = int(rng.integers(1, 5))
        ws = rng.uniform(0.2, 1.0, size=n_atoms)
        ws = ws / ws.sum()
        phases = rng.uniform(0, 2 * np.pi, size=n_atoms)
        atoms = MeasureAtoms(tuple((np.exp(1j * t), w) for t, w in zip(phases, ws)))
        out.append((op, alpha, from_herglotz(op, alpha, atoms, 64)))
    return out


def test_01_operator_route_agreement(announce):
    """The closed-form multiplier route and the iterated differential
    route must produce the same transform, coefficient-wise < 1e-10."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        # small lam keeps the multipliers O(1e3) so an absolute 1e-10
        # tolerance is meaningful out to k = 32 at m = 4
        lam = rng.uniform(0.0, 0.05)
        op = OperatorParams(lam, rng.uniform(0.0, lam), int(rng.integers(0, 5)),
                            int(rng.integers(1, 4)))
        K = 32
        n = K - (1 - op.p) + 1
        for _ in range(10):
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            f = LaurentSeries(op.p, K, coeffs, 1.0, False)
            d = np.abs(apply_coeff(op, f).coeffs - apply_differential(op, f).coeffs)
            worst = max(worst, float(np.max(d)))
    ok = worst < 1e-10
    announce(1, "operator route agreement", ok, f"worst |diff| = {worst:.3g}, tol 1e-10")
    assert ok


def test_02_exact_criterion_sharpness(announce):
    """Every admissible one-term extremal meets the exact criterion with
    equality (within 1e-12); inflating it by 1 + 1e-6 must fail."""
    rng = np.random.default_rng(202)
    worst_eq = 0.0
    n_checked = 0
    bad = []
    for _ in range(10):
        op = _random_op(rng, m_hi=3)
        cp = ClassParams(rng.uniform(0.0, 0.85), rng.uniform(0.25, 1.0))
        for n in range(1 - op.p, 21):
            try:
                f = extremal_fn(op, cp, n)
            except ValueError:
                continue  # degenerate weight at this index: no extremal exists
            n_checked += 1
            rep = exact_membership_plus(op, cp, f)
            worst_eq = max(worst_eq, abs(rep.worst_margin))
            if rep.verdict != "holds" or abs(rep.worst_margin) > 1e-12:
                bad.append((op, cp, n, "equality", rep.worst_margin))
            g = f.with_coeff(n, f.coeff(n).real * (1.0 + 1e-6))
            if exact_membership_plus(op, cp, g).verdict != "fails":
                bad.append((op, cp, n, "inflation"))
    ok = not bad and n_checked > 100
    announce(2, "exact criterion sharpness", ok,
             f"{n_checked} extremals, worst |equality gap| = {worst_eq:.3g}, tol 1e-12")
    assert ok, bad[:5]


def test_03_membership_implication_chain(announce):
    """100 random nonnegative-coefficient members passing the exact
    criterion also pass the modulus-sum condition and the sampled
    defining inequality with margin > 0 on the default grid."""
    rng = np.random.default_rng(303)
    grid = default_grid()
    n_done = 0
    worst_numeric = np.inf
    bad = []
    while n_done < 100:
        op = _random_op(rng)
        cp = ClassParams(rng.uniform(0.25, 0.85), rng.uniform(0.3, 1.0))
        K = 16
        ks = np.arange(1 - op.p, K + 1)
        w = criterion_weight_array(op, cp, ks)
        usable = w > 1e-6
        amp = rng.uniform(0.0, 1.0, size=ks.size) * usable
        total = float(np.dot(w[usable], amp[usable]))
        if total <= 1e-9:
            continue
        amp *= 0.9 * budget(op, cp) / total
        f = LaurentSeries(op.p, K, amp.astype(complex), 1.0, True)
        n_done += 1
        if exact_membership_plus(op, cp, f).verdict != "holds":
            bad.append(("exact", op, cp))
        if sufficient_condition(op, cp, f).verdict != "holds":
            bad.append(("modulus-sum", op, cp))
        rep = numeric_membership(op, cp, f, grid)
        worst_numeric = min(worst_numeric, rep.worst_margin)
        if rep.verdict != "holds" or not rep.worst_margin > 0:
            bad.append(("numeric", op, cp, rep.worst_margin))
    ok = not bad
    announce(3, "membership implication chain", ok,
             f"100 members, worst sampled margin = {worst_numeric:.3g}")
    assert ok, bad[:5]


def test_04_disk_form_equivalence(announce):
    """For beta < 1 the modulus inequality and its disk reformulation
    must agree: same verdict and the same margin sign at every usable
    grid point, member or not."""
    rng = np.random.default_rng(404)
    grid = default_grid()
    n_pts = 0
    bad = []
    for beta in (0.25, 0.5, 0.9):
        for _ in range(50):
            op = _random_op(rng)
            cp = ClassParams(rng.uniform(0.0, 0.9), beta)
            K = 12
            n = K - (1 - op.p) + 1
            coeffs = 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            f = LaurentSeries(op.p, K, coeffs, 1.0, True)
            rn = numeric_membership(op, cp, f, grid)
            rd = disk_characterization(op, cp, f, grid)
            if rn.verdict != rd.verdict:
                bad.append(("verdict", op, cp, rn.verdict, rd.verdict))
                continue
            _, mn = numeric_margins(op, cp, f, grid)
            _, md = disk_margins(op, cp, f, grid)
            mask = (np.abs(mn) > 1e-9) & (np.abs(md) > 1e-9)
            n_pts += int(mask.sum())
            if not np.all(np.sign(mn[mask]) == np.sign(md[mask])):
                bad.append(("sign", op, cp))
    ok = not bad
    announce(4, "disk form equivalence", ok,
             f"150 functions x 3 betas, {n_pts} signed points compared")
    assert ok, bad[:5]


def test_05_generator_certification(announce, herglotz_batch):
    """Members built from boundary measures pass the sampled inequality
    (beta = 1) and the power-target containment; the single-atom
    construction agrees with the linear disk-map construction < 1e-10."""
    grid = default_grid()
    bad = []
    worst_margin = np.inf
    for op, alpha, f in herglotz_batch:
        cp = ClassParams(alpha, 1.0)
        rep = numeric_membership(op, cp, f, grid)
        worst_margin = min(worst_margin, rep.worst_margin)
        if rep.verdict != "holds":
            bad.append(("numeric", op, alpha, rep.worst_margin))
        sub = subordination_power_target(op, alpha, f, grid)
        if sub.verdict != "holds":
            bad.append(("containment", op, alpha, sub.worst_margin))
    rng = np.random.default_rng(515)
    worst_diff = 0.0
    for _ in range(10):
        op = _random_op(rng)
        alpha = rng.uniform(0.0, 0.85)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi))
        fh = from_herglotz(op, alpha, MeasureAtoms(((x, 1.0),)), 24)
        fs = from_schwarz(op, ClassParams(alpha, 1.0), SchwarzPoly((x,)), 24)
        worst_diff = max(worst_diff, float(np.max(np.abs(fh.coeffs - fs.coeffs))))
    if worst_diff >= 1e-10:
        bad.append(("single-atom vs disk-map", worst_diff))
    ok = not bad
    announce(5, "generator certification", ok,
             f"50 members, worst margin = {worst_margin:.3g}; "
             f"construction agreement {worst_diff:.3g}, tol 1e-10")
    assert ok, bad[:5]


def test_06_convolution_nonvanishing(announce, herglotz_batch):
    """The convolution combination stays > 1e-6 in modulus for every
    generated member (every phase x default radii), and the bare pole
    gives the constant 2 p beta (1 - alpha) to 1e-12."""
    grid = default_grid()
    bad = []
    worst = np.inf
    for op, alpha, f in herglotz_batch:
        cp = ClassParams(alpha, 1.0)
        rep = convolution_nonvanishing(op, cp, f, grid, theta_count=360)
        worst = min(worst, rep.worst_margin)
        if rep.verdict != "holds" or not rep.worst_margin > 1e-6:
            bad.append((op, alpha, rep.worst_margin))
    worst_const = 0.0
    for op, cp in (
        (OperatorParams(1.0, 0.0, 1, 1), ClassParams(0.5, 1.0)),
        (OperatorParams(0.5, 0.25, 2, 2), ClassParams(0.25, 0.8)),
        (OperatorParams(0.0, 0.0, 0, 3), ClassParams(0.0, 0.4)),
    ):
        rep = convolution_nonvanishing(op, cp, LaurentSeries.pole_only(op.p, 2), grid)
        expect = 2.0 * op.p * cp.beta * (1.0 - cp.alpha)
        worst_const = max(worst_const, abs(rep.worst_margin - expect))
    if worst_const > 1e-12:
        bad.append(("constant case", worst_const))
    ok = not bad
    announce(6, "convolution non-vanishing", ok,
             f"50 members, min modulus = {worst:.3g} > 1e-6; "
             f"constant case gap = {worst_const:.3g}, tol 1e-12")
    assert ok, bad[:5]


def test_07_neighborhood_inclusion_and_sharpness(announce):
    """At lam = 1, mu = 0, m = 1 the inclusion radius is exactly 1/2:
    every neighbor of a premise-satisfying member passes the exact
    criterion (the closed form), the witness just outside the radius fails, and the
    radius identity delta + 1/multiplier(1-p) = 1 holds to 1e-12."""
    op = OperatorParams(1.0, 0.0, 1, 1)
    cp = ClassParams(0.5, 1.0)
    bad = []
    d = delta_star(op)
    if abs(d - 0.5) > 1e-12:
        bad.append(("radius", d))
    f = LaurentSeries.pole_only(1, 2).with_coeff(1, 0.05)
    rep = verify_inclusion_plus(op, cp, f, trials=100, seed=7)
    if rep.verdict != "holds":
        bad.append(("inclusion", rep.verdict, rep.detail))
    _, g = neighborhood_witnesses(op, cp, d * (1.0 + 1e-9))
    if exact_membership_plus(op, cp, g).verdict != "fails":
        bad.append(("witness",))
    rng = np.random.default_rng(707)
    worst_id = 0.0
    for _ in range(100):
        lam = rng.uniform(0.01, 1.0)
        mu = rng.uniform(0.0, lam)
        p = int(rng.integers(1, 4))
        op2 = OperatorParams(lam, mu, 1, p)
        gap = abs(delta_star(op2) + 1.0 / phi(op2, 1 - p) - 1.0)
        worst_id = max(worst_id, gap)
    if worst_id > 1e-12:
        bad.append(("identity", worst_id))
    ok = not bad
    announce(7, "neighborhood inclusion and sharpness", ok,
             f"100 neighbors hold, witness fails, identity gap = {worst_id:.3g}")
    assert ok, bad[:5]


def test_08_partial_sum_ratio_bounds(announce):
    """The sharp one-term function respects both ratio bounds on a grid
    reaching |z| = 0.999 (slack 1e-9) and comes within 1e-2 of each
    bound there: the first on the real axis, the second a quarter turn
    around (the cut-plus-pole power flips sign there)."""
    op = OperatorParams(1.0, 0.0, 1, 1)
    cp = ClassParams(0.5, 1.0)
    f = ratio_extremal(op, cp, 1, trunc_order=4)
    grid = SampleGrid(radii=(0.1, 0.3, 0.5, 0.7, 0.9, 0.999), angles_count=720)
    rep = partial_sum_bounds(op, cp, f, 1, grid)
    theta = float(ratio_weights(op, cp, np.array([1]))[0])
    km = partial_sum(f, 1)
    bad = []
    if rep.verdict != "holds" or rep.worst_margin < -1e-9:
        bad.append(("bounds", rep.verdict, rep.worst_margin))
    z1 = 0.999 + 0.0j
    gap1 = (eval_at(f, z1) / eval_at(km, z1)).real - (1.0 - 1.0 / theta)
    z2 = 0.999j
    gap2 = (eval_at(km, z2) / eval_at(f, z2)).real - theta / (1.0 + theta)
    for name, gap in (("first", gap1), ("second", gap2)):
        if not 0.0 <= gap < 1e-2:
            bad.append((name, gap))
    ok = not bad
    announce(8, "partial-sum ratio bounds", ok,
             f"worst margin = {rep.worst_margin:.3g}; "
             f"sharpness gaps {gap1:.3g} and {gap2:.3g} < 1e-2")
    assert ok, bad[:5]


def test_09_distortion_sharpness_and_divergence(announce):
    """The one-term extremal attains the closed-form upper bound at
    z = r to 1e-12, and the lower bound at z = -r whenever that bound
    is nonnegative (below zero it is vacuous: a modulus cannot reach
    it).  Configurations whose multiplier sum diverges (m = 0) are
    flagged, never silently truncated."""
    cases = (
        (OperatorParams(1.0, 0.0, 1, 1), ClassParams(0.5, 1.0)),
        (OperatorParams(0.5, 0.25, 2, 2), ClassParams(0.3, 0.5)),
        (OperatorParams(0.0, 0.0, 0, 3), ClassParams(0.75, 1.0)),
    )
    tail = TailPolicy("exact_support")
    bad = []
    worst = 0.0
    for op, cp in cases:
        n = 1 - op.p
        b = coeff_bound_plus(op, cp, n)
        f = LaurentSeries.pole_only(op.p, max(n, 2)).with_coeff(n, b)
        for r in (0.2, 0.5, 0.8):
            lower, upper = distortion(op, cp, r, "f_plus", tail)
            gap_hi = abs(abs(eval_at(f, r)) - upper)
            worst = max(worst, gap_hi)
            if gap_hi > 1e-12:
                bad.append((op, cp, r, "upper", gap_hi))
            if lower >= 0.0:
                gap_lo = abs(abs(eval_at(f, -r)) - lower)
                worst = max(worst, gap_lo)
                if gap_lo > 1e-12:
                    bad.append((op, cp, r, "lower", gap_lo))
    m0 = OperatorParams(0.0, 0.0, 0, 1)
    cp0 = ClassParams(0.5, 1.0)
    if distortion(m0, cp0, 0.5, "f_general", TailPolicy("divergent_flag")) != (
        float("-inf"), float("inf")
    ):
        bad.append(("divergent interval",))
    rep = distortion_report(
        m0, cp0, LaurentSeries.pole_only(1, 2), 0.5, "f_general",
        TailPolicy("divergent_flag"),
    )
    if rep.verdict != "inconclusive":
        bad.append(("divergent report", rep.verdict))
    try:
        distortion(m0, cp0, 0.5, "f_general", TailPolicy("tail_estimate"))
        bad.append(("divergence not refused",))
    except ValueError:
        pass
    ok = not bad
    announce(9, "distortion sharpness and divergence", ok,
             f"attainment gap = {worst:.3g}, tol 1e-12; divergent m=0 flagged")
    assert ok, bad[:5]


def test_10_negative_results_reproduced(announce):
    """Known failure modes are reported, not masked: at p = 1,
    alpha = 0, beta = 1 the ratio weight at k = 1 is exactly 1 (the
    monotone premise fails, so the partial-sum bounds are inconclusive)
    and the criterion weight at k = 0 vanishes (no extremal, no finite
    coefficient bound, and the exact criterion notes the gap)."""
    op = OperatorParams(0.0, 0.0, 0, 1)
    cp = ClassParams(0.0, 1.0)
    bad = []
    th = float(ratio_weights(op, cp, np.array([1]))[0])
    if th != 1.0:
        bad.append(("weight value", th))
    rep = partial_sum_bounds(op, cp, LaurentSeries.pole_only(1, 3), 1)
    if rep.verdict != "inconclusive" or "monotone" not in rep.detail:
        bad.append(("ratio bounds", rep.verdict, rep.detail))
    for fn in (lambda: extremal_fn(op, cp, 0), lambda: coeff_bound_plus(op, cp, 0)):
        try:
            fn()
            bad.append(("degenerate weight accepted",))
        except ValueError as exc:
            if "degenerate" not in str(exc):
                bad.append(("error wording", str(exc)))
    note = exact_membership_plus(op, cp, LaurentSeries.pole_only(1, 2).with_coeff(0, 0.3))
    if note.verdict != "holds" or "degenerate criterion weight" not in note.detail:
        bad.append(("missing note", note.verdict, note.detail))
    ok = not bad
    announce(10, "negative results reproduced", ok,
             "weight-1 counterexample inconclusive; degenerate index refused and noted")
    assert ok, bad[:5]
