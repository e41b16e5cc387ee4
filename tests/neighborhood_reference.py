"""Reference route for the inclusion verifiers: one checker call per trial.

``verify_inclusion_plus`` and ``verify_inclusion_general`` evaluate their
sampled trials in blocks of rows.  The functions here keep the serial
loops, one ``exact_membership_plus`` or ``numeric_membership`` call per
trial, so that tests can hold the batched verifiers to them report for
report and error for error.
"""
import math

import numpy as np

from merokit.generators import neighborhood_witnesses
from merokit.membership import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    RADIUS_CAP,
    SUM_TOL,
    Report,
    exact_membership_plus,
    numeric_membership,
)
from merokit.neighborhoods import WeightSeq, _premise_bound, _require_counts, distance, weight_array
from merokit.operator import delta_star
from merokit.series import LaurentSeries, default_grid, scale


def verify_inclusion_plus(op, cp, f, trials=100, seed=0):
    _require_counts(trials=trials)
    d = delta_star(op)
    if d == 0.0:
        return Report(INCONCLUSIVE, float("nan"), None, "degenerate radius delta = 0; nothing to verify")
    base = exact_membership_plus(op, cp, f)
    if base.verdict != HOLDS:
        return Report(
            INCONCLUSIVE, base.worst_margin, None,
            f"base function does not certify the exact criterion ({base.verdict}); "
            "inclusion hypothesis not established",
        )
    seq = WeightSeq("plus", op, cp)
    ks = f.k_values()
    s = weight_array(seq, ks)
    premise = float(np.dot(s, f.coeffs.real))
    bound = _premise_bound(op)
    if premise > bound + SUM_TOL:
        return Report(
            INCONCLUSIVE, bound - premise, None,
            f"premise violated: sum s_k a_k = {premise:.17g} > {bound:.17g}; "
            "inclusion is not implied for this function",
        )
    rng = np.random.default_rng(seed)
    nidx = min(16, len(ks))
    worst = np.inf
    for t in range(trials):
        u = d * rng.uniform(0.0, 1.0)
        mass = rng.dirichlet(np.ones(nidx))
        signs = rng.choice((-1.0, 1.0), size=nidx)
        arr = np.array(f.coeffs.real)
        for j in range(nidx):
            if s[j] <= SUM_TOL:
                continue  # degenerate weight: leave that coefficient alone
            arr[j] = max(0.0, arr[j] + signs[j] * u * mass[j] / s[j])
        g = LaurentSeries(op.p, f.trunc_order, arr.astype(complex), 1.0, True)
        rep = exact_membership_plus(op, cp, g)
        if rep.verdict != HOLDS:
            return Report(
                FAILS, rep.worst_margin, t,
                f"sampled neighbor #{t} (seed {seed}) violates the exact criterion "
                f"by {-rep.worst_margin:.3g}",
            )
        worst = min(worst, rep.worst_margin)
    ds = max(d * (1.0 + 1e-9), math.nextafter(d, math.inf))
    fw, gw = neighborhood_witnesses(op, cp, ds)
    wd = distance(seq, fw, gw)
    wrep = exact_membership_plus(op, cp, gw)
    if wrep.verdict != FAILS:
        return Report(
            INCONCLUSIVE, wrep.worst_margin, None,
            f"sharpness witness at distance {wd:.17g} passes the criterion "
            + ("outright (its inflation rounds away)" if wrep.worst_margin >= 0.0 else
               f"only within its tolerance {SUM_TOL:g}, exceeding the budget by {-wrep.worst_margin:.3g}")
            + "; sharpness not established",
        )
    detail = (
        f"trials={trials} seed={seed} delta={d:.17g} premise_slack={bound - premise:.3g}; "
        f"witness at delta*={ds:.17g} fails by {-wrep.worst_margin:.3g}"
    )
    if trials == 0:
        return Report(INCONCLUSIVE, float("nan"), None, "no neighbor sampled (trials = 0); " + detail)
    return Report(HOLDS, float(worst), None, detail)


def verify_inclusion_general(op, cp, f, delta, eps_trials=8, trials=32, grid=None, seed=0):
    if not delta > 0:
        raise ValueError(f"delta: must be > 0, got {delta}")
    _require_counts(trials=trials, eps_trials=eps_trials)
    if f.trunc_order < op.p:
        raise ValueError(
            f"trunc_order: need at least p={op.p} to represent the eps-shift, got {f.trunc_order}"
        )
    seq = WeightSeq("general", op, cp)
    grid = grid or default_grid()
    if grid.points(radius_cap=RADIUS_CAP).size == 0:
        return numeric_membership(op, cp, f, grid)
    rng = np.random.default_rng(seed)
    eps_list = [0.0 + 0.0j]
    while len(eps_list) < max(1, eps_trials):
        e = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0)
        if abs(e) < 1.0:
            eps_list.append(delta * e)
    for i, eps in enumerate(eps_list):
        shifted = f.with_coeff(op.p, f.coeff(op.p) + eps)
        g = scale(shifted, 1.0 / (1.0 + eps))
        rep = numeric_membership(op, cp, g, grid)
        if rep.verdict != HOLDS:
            return Report(
                INCONCLUSIVE, rep.worst_margin, None,
                f"hypothesis not established: eps sample #{i} (eps={eps:.6g}, seed {seed}) "
                f"gives {rep.verdict} at witness {rep.witness}",
            )
    ks = f.k_values()
    s = weight_array(seq, ks)
    nidx = min(16, len(ks))
    worst = np.inf
    worst_witness = None
    for t in range(trials):
        u = rng.uniform(0.0, delta)
        mass = rng.dirichlet(np.ones(nidx))
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=nidx))
        arr = np.array(f.coeffs)
        for j in range(nidx):
            if s[j] <= SUM_TOL:
                continue
            arr[j] = arr[j] + u * mass[j] * phases[j] / s[j]
        g = LaurentSeries(op.p, f.trunc_order, arr, 1.0, f.exact_support)
        rep = numeric_membership(op, cp, g, grid)
        if rep.verdict != HOLDS:
            return Report(
                FAILS, rep.worst_margin, rep.witness,
                f"sampled neighbor #{t} (seed {seed}) leaves the class: {rep.detail}",
            )
        if rep.worst_margin < worst:
            worst = rep.worst_margin
            worst_witness = rep.witness
    detail = (
        f"eps_trials={len(eps_list)} trials={trials} seed={seed} delta={delta:.17g} "
        f"grid={grid.digest()}"
    )
    if trials == 0:
        return Report(INCONCLUSIVE, float("nan"), None, "no neighbor sampled (trials = 0); " + detail)
    return Report(HOLDS, float(worst), worst_witness, detail)
