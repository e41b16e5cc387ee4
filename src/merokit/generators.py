"""Constructions that produce certified members of the classes.

Two structural representations generate beta = 1 members:

* ``from_herglotz``: a finite unit-circle measure sum w_j at atoms x_j
  (w_j >= 0, sum w_j = 1) yields

      z^p * (operator^m f)(z) = prod_j (1 - x_j z)^{c w_j},
      c = 2 p (1 - alpha),

  realized through the log/exp series machinery and then pulled back
  through the operator's diagonal inverse.

* ``from_schwarz``: a polynomial self-map w of the disk with w(0) = 0
  (checked by dense boundary sampling, plus the coefficient-sum bound
  as a second certificate) yields, for 0 < beta <= 1,

      log(z^p (operator^m f)(z))
          = -2 p (1 - alpha) beta * int_0^z w(t) / (t (1 - beta w(t))) dt.

  The minus sign is forced by the defining quotient identity
  z F'/F = (p(2 alpha - 1) beta w - p)/(1 - beta w), which tests verify
  by residual; with w(z) = x z and beta = 1 this reproduces the
  single-atom product above coefficient for coefficient.

``extremal_fn`` builds the single-term function that meets the exact
coefficient criterion with equality, and ``neighborhood_witnesses``
the pair showing the neighborhood radius cannot be enlarged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import coeff_bound_plus
from .membership import SUM_TOL, ClassParams, ratio_weights
from .operator import OperatorParams, invert
from .operator import delta_star as _delta_star
from .series import (
    LaurentSeries,
    PowerSeries,
    SampleGrid,
    cauchy_mul,
    default_trunc_order,
    json_number,
    json_pair,
    log_one_minus,
    polyval,
    series_exp,
)

#: boundary sampling used to certify a disk self-map
_SCHWARZ_SAMPLES = 4096
_SCHWARZ_RADIUS = 0.999


@dataclass(frozen=True)
class MeasureAtoms:
    """Finite probability measure on the unit circle: ((x_j, w_j), ...)."""

    atoms: tuple[tuple[complex, float], ...]

    def __post_init__(self) -> None:
        if len(self.atoms) == 0:
            raise ValueError("atoms: need at least one atom")
        norm = []
        total = 0.0
        for i, (x, w) in enumerate(self.atoms):
            x = complex(x)
            w = float(w)
            r = abs(x)
            if abs(r - 1.0) > 1e-9:
                raise ValueError(f"atoms[{i}].x: |x| must be 1, got {r}")
            if w < 0:
                raise ValueError(f"atoms[{i}].w: weights must be >= 0, got {w}")
            norm.append((x / r, w))
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atoms: weights must sum to 1, got {total}")
        object.__setattr__(self, "atoms", tuple(norm))

    def to_json_dict(self) -> dict:
        return {"atoms": [[[x.real, x.imag], w] for x, w in self.atoms]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MeasureAtoms":
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise ValueError("atoms: expected an object with an 'atoms' list")
        if not isinstance(obj["atoms"], list):
            raise ValueError("atoms.atoms: expected a list of [[re, im], w] entries")
        out = []
        for i, item in enumerate(obj["atoms"]):
            if not isinstance(item, list) or len(item) != 2:
                raise ValueError(f"atoms.atoms[{i}]: expected [[re, im], w]")
            where = f"atoms.atoms[{i}]"
            out.append((json_pair(item[0], where), json_number(item[1], where)))
        return cls(tuple(out))


@dataclass(frozen=True)
class SchwarzPoly:
    """Polynomial disk self-map w(z) = sum_{i>=1} c_i z^i, w(0) = 0.

    Construction certifies |w| < 1 by sampling 4096 boundary points at
    radius 0.999 and records the coefficient-sum bound sum|c_i| <= 1
    (sufficient on its own) as a fallback certificate.
    """

    coeffs: tuple[complex, ...]  # c_1 .. c_d

    def __post_init__(self) -> None:
        cs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)
        cauchy = float(np.sum(np.abs(cs))) if cs else 0.0
        if cs:
            zs = SampleGrid((_SCHWARZ_RADIUS,), _SCHWARZ_SAMPLES).points()
            boundary = float(np.max(np.abs(self.eval_many(zs))))
        else:
            boundary = 0.0
        object.__setattr__(self, "boundary_max", boundary)
        object.__setattr__(self, "cauchy_sum", cauchy)
        if boundary >= 1.0:
            raise ValueError(
                f"coeffs: not a disk self-map, sampled max |w| = {boundary} >= 1"
            )

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        # operand order matters: ``polyval(...) * zs`` rounds exactly like
        # the nested form z*(c_1 + z*(c_2 + ...)), ``zs * polyval(...)`` does not
        return polyval(self.coeffs, zs) * zs

    def certificate(self) -> dict:
        return {
            "boundary_samples": _SCHWARZ_SAMPLES,
            "boundary_radius": _SCHWARZ_RADIUS,
            "boundary_max": self.boundary_max,
            "cauchy_sum": self.cauchy_sum,
            "cauchy_bound_ok": self.cauchy_sum <= 1.0,
        }

    def to_json_dict(self) -> dict:
        return {"coeffs": [[c.real, c.imag] for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SchwarzPoly":
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise ValueError("schwarz: expected an object with a 'coeffs' list")
        return cls(tuple(
            json_pair(pair, f"schwarz.coeffs[{i}]") for i, pair in enumerate(obj["coeffs"])
        ))


def _pullback(op: OperatorParams, taylor: PowerSeries, trunc_order: int) -> LaurentSeries:
    """Interpret a Taylor series as z^p * (operator^m f) and recover f."""
    transformed = LaurentSeries(
        op.p, trunc_order, taylor.coeffs[1 : trunc_order + op.p + 1], taylor.coeffs[0]
    )
    return invert(op, transformed.renormalized())


def _resolve_trunc(op: OperatorParams, trunc_order: int | None) -> int:
    K = default_trunc_order(op.p) if trunc_order is None else int(trunc_order)
    if K < 1 - op.p:
        raise ValueError(f"trunc_order: must be >= {1 - op.p}, got {K}")
    return K


def from_herglotz(
    op: OperatorParams,
    alpha: float,
    measure: MeasureAtoms,
    trunc_order: int | None = None,
) -> LaurentSeries:
    """Member from a finite boundary measure (beta = 1 construction)."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha: need 0 <= alpha < 1, got {alpha}")
    K = _resolve_trunc(op, trunc_order)
    order = K + op.p
    c = 2.0 * op.p * (1.0 - alpha)
    acc = np.zeros(order + 1, dtype=np.complex128)
    for x, w in measure.atoms:
        if w == 0.0:
            continue
        acc = acc + (c * w) * log_one_minus(x, order).coeffs
    target = series_exp(PowerSeries(acc))
    return _pullback(op, target, K)


def from_schwarz(
    op: OperatorParams,
    cp: ClassParams,
    w: SchwarzPoly,
    trunc_order: int | None = None,
) -> LaurentSeries:
    """Member from a polynomial disk self-map (any 0 < beta <= 1)."""
    K = _resolve_trunc(op, trunc_order)
    order = K + op.p
    if not w.coeffs:
        return LaurentSeries.pole_only(op.p, K)
    # u = beta * w, as a Taylor array of length `order` (exponents 0..order-1)
    u = np.zeros(order, dtype=np.complex128)
    d = min(len(w.coeffs), order - 1)
    u[1 : d + 1] = cp.beta * np.asarray(w.coeffs[:d])
    # geometric expansion g = 1/(1 - u):  g_n = sum_{j=1..n} u_j g_{n-j}
    g = np.zeros(order, dtype=np.complex128)
    g[0] = 1.0
    for n in range(1, order):
        g[n] = np.dot(u[1 : n + 1], g[n - 1 :: -1][:n])
    # w(t)/t is the coefficient shift of w; the polynomial is exactly
    # supported, so padding with true zeros is sound here
    wq = np.zeros(order, dtype=np.complex128)
    wq[:d] = np.asarray(w.coeffs[:d])
    integrand = cauchy_mul(PowerSeries(wq), PowerSeries(g))
    t = np.zeros(order + 1, dtype=np.complex128)
    t[1:] = integrand.coeffs / np.arange(1, order + 1)
    scale = -2.0 * op.p * (1.0 - cp.alpha) * cp.beta
    target = series_exp(PowerSeries(scale * t))
    return _pullback(op, target, K)


def extremal_fn(op: OperatorParams, cp: ClassParams, n: int) -> LaurentSeries:
    """Single-term function meeting the exact criterion with equality:

        z^-p + (2 p beta (1 - alpha) / weight_n) z^n.

    Rejects indices whose criterion weight is degenerate (<= 0), where no
    such nonnegative extremal exists."""
    coeff = coeff_bound_plus(op, cp, n)
    return LaurentSeries.pole_only(op.p, n).with_coeff(n, coeff)


def ratio_extremal(
    op: OperatorParams, cp: ClassParams, m_cut: int, trunc_order: int | None = None
) -> LaurentSeries:
    """Sharp function for the partial-sum ratio bounds:

        z^-p - (1 / theta) z^m_cut,   theta = criterion weight at m_cut
                                              over the budget.

    Its weighted coefficient sum is exactly 1, so it sits on the
    hypothesis boundary, and the ratio against its cut at m_cut comes
    arbitrarily close to both bounds near the unit circle."""
    if m_cut < 1 - op.p:
        raise ValueError(f"m_cut: must be >= {1 - op.p}, got {m_cut}")
    theta = float(ratio_weights(op, cp, np.array([m_cut]))[0])
    if theta <= SUM_TOL:
        raise ValueError(f"m_cut: weight at k={m_cut} is degenerate ({theta}); no extremal")
    K = max(m_cut, 1 - op.p) if trunc_order is None else trunc_order
    f = LaurentSeries.pole_only(op.p, K)
    return f.with_coeff(m_cut, -1.0 / theta)


def neighborhood_witnesses(
    op: OperatorParams, cp: ClassParams, delta_star: float
) -> tuple[LaurentSeries, LaurentSeries]:
    """Sharpness pair for the neighborhood-inclusion radius delta:
    f is the extremal at k = 1-p, g inflates its tail coefficient by
    (1 + delta_star).  g sits at weighted distance exactly delta_star
    from f and fails the exact criterion; for delta_star > delta this
    shows the radius is maximal.  Requires delta_star > delta."""
    d = _delta_star(op)
    if not delta_star > d:
        raise ValueError(f"delta_star: must exceed delta = {d}, got {delta_star}")
    n = 1 - op.p
    f = extremal_fn(op, cp, n)
    g = f.with_coeff(n, f.coeff(n) * (1.0 + delta_star))
    return f, g
