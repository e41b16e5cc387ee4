"""Constructions that produce certified members of the classes.

Two structural representations generate beta = 1 members:

* ``from_herglotz``: a finite unit-circle measure sum w_j at atoms x_j
  (w_j >= 0, sum w_j = 1) yields

      z^p * (operator^m f)(z) = prod_j (1 - x_j z)^{c w_j},
      c = 2 p (1 - alpha),

  each factor a binomial series, multiplied out and then pulled back
  through the operator's diagonal inverse.

* ``from_schwarz``: a polynomial self-map w of the disk with w(0) = 0
  (checked by dense boundary sampling, plus the coefficient-sum bound
  as a second certificate) yields, for 0 < beta <= 1,

      log(z^p (operator^m f)(z))
          = -2 p (1 - alpha) beta * int_0^z w(t) / (t (1 - beta w(t))) dt.

  The minus sign is forced by the defining quotient identity
  z F'/F = (p(2 alpha - 1) beta w - p)/(1 - beta w), which tests verify
  by residual; with w(z) = x z and beta = 1 this reproduces the
  single-atom product above coefficient for coefficient.  The
  coefficients come from the linear recurrence that identity implies
  for h = z^p F, one term per coefficient of w, run in blocks
  (``_recurrence``) when w's degree is small against the order.

``extremal_fn`` builds the single-term function that meets the exact
coefficient criterion with equality, and ``neighborhood_witnesses``
the pair showing the neighborhood radius cannot be enlarged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import coeff_bound_plus
from .membership import SUM_TOL, ClassParams, ratio_weights
from .operator import OperatorParams, invert
from .operator import delta_star as _delta_star
from .series import (
    LaurentSeries,
    SampleGrid,
    default_trunc_order,
    json_number,
    json_pair,
    polyval,
)

#: boundary sampling used to certify a disk self-map
_SCHWARZ_SAMPLES = 4096
_SCHWARZ_RADIUS = 0.999


_SCHWARZ_GRID = SampleGrid((_SCHWARZ_RADIUS,), _SCHWARZ_SAMPLES)


def _schwarz_points() -> np.ndarray:
    """The boundary sample points, read-only, built on first use (as every grid's
    points are): at import they would add to every cold process's peak memory."""
    return _SCHWARZ_GRID.points()


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
        with np.errstate(over="ignore"):  # an overflow is inf here, and NaN in w's values
            cauchy = float(np.sum(np.abs(cs)))
            boundary = float(np.max(np.abs(self.eval_many(_schwarz_points()))))  # 0.0 for w = 0
        object.__setattr__(self, "boundary_max", boundary)
        object.__setattr__(self, "cauchy_sum", cauchy)
        if not boundary < 1.0:
            raise ValueError(
                f"coeffs: not a disk self-map, sampled max |w| = {boundary}, not below 1"
            )

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        # one Horner pass of c_0 = 0, c_1 .. c_d, so every product rounds as
        # ``polyval``'s do; the last step adds c_0, so a zero part is +0.0
        return polyval((0j, *self.coeffs), zs)

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


def _pullback(op: OperatorParams, taylor: np.ndarray, trunc_order: int) -> LaurentSeries:
    """Read the Taylor coefficients h_0 = 1, h_1, .. of h = z^p * (operator^m f)
    as the tail of operator^m f and recover f."""
    return invert(op, LaurentSeries(op.p, trunc_order, taylor[1 : trunc_order + op.p + 1]))


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
    n = np.arange(1, order + 1)
    # (1 - x z)^a = sum_n binom(a, n) (-x z)^n: ratio x (n - 1 - a) / n
    factors = (np.cumprod(np.concatenate(([1.0], x * (n - 1 - c * w) / n)))
               for x, w in measure.atoms if w != 0.0)
    # the weights sum to 1, so some atom has one, and the product starts from its
    # factor; + 0.0 turns its negative zeros positive, as a convolution with 1 did
    acc = next(factors) + 0.0
    for factor in factors:
        acc = np.convolve(acc, factor)[: order + 1]
    return _pullback(op, acc, K)


def from_schwarz(
    op: OperatorParams,
    cp: ClassParams,
    w: SchwarzPoly,
    trunc_order: int | None = None,
) -> LaurentSeries:
    """Member from a polynomial disk self-map (any 0 < beta <= 1).

    h = z^p F solves (1 - beta w) z h' = -c beta w h, c = 2 p (1 - alpha), so

        n h_n = sum_{i=1..d} beta w_i (n - i - c) h_{n-i},   d = min(deg w, K + p),

    a linear recurrence of order d from h_0 = 1, which ``_recurrence`` runs
    in blocks where d is small against K + p, and term by term elsewhere."""
    K = _resolve_trunc(op, trunc_order)
    order = K + op.p
    if not w.coeffs:
        return LaurentSeries.pole_only(op.p, K)
    c = 2.0 * op.p * (1.0 - cp.alpha)
    bw = cp.beta * np.asarray(w.coeffs[:order])
    d = bw.size
    n = np.arange(1, order + 1)[:, None]
    rows = (bw * (n - np.arange(1, d + 1) - c) / n)[:, ::-1]  # weights of h_{n-d} .. h_{n-1}
    return _pullback(op, _recurrence(rows), K)


#: the blocked recurrence runs only with at least _MIN_BLOCKS blocks, since a batched
#: step costs about two plain ones, and only for orders up to _MAX_BLOCK_ORDER, since
#: the d unit windows multiply each step's work by d
_MIN_BLOCKS = 3
_MAX_BLOCK_ORDER = 24


def _block_count(N: int, d: int) -> int:
    """Blocks of ``_recurrence`` for N steps of order d: min(isqrt(N), N // d^2),
    or 1 (term by term) where blocks do not pay."""
    m = min(math.isqrt(N), N // (d * d))
    return m if m >= _MIN_BLOCKS and d <= _MAX_BLOCK_ORDER else 1


def _recurrence(rows: np.ndarray) -> np.ndarray:
    """h_0 .. h_N of h_n = rows[n-1] . (h_{n-d} .. h_{n-1}), h_0 = 1 and h_{<0} = 0,
    for an N x d ``rows``.

    With m = ``_block_count(N, d)`` > 1, the first m L steps, L = N // m, split into m
    blocks of L.  All blocks advance together, one batched product per step, each from
    the d unit windows: that gives every block's values as a linear map of the d values
    before it.  The end windows then chain the blocks with m - 1 products of d x d, one
    contraction gives every block's values, and the N - m L steps left over run one at
    a time.  That is about sqrt(N) batched steps in place of N, in O(N d) memory.  With
    m = 1 the recurrence runs term by term, a dot product a step."""
    N, d = rows.shape
    h = np.zeros(d + N + 1, dtype=np.complex128)  # h[d + n] = h_n; h_{-d} .. h_{-1} are 0
    h[d] = 1.0
    m = _block_count(N, d)
    done = 0
    if m > 1:
        L = N // m
        blocks = rows[: m * L].reshape(m, L, 1, d)
        # basis[b, d + t, j]: t + 1 steps into block b from the unit window e_j
        basis = np.zeros((m, d + L, d), dtype=np.complex128)
        basis[:, np.arange(d), np.arange(d)] = 1.0
        for t in range(L):
            np.matmul(blocks[:, t], basis[:, t : t + d], out=basis[:, d + t : d + t + 1])
        starts = np.zeros((m, d), dtype=np.complex128)  # each block's window h_{bL-d+1} .. h_{bL}
        starts[0, -1] = 1.0
        for b in range(1, m):
            np.matmul(basis[b - 1, L:], starts[b - 1], out=starts[b])
        # one contraction, not a matrix-vector product per block: BLAS may thread those
        np.einsum("btj,bj->bt", basis[:, d:], starts, out=h[d + 1 : d + 1 + m * L].reshape(m, L))
        done = m * L
    for k in range(done, N):
        h[d + k + 1] = rows[k] @ h[k + 1 : k + d + 1]
    return h[d:]


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
    return _witness_pair(op, coeff_bound_plus(op, cp, 1 - op.p), delta_star)


def _witness_pair(op: OperatorParams, coeff: float, delta_star: float) -> tuple[LaurentSeries, LaurentSeries]:
    """``neighborhood_witnesses`` from the extremal's coefficient at k = 1-p."""
    n = 1 - op.p
    f = LaurentSeries.pole_only(op.p, n).with_coeff(n, coeff)
    return f, f.with_coeff(n, f.coeff(n) * (1.0 + delta_star))
