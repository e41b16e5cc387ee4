"""The two-parameter differential operator and its coefficient action.

On a pole-order-p series the m-th operator power acts diagonally: the
coefficient at z^k is multiplied by

    phi_k = (1 + (k+p) * (lam - mu + (k+p+1) * lam * mu)) ** m

with 0 <= mu <= lam and integer m >= 0 (m = 0 is the identity).  The
multiplier at the pole index k = -p is exactly 1, so the normalization
of a class function survives the operator.

Two independent routes compute the same action and are kept distinct on
purpose: ``apply_coeff`` multiplies by ``phi`` directly, while
``apply_differential`` iterates the defining first-order construction
(shift by z^{p+1}, differentiate, shift back) literally.  Their
agreement is a structural check, so neither may be implemented in terms
of the other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import LaurentSeries, json_int, json_number


@dataclass(frozen=True)
class OperatorParams:
    """Operator parameters: lam >= mu >= 0, power m >= 0, pole order p >= 1."""

    lam: float
    mu: float
    m: int
    p: int

    def __post_init__(self) -> None:
        lam, mu = float(self.lam), float(self.mu)
        if not 0.0 <= mu <= lam:
            raise ValueError(f"mu: need 0 <= mu <= lam, got mu={mu}, lam={lam}")
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"m: must be an integer >= 0, got {self.m!r}")
        if not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise ValueError(f"p: must be an integer >= 1, got {self.p!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "p", int(self.p))

    def to_json_dict(self) -> dict:
        return {"lambda": self.lam, "mu": self.mu, "m": self.m, "p": self.p}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "OperatorParams":
        if not isinstance(obj, dict):
            raise ValueError("params: expected a JSON object")
        for key in ("lambda", "mu", "m", "p"):
            if key not in obj:
                raise ValueError(f"params.{key}: missing")
        return cls(
            json_number(obj["lambda"], "params.lambda"),
            json_number(obj["mu"], "params.mu"),
            json_int(obj["m"], "params.m"),
            json_int(obj["p"], "params.p"),
        )


def phi_base(op: OperatorParams, k: int | np.ndarray) -> float | np.ndarray:
    """The m = 1 multiplier 1 + (k+p)(lam - mu + (k+p+1) lam mu); at mu = 0, 1 + (k+p) lam,
    the same value without an overflowing (k+p+1) lam times 0."""
    j = (np.asarray(k).astype(np.uint64) + np.uint64(op.p)).astype(float)  # k + p >= 0 is exact in uint64
    if op.mu == 0.0:
        return 1.0 + j * op.lam
    return 1.0 + j * (op.lam - op.mu + (j + 1.0) * op.lam * op.mu)


def phi(op: OperatorParams, k: int) -> float:
    """Diagonal multiplier at index k.  Defined for k >= 1-p and k = -p
    (where it is identically 1)."""
    return float(phi_array(op, np.array([k]))[0])


def phi_array(op: OperatorParams, ks: np.ndarray) -> np.ndarray:
    """Vectorized ``phi`` over an index array, by repeated multiplication.
    A multiplier that overflows a float is an OverflowError."""
    ks = _admitted(op, ks)
    return _finite_phi(op, ks, _phi_product(op, ks))


def _admitted(op: OperatorParams, ks: np.ndarray) -> np.ndarray:
    """``ks`` as an array, if phi is defined at each index; else a ValueError."""
    ks = np.asarray(ks)
    bad = ks[(ks < 1 - op.p) & (ks != -op.p)]
    if bad.size:
        raise ValueError(
            f"k: indices below {1 - op.p} (other than the pole index {-op.p}) "
            f"not admitted: {bad.tolist()}"
        )
    return ks


def _finite_phi(op: OperatorParams, ks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, the multipliers over ``ks``, if every one is finite; else
    ``phi_array``'s OverflowError, naming the first k whose multiplier is not."""
    if not np.all(np.isfinite(out)):
        k = int(ks[~np.isfinite(out)][0])
        raise OverflowError(f"phi: the multiplier at k={k} overflows a float (m={op.m})")
    return out


#: steps of ``_phi_product`` taken by repeated multiplication
_PHI_STEPS = 4096


def _phi_product(op: OperatorParams, ks: np.ndarray) -> np.ndarray:
    """``phi_array`` without its checks: a multiplier that overflows is inf.
    The first _PHI_STEPS factors are multiplied one at a time, stopping early
    once a step leaves every entry unchanged (each base is 1 or its power has
    overflowed to inf), since every later step would too; the product of any
    remaining ones is ``base ** (m - _PHI_STEPS)``, one power."""
    with np.errstate(over="ignore"):
        base = phi_base(op, ks)
        out = np.ones_like(base, dtype=float)
        for _ in range(min(op.m, _PHI_STEPS)):
            nxt = out * base
            if np.array_equal(nxt, out):
                return out
            out = nxt
        if op.m > _PHI_STEPS:
            out = out * base ** float(op.m - _PHI_STEPS)
    return out


def delta_star(op: OperatorParams) -> float:
    """The neighborhood inclusion radius t / (1 + t), t = 2 lam mu + lam - mu, carried by the
    operator parameters; 0 at lam = mu = 0, a degenerate radius that its callers report.  At
    mu = 0, t = lam, with no overflowing 2 lam times 0; a t that overflows gives the limit 1."""
    t = op.lam if op.mu == 0.0 else 2.0 * op.lam * op.mu + op.lam - op.mu
    return 1.0 if math.isinf(t) else t / (1.0 + t)


def require_pole_order(op: OperatorParams, f: LaurentSeries) -> None:
    """Reject a series whose pole order differs from the operator's p."""
    if f.pole_order != op.p:
        raise ValueError(f"p: params have p={op.p} but series has pole_order={f.pole_order}")


def apply_coeff(op: OperatorParams, f: LaurentSeries) -> LaurentSeries:
    """Coefficient route: multiply a_k by phi_k (pole untouched, phi_{-p}=1).
    An image coefficient that overflows a float is an OverflowError."""
    require_pole_order(op, f)
    return _applied(op, f, phi_array(op, f.k_values()))


def _applied(op: OperatorParams, f: LaurentSeries, phis: np.ndarray) -> LaurentSeries:
    """``apply_coeff`` of f, of pole order p, from its multipliers ``phis`` over its ks,
    each finite; an image coefficient that overflows a float is an OverflowError."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = f.coeffs * phis
    if not np.all(np.isfinite(coeffs)):
        k = f.k_values()[~np.isfinite(coeffs)][0]
        raise OverflowError(f"apply: the operator image overflows a float at k={k} (m={op.m})")
    return LaurentSeries(f.pole_order, f.trunc_order, coeffs, f.lead, f.exact_support)


def apply_differential(op: OperatorParams, f: LaurentSeries) -> LaurentSeries:
    """Symbolic route, iterated m times:

        D g = lam*mu * [z^{p+1} g]'' / z^{p-1}
            + (lam - mu) * [z^{p+1} g]' / z^p
            + (1 - lam + mu) * g

    realized literally as index shifts plus term-wise differentiation.
    Agrees with ``apply_coeff`` up to rounding at the same truncation.
    """
    require_pole_order(op, f)
    p = op.p
    # full coefficient vector over exponents -p .. K
    cur = np.concatenate(([complex(f.lead)], f.coeffs))
    for _ in range(op.m):
        # g = z^{p+1} * cur has exponents 1 .. K+p+1; store ascending from 0
        g = np.concatenate(([0.0 + 0.0j], cur))
        j = np.arange(len(g))
        g1 = j * g                      # coefficients of z^{j-1}, kept at slot j
        g2 = j * (j - 1) * g            # coefficients of z^{j-2}, kept at slot j
        # [z^{p+1} cur]' / z^p     : exponent (j-1) - p  = original k
        # [z^{p+1} cur]'' / z^{p-1}: exponent (j-2) - (p-1) = original k
        cur = (
            op.lam * op.mu * g2[1:]
            + (op.lam - op.mu) * g1[1:]
            + (1.0 - op.lam + op.mu) * g[1:]
        )
    return LaurentSeries(
        p, f.trunc_order, cur[1:], complex(cur[0]), f.exact_support
    )


def invert(op: OperatorParams, g: LaurentSeries) -> LaurentSeries:
    """Divide each a_k by phi_k, undoing ``apply_coeff`` exactly.

    No multiplier vanishes: lam >= mu >= 0 makes every base
    1 + (k+p)(lam - mu + (k+p+1) lam mu) at least 1 for k >= -p, so
    phi_k >= 1 (or it overflows, an OverflowError of ``phi_array``)."""
    require_pole_order(op, g)
    coeffs = g.coeffs / phi_array(op, g.k_values())
    return LaurentSeries(g.pole_order, g.trunc_order, coeffs, g.lead, g.exact_support)


def kernel_h(op: OperatorParams, trunc_order: int) -> LaurentSeries:
    """The convolution kernel z^-p + sum phi_k z^k whose Hadamard product
    realizes the operator: hadamard(kernel_h, f) == apply_coeff(f)."""
    ks = np.arange(1 - op.p, trunc_order + 1)
    return LaurentSeries(op.p, trunc_order, phi_array(op, ks).astype(complex), 1.0, False)


def integral_operator(f: LaurentSeries, c: float) -> LaurentSeries:
    """Averaging transform: a_k -> c/(c+p+k) * a_k for c > 0.

    The pole coefficient maps by c/c = 1, so normalization survives; all
    multipliers lie in (0, 1], which is what coefficient-criterion
    closure arguments rely on."""
    if not c > 0:
        raise ValueError(f"c: must be > 0, got {c}")
    p = f.pole_order
    mult = c / (c + p + f.k_values())
    return LaurentSeries(p, f.trunc_order, f.coeffs * mult, f.lead, f.exact_support)
