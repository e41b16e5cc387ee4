"""Truncated Laurent series over complex coefficients.

A pole-order-``p`` series represents

    f(z) = lead * z**(-p) + sum_{k=1-p}^{K} a_k z**k

on the punctured unit disk 0 < |z| < 1.  Functions of the class under
study are normalized to ``lead == 1`` and the leading coefficient is
implicit in their JSON wire format.  Operations that break the
normalization (``add``, ``derivative``, ``scale``) return a series whose
``lead`` field records the actual leading coefficient and whose
``is_normalized`` flag is False; callers renormalize explicitly via
:meth:`LaurentSeries.renormalized` rather than silently.

Truncation discipline: binary operations cut to the shorter operand.
A missing coefficient is unknown, not zero, so nothing here zero-pads
unless both operands carry ``exact_support`` (all coefficients beyond
the stored range known to be exactly zero).

Evaluation is only meaningful inside the punctured disk; ``eval_at`` and
``eval_many`` reject z == 0 and any z that is not a finite point with
|z| < 1, NaN included.  They evaluate by Horner at arbitrary points
(``polyval``), in textbook complex arithmetic: each product
(ar*xr - ai*xi, ar*xi + ai*xr) and each sum is rounded once, with no fused
multiply-add, the same on every route and whatever CPU features numpy
dispatches to.  ``eval_circles`` evaluates on the circles of a
``SampleGrid`` by one inverse FFT of M bins per circle, M = angles_count,
each term a_k r^k added into bin k mod M; its powers r^k are running
products with each step's rounding corrected, correctly rounded in all but
the far tails, so its bits do not depend on those CPU features either.  A
``SampleGrid`` builds its points and its table of r^k once, on first use.
"""
from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

#: stored-coefficient budget used when a caller does not pick one; the
#: tail a_{1-p}..a_K then holds 64 entries, i.e. trunc_order = 64 - p.
DEFAULT_COEFF_COUNT = 64


def default_trunc_order(pole_order: int) -> int:
    return DEFAULT_COEFF_COUNT - pole_order


def json_int(value, where: str) -> int:
    """A JSON integer field; floats, strings and booleans are errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected a JSON integer, got {value!r}")
    return value


def json_number(value, where: str) -> float:
    """A finite JSON number field; strings, booleans, NaN and infinities are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a JSON number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise ValueError(f"{where}: expected a finite number, got {x}")
    return x


def json_pair(pair, where: str) -> complex:
    """A coefficient [re, im] of two JSON numbers."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"{where}: expected [re, im]")
    return complex(json_number(pair[0], where), json_number(pair[1], where))


@dataclass(frozen=True, eq=False)
class LaurentSeries:
    """Truncated series lead*z^-p + sum a_k z^k, k = 1-p .. trunc_order."""

    pole_order: int
    trunc_order: int
    coeffs: np.ndarray
    lead: complex = 1.0 + 0.0j
    exact_support: bool = False

    def __post_init__(self) -> None:
        p, k = self.pole_order, self.trunc_order
        if not isinstance(p, (int, np.integer)) or p < 1:
            raise ValueError(f"pole_order: must be an integer >= 1, got {p!r}")
        if not isinstance(k, (int, np.integer)) or k < 1 - p:
            raise ValueError(
                f"trunc_order: must be an integer >= {1 - p}, got {k!r}"
            )
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        want = k - (1 - p) + 1
        if arr.ndim != 1 or len(arr) != want:
            raise ValueError(
                f"coeffs: expected {want} entries for pole_order {p}, "
                f"trunc_order {k}, got shape {arr.shape}"
            )
        arr = np.array(arr)  # a private, read-only copy
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "lead", complex(self.lead))
        object.__setattr__(self, "exact_support", bool(self.exact_support))

    # -- basic views ---------------------------------------------------

    @property
    def is_normalized(self) -> bool:
        return self.lead == 1

    def k_values(self) -> np.ndarray:
        return np.arange(1 - self.pole_order, self.trunc_order + 1)

    def coeff(self, k: int) -> complex:
        lo = 1 - self.pole_order
        if k == -self.pole_order:
            return self.lead
        if not lo <= k <= self.trunc_order:
            raise IndexError(f"k={k} outside stored range [{lo}, {self.trunc_order}]")
        return complex(self.coeffs[k - lo])

    def with_coeff(self, k: int, value: complex) -> "LaurentSeries":
        lo = 1 - self.pole_order
        arr = np.array(self.coeffs)
        arr[k - lo] = value
        return LaurentSeries(
            self.pole_order, self.trunc_order, arr, self.lead, self.exact_support
        )

    def renormalized(self) -> "LaurentSeries":
        """Divide through by the leading coefficient."""
        if self.lead == 0:
            raise ValueError("lead: cannot renormalize a series with zero lead")
        if self.lead == 1:
            return self
        return LaurentSeries(
            self.pole_order,
            self.trunc_order,
            self.coeffs / self.lead,
            1.0,
            self.exact_support,
        )

    @classmethod
    def pole_only(
        cls, pole_order: int, trunc_order: int | None = None
    ) -> "LaurentSeries":
        """The function z^-p with a zero (exact) tail."""
        if trunc_order is None:
            trunc_order = default_trunc_order(pole_order)
        n = trunc_order - (1 - pole_order) + 1
        return cls(pole_order, trunc_order, np.zeros(n), 1.0, True)

    # -- JSON wire format ---------------------------------------------

    def to_json_dict(self) -> dict:
        if not self.is_normalized:
            raise ValueError(
                "lead: only normalized series (lead == 1) have a wire format; "
                "call renormalized() first"
            )
        out = {
            "pole_order": int(self.pole_order),
            "trunc_order": int(self.trunc_order),
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }
        if self.exact_support:
            out["exact_support"] = True
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LaurentSeries":
        if not isinstance(obj, dict):
            raise ValueError("series: expected a JSON object")
        for key in ("pole_order", "trunc_order", "coeffs"):
            if key not in obj:
                raise ValueError(f"series.{key}: missing")
        raw = obj["coeffs"]
        if not isinstance(raw, list):
            raise ValueError("series.coeffs: expected a list of [re, im] pairs")
        vals = [json_pair(pair, f"series.coeffs[{i}]") for i, pair in enumerate(raw)]
        exact = obj.get("exact_support", False)
        if not isinstance(exact, bool):
            raise ValueError(f"series.exact_support: expected true or false, got {exact!r}")
        return cls(
            json_int(obj["pole_order"], "series.pole_order"),
            json_int(obj["trunc_order"], "series.trunc_order"),
            np.array(vals, dtype=np.complex128),
            1.0,
            exact,
        )


@dataclass(frozen=True)
class SampleGrid:
    """Deterministic polar sampling grid inside the unit disk.

    Points are r * exp(2*pi*i*j/angles_count) for each radius r and
    j = 0..angles_count-1, radii-major, built once per grid on first use
    as a read-only array outside the fields, as is its table of r^k
    (``powers``).  ``margin`` is the strictness slack used when testing
    strict inequalities on the grid.
    """

    radii: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    angles_count: int = 720
    margin: float = 1e-9

    def __post_init__(self) -> None:
        radii = tuple(float(r) for r in self.radii)
        if len(radii) == 0:
            raise ValueError("radii: must be non-empty")
        if any(not 0.0 < r < 1.0 for r in radii):
            raise ValueError(f"radii: every radius must lie in (0, 1), got {radii}")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError(f"radii: must be strictly increasing, got {radii}")
        if not isinstance(self.angles_count, (int, np.integer)) or self.angles_count < 1:
            raise ValueError(f"angles_count: must be an integer >= 1, got {self.angles_count}")
        if not self.margin >= 0:
            raise ValueError(f"margin: must be >= 0, got {self.margin}")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles_count", int(self.angles_count))
        object.__setattr__(self, "margin", float(self.margin))

    def capped_radii(self, radius_cap: float | None = None) -> tuple[float, ...]:
        """The radii <= radius_cap (all for None): a prefix of the radii, which increase."""
        return self.radii[: self._capped(radius_cap)]

    def _capped(self, radius_cap: float | None) -> int:
        """How many radii are <= radius_cap, by bisection; none for NaN, which it puts past all."""
        cap = math.inf if radius_cap is None else radius_cap
        return bisect_right(self.radii, cap) if cap == cap else 0

    def points(self, radius_cap: float | None = None) -> np.ndarray:
        """The points on the ``capped_radii(radius_cap)``, radii-major: a read-only
        view of the grid's points, built once per grid on first use.  The capped
        points are a prefix of the array."""
        count = self._capped(radius_cap)
        return self._points if count == len(self.radii) else self._points[: count * self.angles_count]

    @cached_property
    def _points(self) -> np.ndarray:
        # held in the instance's __dict__, outside the fields: no part of ==, hash or the digest
        ang = np.exp(2j * np.pi * np.arange(self.angles_count) / self.angles_count)
        points = (np.asarray(self.radii)[:, None] * ang[None, :]).ravel()
        points.setflags(write=False)
        return points

    def powers(self, radius_cap: float | None, p: int, n: int) -> np.ndarray:
        """r^k for k = -p .. n - 1 - p, a row per radius of ``capped_radii(radius_cap)``
        (``_radius_powers``): a read-only view of one table per grid, built on first use and
        rebuilt wider when a call needs a power beyond it.  A table's columns do not depend
        on how many it has, so every view has the bits of its own ``_radius_powers``."""
        held = self.__dict__.get("_powers")  # (q, r^k for k = -q ..), outside the fields
        if held is None or held[0] < p or held[1].shape[1] - held[0] < n - p:
            q, m = (p, n - p) if held is None else (max(p, held[0]), max(n - p, held[1].shape[1] - held[0]))
            table = _radius_powers(np.array(self.radii), q, q + m)
            table.setflags(write=False)
            held = self.__dict__["_powers"] = (q, table)
        q, table = held
        return table[: self._capped(radius_cap), q - p : q - p + n]

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        blob = json.dumps(
            {"radii": self.radii, "angles_count": self.angles_count, "margin": self.margin},
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def to_json_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "angles_count": self.angles_count,
            "margin": self.margin,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SampleGrid":
        if not isinstance(obj, dict):
            raise ValueError("grid: expected a JSON object")
        kwargs = {}
        if "radii" in obj:
            if not isinstance(obj["radii"], list):
                raise ValueError("grid.radii: expected a list of numbers")
            kwargs["radii"] = tuple(
                json_number(r, f"grid.radii[{i}]") for i, r in enumerate(obj["radii"])
            )
        if "angles_count" in obj:
            kwargs["angles_count"] = json_int(obj["angles_count"], "grid.angles_count")
        if "margin" in obj:
            kwargs["margin"] = json_number(obj["margin"], "grid.margin")
        return cls(**kwargs)


def default_grid() -> SampleGrid:
    return SampleGrid()


# ---------------------------------------------------------------- algebra

def _common_range(f: LaurentSeries, g: LaurentSeries) -> tuple[np.ndarray, np.ndarray, int]:
    """Align two tails, truncating to the shorter unless both are exact."""
    if f.pole_order != g.pole_order:
        raise ValueError(
            f"pole_order: mismatch {f.pole_order} != {g.pole_order}"
        )
    if f.trunc_order == g.trunc_order:
        return f.coeffs, g.coeffs, f.trunc_order
    if f.exact_support and g.exact_support:
        k = max(f.trunc_order, g.trunc_order)
        n = k - (1 - f.pole_order) + 1
        a = np.zeros(n, dtype=np.complex128)
        b = np.zeros(n, dtype=np.complex128)
        a[: len(f.coeffs)] = f.coeffs
        b[: len(g.coeffs)] = g.coeffs
        return a, b, k
    k = min(f.trunc_order, g.trunc_order)
    n = k - (1 - f.pole_order) + 1
    return f.coeffs[:n], g.coeffs[:n], k


def add(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Coefficient-wise sum.  The result's lead is the sum of leads, so
    adding two normalized series yields a non-normalized (lead 2) one."""
    a, b, k = _common_range(f, g)
    return LaurentSeries(
        f.pole_order,
        k,
        a + b,
        f.lead + g.lead,
        f.exact_support and g.exact_support,
    )


def scale(f: LaurentSeries, c: complex) -> LaurentSeries:
    """Multiply every coefficient (lead included) by a constant."""
    return LaurentSeries(
        f.pole_order, f.trunc_order, f.coeffs * c, f.lead * c, f.exact_support
    )


def hadamard(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Coefficient-wise (convolution) product; leads multiply."""
    a, b, k = _common_range(f, g)
    return LaurentSeries(
        f.pole_order,
        k,
        a * b,
        f.lead * g.lead,
        f.exact_support or g.exact_support,
    )


def derivative(f: LaurentSeries) -> LaurentSeries:
    """Term-wise d/dz.  Pole order rises by one and the lead becomes
    -p * lead, so the result is flagged non-normalized."""
    p = f.pole_order
    ks = f.k_values()
    return LaurentSeries(
        p + 1,
        f.trunc_order - 1,
        ks * f.coeffs,
        -p * f.lead,
        f.exact_support,
    )


def z_derivative(f: LaurentSeries) -> LaurentSeries:
    """z * f'(z); same pole order, exact on truncations."""
    p = f.pole_order
    # an overflowing k * a_k stays infinite, for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = f.k_values() * f.coeffs
    return LaurentSeries(p, f.trunc_order, coeffs, -p * f.lead, f.exact_support)


# --------------------------------------------------------------- evaluation

#: at most this many points (one per row of a block) are evaluated on Python
#: complex scalars, more on numpy float64 arrays: the measured crossover is
#: about 30 points, at 65 and at 1025 terms alike
_SCALAR_POINTS = 32


def polyval(c, z) -> np.ndarray:
    """Evaluate sum_j c[..., j] * z**j (ascending c) by Horner: a 1-D c at each
    point of z, a (rows x K) block at one point z[i] per row i.

    Each step is acc*x + c_j from acc = 0, in textbook complex arithmetic: the
    product is (ar*xr - ai*xi, ar*xi + ai*xr), and each product and each sum is
    rounded once, with no fused multiply-add.  Up to _SCALAR_POINTS points run on
    Python complex scalars, which multiply by that formula; more run on an (n, 2)
    float64 view of the accumulator, whose products and sums are the same
    roundings.  So a value's bits do not depend on the route, on the rows beside
    it, or on the CPU features numpy dispatches to (numpy's own complex product
    is fused where FMA is available).  An overflow is left infinite or NaN,
    without a warning, for the caller to refuse."""
    c = np.asarray(c, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    xs = z.ravel()
    if xs.size <= _SCALAR_POINTS:
        rows = [c.tolist()] * xs.size if c.ndim == 1 else c.tolist()
        out = []
        for row, x in zip(rows, xs.tolist()):
            acc = 0j
            for a in reversed(row):
                acc = acc * x + a
            out.append(acc)
        return np.array(out, dtype=np.complex128).reshape(z.shape)
    acc = np.zeros(xs.size, dtype=np.complex128)
    ab = acc.view(np.float64).reshape(-1, 2)  # (ar, ai) per point
    xr = np.repeat(xs.real[:, None], 2, axis=1)
    xi = np.repeat(xs.imag[:, None], 2, axis=1)
    by_xr, by_xi = np.empty_like(ab), np.empty_like(ab)  # (ar*xr, ai*xr), (ar*xi, ai*xi)
    re, im = ab[:, 0], ab[:, 1]
    ar_xr, ai_xr, ar_xi, ai_xi = by_xr[:, 0], by_xr[:, 1], by_xi[:, 0], by_xi[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for cj in np.moveaxis(c, -1, 0)[::-1]:  # c's columns, in place
            np.multiply(ab, xr, out=by_xr)
            np.multiply(ab, xi, out=by_xi)
            np.subtract(ar_xr, ai_xi, out=re)
            np.add(ar_xi, ai_xr, out=im)
            np.add(acc, cj, out=acc)
    return acc.reshape(z.shape)


def _check_points(zs: np.ndarray) -> None:
    r = np.abs(zs)
    if np.any(r == 0):
        raise ValueError("z: evaluation at z = 0 is undefined (pole)")
    if not np.all(r < 1):  # |z| of a NaN point is NaN, not below 1 either
        raise ValueError(f"z: evaluation requires |z| < 1, got {complex(zs.ravel()[~(r.ravel() < 1)][0])}")


class SeriesRows(NamedTuple):
    """Equally long pole-order-p series stacked as rows: their leads (rows,)
    and tails (rows x K), a block that ``eval_many`` and ``eval_circles`` take
    in place of one series."""

    pole_order: int
    lead: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def of(cls, series) -> "SeriesRows":
        p = series[0].pole_order
        return cls(p, np.array([g.lead for g in series]), np.array([g.coeffs for g in series]))


def eval_many(f: LaurentSeries | SeriesRows, zs: Iterable[complex]) -> np.ndarray:
    """Evaluate at points of the punctured unit disk, by Horner: a series at
    each point of zs, or ``SeriesRows`` at one point zs[i] per row i.  The
    tail sum_k a_k z^(k-1+p) is ``polyval``'s, rounded as textbook complex
    arithmetic on either of its routes, so a row's bits do not depend on the
    rows beside it; the pole term and the factor z^(1-p) are numpy's.  A
    value that overflows is left infinite or NaN, without a warning, for the
    caller to refuse."""
    zs = np.asarray(zs, dtype=np.complex128)
    _check_points(zs)
    p = f.pole_order
    with np.errstate(over="ignore", invalid="ignore"):
        tail = polyval(f.coeffs, zs)
        return f.lead * zs ** (-p) + zs ** (1 - p) * tail


def eval_at(f: LaurentSeries, z: complex) -> complex:
    return complex(eval_many(f, np.array([z]))[0])


#: Veltkamp's splitter, 2^27 + 1 (``_split``)
_SPLIT = 134217729.0
#: the least power that ``_radius_powers`` corrects: from there up no partial product of
#: Dekker's product falls below the normal range
_CORRECTED_FROM = 2.0**-900


def _split(a):
    """a = hi + lo exactly, hi and lo of at most 26 bits each (Veltkamp)."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a, b, ab):
    """a b - ab exactly, for ab = fl(a b) where no partial product overflows or underflows
    (Dekker's product)."""
    ah, al = _split(a)
    bh, bl = _split(b)
    return ((ah * bh - ab) + ah * bl + al * bh) + al * bl


def _radius_powers(radii: np.ndarray, p: int, n: int) -> np.ndarray:
    """r^k for k = -p .. n - 1 - p, a row per radius r in (0, 1), rounded once.

    For k >= 0 the running product x_k = fl(x_{k-1} r) from x_0 = 1 is r^k (1 + rho_k) to
    first order in u = 2^-53, rho_k the sum of its steps' relative roundings, each found
    exactly (``_product_error``), so x_k + x_k rho_k is correctly rounded.  For k < 0,
    q = fl(1 / x_|k|) has 1 - q x_|k| = d, exactly by the same product, and r^k is
    q (1 + d - rho_|k|).  So between 2^-900 and 2^900 each r^k is the correctly rounded power,
    as a correctly rounded pow gives it (but for a power within about (k u)^2 of a midpoint
    between floats, relative).  Below 2^-900 x_k is kept: within (k - 1) u / (1 - (k - 1) u)
    of r^k, relative, and 2^-1075 / (1 - r) absolute below the normal range, 0 on underflow;
    a reciprocal past the float range is infinite.  No power function is called and no
    warning raised: each operation is one of numpy's +, -, * or /, correctly rounded, so the
    bits do not depend on the CPU features numpy dispatches to."""
    powers = np.empty((radii.size, p + max(n - p, p + 1)))
    up = powers[:, p:]  # k = 0, 1, ..
    up[:] = radii[:, None]
    up[:, 0] = 1.0
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        np.multiply.accumulate(up, axis=1, out=up)
        step = up[:, 1:]  # x_k = fl(x_{k-1} r), k >= 1
        rho = _product_error(up[:, :-1], radii[:, None], step)
        np.cumsum(np.divide(rho, step, out=rho), axis=1, out=rho)
        corrected = step >= _CORRECTED_FROM
        x, q = step[:, :p], np.divide(1.0, step[:, :p])
        t = q * x
        d = (1.0 - t) - _product_error(q, x, t)  # 1 - t is exact, t being within u of 1
        np.add(q, q * (d - rho[:, :p]), out=q, where=corrected[:, :p])
        powers[:, p - 1 :: -1] = q  # k = -1 .. -p
        np.add(step, step * rho, out=step, where=corrected)
    return powers[:, :n]


def eval_circles(
    f: LaurentSeries | SeriesRows, grid: SampleGrid, radius_cap: float | None = None
) -> np.ndarray:
    """Values at ``grid.points(radius_cap)``, in that radii-major order: of a
    series (a points array), or of each row of ``SeriesRows`` (rows x points).

    With M = angles_count and w = exp(2 pi i / M), f(r w^j) = sum_k a_k r^k w^(jk)
    is the unscaled inverse DFT of M bins per circle, bin b holding the sum of
    the terms a_k r^k with k = b mod M (the pole at bin M - p), which is exact
    since w^M = 1.  The powers r^k are running products, each step's rounding
    corrected (``_radius_powers``), held in the grid's table (``SampleGrid.powers``),
    so the values' bits do not depend on the CPU features numpy dispatches to.  The
    terms are added into their bins in increasing k, M consecutive k (each bin
    once) at a time, and the bins are transformed in place (``ifft``'s ``out``,
    numpy >= 2.0), so the values are the bins' buffer.  Each row is its own
    transform, so a row's values do not depend on the rows beside it.  A value
    that overflows is left infinite or NaN, without a warning, for the caller to
    refuse.
    """
    m = grid.angles_count
    p = f.pole_order
    c = np.concatenate((np.asarray(f.lead)[..., None], f.coeffs), axis=-1)  # a_k for k = -p .. K
    *rows, n = c.shape
    powers = grid.powers(radius_cap, p, n)
    circles = powers.shape[0]
    bins = np.zeros((*rows, circles, m), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = c[..., None, :] * powers
        for first in range(0, n, m):  # k = first - p .., from bin (first - p) mod M
            start = (first - p) % m
            block = terms[..., first : first + m]
            fit = min(block.shape[-1], m - start)  # the rest wraps to bins 0 ..
            bins[..., start : start + fit] += block[..., :fit]
            bins[..., : block.shape[-1] - fit] += block[..., fit:]
        return np.fft.ifft(bins, axis=-1, norm="forward", out=bins).reshape(*rows, circles * m)
