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
``eval_many`` reject |z| >= 1 and z == 0.  They evaluate by Horner at
arbitrary points; ``eval_circles`` evaluates on the circles of a
``SampleGrid`` by one inverse FFT per circle.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable

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
    j = 0..angles_count-1, radii-major.  ``margin`` is the strictness
    slack used when testing strict inequalities on the grid.
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

    def points(self, radius_cap: float | None = None) -> np.ndarray:
        radii = self.radii
        if radius_cap is not None:
            radii = tuple(r for r in radii if r <= radius_cap)
        ang = np.exp(2j * np.pi * np.arange(self.angles_count) / self.angles_count)
        if not radii:
            return np.zeros(0, dtype=np.complex128)
        return (np.asarray(radii)[:, None] * ang[None, :]).ravel()

    def digest(self) -> str:
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

def polyval(c, z) -> np.ndarray:
    """Evaluate sum_j c[..., j] * z**j (ascending c) by Horner: a 1-D c at each
    point of z, a (rows x K) block at one point z[i] per row i."""
    c = np.ascontiguousarray(np.transpose(c), dtype=np.complex128)  # c[j]: the j-th column
    z = np.ascontiguousarray(z, dtype=np.complex128)
    acc = np.zeros_like(z)
    for j in range(len(c) - 1, -1, -1):
        acc = acc * z + c[j]
    return acc


def _check_points(zs: np.ndarray) -> None:
    r = np.abs(zs)
    if np.any(r == 0):
        raise ValueError("z: evaluation at z = 0 is undefined (pole)")
    if np.any(r >= 1):
        raise ValueError("z: evaluation requires |z| < 1")


def eval_many(f: LaurentSeries, zs: Iterable[complex]) -> np.ndarray:
    """Evaluate at points of the punctured unit disk, by Horner.  A value
    that overflows is left infinite or NaN, without a warning, for the
    caller to refuse."""
    zs = np.asarray(zs, dtype=np.complex128)
    _check_points(zs)
    return eval_rows_at(f.pole_order, f.lead, f.coeffs, zs)


def eval_rows_at(p: int, lead, coeffs, zs: np.ndarray) -> np.ndarray:
    """``eval_many`` of pole-order-p series given by their leads and tails: one
    series (scalar lead, 1-D tail) at each point of zs, or a block of rows
    (leads of shape (rows,), tails (rows x K)) at one point zs[i] per row i.
    The caller checks the points."""
    with np.errstate(over="ignore", invalid="ignore"):
        tail = polyval(coeffs, zs)
        return lead * zs ** (-p) + zs ** (1 - p) * tail


def eval_at(f: LaurentSeries, z: complex) -> complex:
    return complex(eval_many(f, np.array([z]))[0])


def eval_circles(f: LaurentSeries, grid: SampleGrid, radius_cap: float | None = None) -> np.ndarray:
    """Evaluate at ``grid.points(radius_cap)``, in that radii-major order: the
    one-row case of ``eval_rows_circles``."""
    return eval_rows_circles(f.pole_order, np.array([f.lead]), f.coeffs[None, :], grid, radius_cap)[0]


def eval_rows_circles(
    p: int, leads: np.ndarray, coeffs: np.ndarray, grid: SampleGrid, radius_cap: float | None = None
) -> np.ndarray:
    """Values of pole-order-p series, one per row of (leads (rows,), tails
    (rows x K)), at ``grid.points(radius_cap)``: a (rows x points) array.

    With M = angles_count and w = exp(2 pi i / M), f(r w^j) = sum_k a_k r^k w^(jk)
    is the unscaled inverse DFT of the terms a_k r^k placed at bin k mod M
    (the pole at bin M - p).  Terms beyond M bins are folded onto their bin,
    which is exact since w^M = 1.  Each row is its own transform, so a row's
    values do not depend on the rows beside it.  A value that overflows is
    left infinite or NaN, without a warning, for the caller to refuse.
    """
    radii = np.array([r for r in grid.radii if radius_cap is None or r <= radius_cap])
    m = grid.angles_count
    c = np.concatenate((np.asarray(leads)[:, None], coeffs), axis=1)  # a_k for k = -p .. K
    rows, n = c.shape
    # column j of ``bins`` holds k = j - start - p, and start + p = 0 mod m
    start = -p % m
    width = fold_width(p, n, m)
    bins = np.zeros((rows, radii.size, width), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        bins[:, :, start : start + n] = c[:, None, :] * radii[:, None] ** np.arange(-p, n - p)
        folded = bins.reshape(rows * radii.size, width // m, m).sum(axis=1)
        return np.fft.ifft(folded, axis=1, norm="forward").reshape(rows, radii.size * m)


def fold_width(p: int, n: int, m: int) -> int:
    """Columns per circle of the zero-filled bins ``eval_rows_circles`` folds:
    n terms from k = -p, the pole at bin m - p, in whole blocks of m bins."""
    return -(-(-p % m + n) // m) * m
