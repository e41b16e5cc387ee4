"""Reference routes for the generators.

``from_herglotz`` and ``from_schwarz`` build z^p F by closed-form
recurrences.  The functions here build the same Taylor coefficients the
long way, through log(z^p F) and one exp recurrence, so that tests can
hold the two routes against each other.  ``herglotz_convolved`` keeps the
binomial product as it was formed before it started from its first
factor.  For ``from_schwarz``'s linear
recurrence, which ``generators._recurrence`` runs in blocks, they also
give its rows, the term-by-term loop it replaced, and the same
recurrence in 40-digit mpmath arithmetic.
"""
import mpmath
import numpy as np


def series_exp(a) -> np.ndarray:
    """exp of a Taylor series, given and returned as ascending coefficient
    arrays; the constant term must be zero."""
    a = np.asarray(a, dtype=np.complex128)
    if a[0] != 0:
        raise ValueError("series_exp: constant term must be exactly 0")
    # b = exp(a):  n b_n = sum_{j=1..n} j a_j b_{n-j}
    n = len(a)
    out = np.zeros(n, dtype=np.complex128)
    out[0] = 1.0
    ja = np.arange(n) * a
    for k in range(1, n):
        out[k] = np.dot(ja[1 : k + 1], out[k - 1 :: -1][:k]) / k
    return out


def log_one_minus(x: complex, order: int) -> np.ndarray:
    """Coefficients of log(1 - x z) = -sum_{n>=1} x^n z^n / n, truncated at ``order``."""
    if order < 1:
        raise ValueError(f"order: must be >= 1, got {order}")
    n = np.arange(1, order + 1)
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    coeffs[1:] = -(complex(x) ** n) / n
    return coeffs


def herglotz_taylor(p: int, alpha: float, atoms, order: int) -> np.ndarray:
    """h_0 .. h_order of prod_j (1 - x_j z)^{c w_j}, c = 2 p (1 - alpha)."""
    c = 2.0 * p * (1.0 - alpha)
    acc = np.zeros(order + 1, dtype=np.complex128)
    for x, w in atoms:
        acc = acc + (c * w) * log_one_minus(x, order)
    return series_exp(acc)


def herglotz_convolved(p: int, alpha: float, atoms, order: int) -> np.ndarray:
    """h_0 .. h_order of prod_j (1 - x_j z)^{c w_j} as ``from_herglotz`` formed it
    before its product started from the first factor: every factor of nonzero
    weight convolved into [1, 0, 0, ...]."""
    c = 2.0 * p * (1.0 - alpha)
    n = np.arange(1, order + 1)
    acc = np.zeros(order + 1, dtype=np.complex128)
    acc[0] = 1.0
    for x, w in atoms:
        if w != 0.0:
            factor = np.cumprod(np.concatenate(([1.0], x * (n - 1 - c * w) / n)))
            acc = np.convolve(acc, factor)[: order + 1]
    return acc


def schwarz_taylor(p: int, alpha: float, beta: float, coeffs, order: int) -> np.ndarray:
    """h_0 .. h_order of exp(-c beta int_0^z w(t) / (t (1 - beta w(t))) dt),
    c = 2 p (1 - alpha), with w = sum_i coeffs[i-1] z^i used in full."""
    # u = beta * w and w(t)/t, as Taylor arrays of exponents 0 .. order - 1
    d = min(len(coeffs), order)
    u = np.zeros(order + 1, dtype=np.complex128)
    u[1 : d + 1] = beta * np.asarray(coeffs[:d])
    wq = np.zeros(order, dtype=np.complex128)
    wq[:d] = np.asarray(coeffs[:d])
    # geometric expansion g = 1/(1 - u):  g_n = sum_{j=1..n} u_j g_{n-j}
    g = np.zeros(order, dtype=np.complex128)
    g[0] = 1.0
    for n in range(1, order):
        g[n] = np.dot(u[1 : n + 1], g[n - 1 :: -1][:n])
    t = np.zeros(order + 1, dtype=np.complex128)
    t[1:] = np.convolve(wq, g)[:order] / np.arange(1, order + 1)
    return series_exp(-2.0 * p * (1.0 - alpha) * beta * t)


def schwarz_rows(p: int, alpha: float, beta: float, coeffs, order: int) -> np.ndarray:
    """``from_schwarz``'s rows: row n - 1 holds the weights of h_{n-d} .. h_{n-1} in
    n h_n = sum_{i=1..d} beta w_i (n - i - c) h_{n-i}, d = min(deg w, order)."""
    c = 2.0 * p * (1.0 - alpha)
    bw = beta * np.asarray(coeffs[:order], dtype=np.complex128)
    n = np.arange(1, order + 1)[:, None]
    return (bw * (n - np.arange(1, bw.size + 1) - c) / n)[:, ::-1]


def recurrence_loop(rows: np.ndarray) -> np.ndarray:
    """h_0 .. h_N of h_n = rows[n-1] . (h_{n-d} .. h_{n-1}), one dot product a
    step: the loop ``from_schwarz`` ran before the blocked recurrence."""
    N, d = rows.shape
    h = np.zeros(d + N + 1, dtype=np.complex128)  # h_{-d} .. h_{-1} are 0
    h[d] = 1.0
    for k in range(N):
        h[d + k + 1] = rows[k] @ h[k + 1 : k + d + 1]
    return h[d:]


def recurrence_mp(rows: np.ndarray, dps: int = 40) -> list:
    """The same recurrence on the same (exactly converted) rows in ``dps``-digit
    mpmath arithmetic, as a list of mpc h_0 .. h_N."""
    N, d = rows.shape
    with mpmath.workdps(dps):
        mp_rows = [[mpmath.mpc(complex(x)) for x in row] for row in rows]
        h = [mpmath.mpc(0)] * d + [mpmath.mpc(1)]
        for k in range(N):
            h.append(mpmath.fsum(r * x for r, x in zip(mp_rows[k], h[k + 1 : k + d + 1])))
        return h[d:]
