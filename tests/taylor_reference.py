"""Reference route for the generators: the log/exp series construction.

``from_herglotz`` and ``from_schwarz`` build z^p F by closed-form
recurrences.  The functions here build the same Taylor coefficients the
long way, through log(z^p F) and one exp recurrence, so that tests can
hold the two routes against each other.
"""
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
