"""Reference route for ``series.eval_circles``: the zero-filled fold.

``eval_circles`` adds each term a_k r^k straight into bin k mod M of M bins
per circle.  The function here places the terms in a zero-filled buffer of
whole blocks of M bins instead (the pole at bin M - p), sums the blocks, and
takes the same inverse FFT, so that tests can hold the two bin layouts
against each other.  It takes its powers r^k from ``eval_circles``' own
running products (``series._radius_powers``): what it checks is the layout of
the bins, not how the powers are formed, which ``test_series`` checks against
mpmath.
"""
import numpy as np

from merokit.series import _radius_powers


def eval_circles(f, grid, radius_cap=None):
    """``series.eval_circles`` by the zero-filled fold: values at
    ``grid.points(radius_cap)`` of a series or of each row of ``SeriesRows``."""
    radii = np.array([r for r in grid.radii if radius_cap is None or r <= radius_cap])
    m = grid.angles_count
    p = f.pole_order
    c = np.concatenate((np.asarray(f.lead)[..., None], f.coeffs), axis=-1)  # a_k for k = -p .. K
    *rows, n = c.shape
    # column j of ``bins`` holds k = j - start - p, and start + p = 0 mod m
    start = -p % m
    width = -(-(start + n) // m) * m  # whole blocks of m bins
    bins = np.zeros((*rows, radii.size, width), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        bins[..., start : start + n] = c[..., None, :] * _radius_powers(radii, p, n)
        bins = bins.reshape(*rows, radii.size, width // m, m).sum(axis=-2)
        return np.fft.ifft(bins, axis=-1, norm="forward").reshape(*rows, radii.size * m)
