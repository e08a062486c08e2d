"""Periodic bicubic interpolation of grid data; every off-grid field value
in the package comes from here.

Interpolating cubic B-splines on a uniform periodic grid, built in one
spectral pass: the data FFT is zero-padded to a grid 4 times finer per axis
(2 times when an axis has more than 192 points), which is exact for
band-limited data and puts the O(h^4) spline error well below the transport
tolerances, then divided by the B-spline symbol (4 + 2 cos(2 pi k / n)) / 6
of each fine axis; one inverse FFT gives the coefficients of the spline
through every fine-grid sample.  Evaluation gathers the 4x4 stencil with
wrapped indexing, CHUNK points at a time.
"""

from __future__ import annotations

import numpy as np

from .spectral import padded_spectrum

CHUNK = 8192


def _bspline_weights(u: np.ndarray) -> np.ndarray:
    """Cubic B-spline weights for fractional offsets u in [0,1); shape (P, 4)."""
    u2 = u * u
    u3 = u2 * u
    return np.stack(
        [
            (1.0 - 3.0 * u + 3.0 * u2 - u3) / 6.0,
            (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0,
            (-3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0) / 6.0,
            u3 / 6.0,
        ],
        axis=-1,
    )


class PeriodicCubic2D:
    """Bicubic spline evaluator for channels of periodic grid data.

    data: array of shape (ny, nx, C) with even ny, nx; positions are
    x = i*lx/nx, y = j*ly/ny.
    """

    def __init__(self, data: np.ndarray, lx: float, ly: float):
        data = np.asarray(data)
        factor = 4 if max(data.shape[:2]) <= 192 else 2
        f = padded_spectrum(data, factor)
        ny, nx = f.shape[:2]
        by = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(ny) / ny)) / 6.0
        bx = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(nx) / nx)) / 6.0
        f /= np.multiply.outer(by, bx)[:, :, None]
        coef = np.fft.ifft2(f, axes=(0, 1))
        self.coef = coef.real if np.isrealobj(data) else coef
        self.nx, self.ny = nx, ny
        self.lx, self.ly = float(lx), float(ly)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate at points; returns shape x.shape + (C,)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        shape = x.shape
        x = x.ravel()
        y = y.ravel()
        out = np.empty((x.size, self.coef.shape[-1]), dtype=self.coef.dtype)
        for lo in range(0, x.size, CHUNK):
            hi = min(lo + CHUNK, x.size)
            out[lo:hi] = self._eval(x[lo:hi], y[lo:hi])
        return out.reshape(shape + (self.coef.shape[-1],))

    def _eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        tx = x / self.lx * self.nx
        ty = y / self.ly * self.ny
        ix = np.floor(tx)
        iy = np.floor(ty)
        wx = _bspline_weights(tx - ix)
        wy = _bspline_weights(ty - iy)
        gx = (ix[:, None].astype(int) + np.arange(-1, 3)) % self.nx
        gy = (iy[:, None].astype(int) + np.arange(-1, 3)) % self.ny
        patch = self.coef[gy[:, :, None], gx[:, None, :]].reshape(x.size, 16, -1)
        # per point, the outer product of the weights times the 4x4 stencil
        w = (wy[:, :, None] * wx[:, None, :]).reshape(x.size, 1, 16)
        return (w @ patch)[:, 0]
