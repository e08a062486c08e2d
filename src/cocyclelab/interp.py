"""Periodic bicubic interpolation of real grid data; every off-grid field
value in the package comes from here, through FourierField.interpolant, which
builds each spline over the real channels of a field's modes m >= 0: the 9
matrix entries of each channel, or only its 3 vee coordinates when every
mode is antisymmetric (the so(3)-valued transport generator A + Phi).

Interpolating cubic B-splines on a uniform periodic grid, built in one
pruned real spectral pass.  The spline passes through the data resampled on
a grid 4 times finer per axis (2 times when an axis has more than 192
points), which is exact for band-limited data and puts the O(h^4) spline
error well below the transport tolerances.  One real FFT (rfft2) of the
data gives its (ny + 1, nx/2 + 1) block of signed frequencies, the Nyquist
row and column halved onto +-Nyquist; only that block is scaled by factor^2
and divided by the B-spline symbols (4 + 2 cos(2 pi k / n)) / 6 of the fine
axes, then scattered into a (factor*ny, nx/2 + 1) half spectrum.  An inverse
FFT along y and an inverse real FFT along x of length factor*nx, which
zero-pads x without storing the zeros, give the coefficients of the spline
through every fine-grid sample.  Evaluation gathers the 4x4 stencil of
each point with one take of the coefficient rows at the flat indices
gy * nx + gx of the wrapped stencil, CHUNK points at a time.
"""

from __future__ import annotations

import numpy as np

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

    data: real array of shape (ny, nx, C) with even ny, nx; positions are
    x = i*lx/nx, y = j*ly/ny.
    """

    def __init__(self, data: np.ndarray, lx: float, ly: float):
        data = np.asarray(data)
        if np.iscomplexobj(data):
            raise TypeError("PeriodicCubic2D interpolates real data only")
        ny, nx = data.shape[:2]
        if ny % 2 or nx % 2:
            raise ValueError("spectral refinement expects even grid sizes")
        factor = 4 if max(ny, nx) <= 192 else 2
        fy, fx = factor * ny, factor * nx
        # signed frequencies 0..ny/2, -ny/2..-1 index the same rows on both grids
        ky = np.r_[0 : ny // 2 + 1, -(ny // 2) : 0]
        kx = np.arange(nx // 2 + 1)
        half = np.fft.rfft2(data, axes=(0, 1))[ky]
        half[[ny // 2, ny // 2 + 1]] *= 0.5
        half[:, nx // 2] *= 0.5
        by = (4.0 + 2.0 * np.cos(2.0 * np.pi * ky / fy)) / 6.0
        bx = (4.0 + 2.0 * np.cos(2.0 * np.pi * kx / fx)) / 6.0
        half *= (factor * factor / np.multiply.outer(by, bx))[:, :, None]
        f = np.zeros((fy, nx // 2 + 1) + data.shape[2:], dtype=complex)
        f[ky] = half
        self.coef = np.fft.irfft(np.fft.ifft(f, axis=0), n=fx, axis=1)
        self.nx, self.ny = fx, fy
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
        flat = (gy[:, :, None] * self.nx + gx[:, None, :]).reshape(x.size, 16)
        patch = self.coef.reshape(self.ny * self.nx, -1).take(flat, axis=0)
        # per point, the outer product of the weights times the 4x4 stencil
        w = (wy[:, :, None] * wx[:, None, :]).reshape(x.size, 1, 16)
        return (w @ patch)[:, 0]
