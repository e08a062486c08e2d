"""Periodic bicubic interpolation of real grid data; every off-grid field
value in the package comes from here, through FourierField.interpolant, which
builds each spline over the real channels of a field's modes m >= 0: the 9
matrix entries of each channel, or only its 3 vee coordinates when every
mode is antisymmetric (the so(3)-valued transport generator A + Phi).

Interpolating cubic B-splines on a uniform periodic grid.  The spline passes
through the data resampled on a grid 4 times finer per axis (2 times when an
axis has more than 192 points), which is exact for band-limited data and
puts the O(h^4) spline error well below the transport tolerances.  The
spline is linear in the data and separable, so a value at (x, y) is
Ky @ data @ Kx per channel, where each row of Ky (ny entries) and Kx (nx
entries) is one point's four B-spline weights applied to that axis's
fine-grid cardinal vector: the spline coefficients through a unit impulse,
one irfft of length factor * n of the impulse's spectrum with the Nyquist bin
halved, scaled by factor and divided by the B-spline symbol
(4 + 2 cos(2 pi k / (factor n))) / 6.

A call on P points takes one of two contraction orders, chosen from P alone:

- direct, when P * nx <= fy * fx (the fine grid's size), so that its
  (P, nx * C) intermediate is no larger than the coefficient tensor: Ky @
  data.reshape(ny, nx * C), then each point's row against its row of Kx;
- tensor, above that: the (fy, fx, C) coefficients on the fine grid, built on
  the first such call in one pruned real spectral pass and kept.  One real
  FFT (rfft2) of the data gives its (ny + 1, nx/2 + 1) block of signed
  frequencies, the Nyquist row and column halved onto +-Nyquist; only that
  block is scaled by factor^2, divided by the symbols of both fine axes and
  scattered into a (fy, nx/2 + 1) half spectrum.  An inverse FFT along y and
  an inverse real FFT along x of length fx, which zero-pads x without storing
  the zeros, give the coefficients.  Evaluation gathers the 4x4 stencil of
  each point with one take of the coefficient rows at the flat indices
  gy * fx + gx of the wrapped stencil, CHUNK points at a time.

The two orders sum the same terms in different order and agree to rounding,
so only a value read at no more than the limit's points (the trivializer
along one verify run or a short transport's generator) can differ from the
tensor route, and only at rounding.
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


def _stencil(s: np.ndarray, length: float, fine: int) -> tuple[np.ndarray, np.ndarray]:
    """The B-spline weights (P, 4) of coordinates s on a periodic axis of the
    given length and fine samples, and the wrapped fine indices (P, 4) they
    weight."""
    t = s / length * fine
    i = np.floor(t)
    return _bspline_weights(t - i), (i[:, None].astype(int) + np.arange(-1, 3)) % fine


def _cardinal(n: int, factor: int) -> np.ndarray:
    """Fine-grid spline coefficients through a unit impulse at sample 0 of a
    periodic axis of n samples; shape (factor * n,)."""
    k = np.arange(n // 2 + 1)
    # the impulse's real spectrum is all ones
    spectrum = factor / ((4.0 + 2.0 * np.cos(2.0 * np.pi * k / (factor * n))) / 6.0)
    spectrum[n // 2] *= 0.5
    return np.fft.irfft(spectrum, n=factor * n)


class PeriodicCubic2D:
    """Bicubic spline evaluator for channels of periodic grid data.

    data: real array of shape (ny, nx, C) with even ny, nx; positions are
    x = i*lx/nx, y = j*ly/ny.  nx and ny are the fine grid's sizes.
    """

    def __init__(self, data: np.ndarray, lx: float, ly: float):
        data = np.asarray(data)
        if np.iscomplexobj(data):
            raise TypeError("PeriodicCubic2D interpolates real data only")
        ny, nx = data.shape[:2]
        if ny % 2 or nx % 2:
            raise ValueError("spectral refinement expects even grid sizes")
        self.factor = 4 if max(ny, nx) <= 192 else 2
        self.data = np.asarray(data, dtype=float)
        self.nx, self.ny = self.factor * nx, self.factor * ny
        self.lx, self.ly = float(lx), float(ly)
        self._coef = None

    @property
    def coef(self) -> np.ndarray:
        """The (fy, fx, C) spline coefficients on the fine grid, built on
        first use and kept (module docstring)."""
        if self._coef is None:
            data, factor = self.data, self.factor
            ny, nx = data.shape[:2]
            # signed frequencies 0..ny/2, -ny/2..-1 index the same rows on both grids
            ky = np.r_[0 : ny // 2 + 1, -(ny // 2) : 0]
            kx = np.arange(nx // 2 + 1)
            half = np.fft.rfft2(data, axes=(0, 1))[ky]
            half[[ny // 2, ny // 2 + 1]] *= 0.5
            half[:, nx // 2] *= 0.5
            by = (4.0 + 2.0 * np.cos(2.0 * np.pi * ky / self.ny)) / 6.0
            bx = (4.0 + 2.0 * np.cos(2.0 * np.pi * kx / self.nx)) / 6.0
            half *= (factor * factor / np.multiply.outer(by, bx))[:, :, None]
            f = np.zeros((self.ny, nx // 2 + 1) + data.shape[2:], dtype=complex)
            f[ky] = half
            self._coef = np.fft.irfft(np.fft.ifft(f, axis=0), n=self.nx, axis=1)
        return self._coef

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate at points x, y of one shape; returns that shape + (C,)
        (a scalar pair as shape (1,)).  ValueError for shapes that differ."""
        if np.shape(x) != np.shape(y):
            raise ValueError(f"x and y must have one shape, got {np.shape(x)} and {np.shape(y)}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        shape = x.shape
        x = x.ravel()
        y = y.ravel()
        ny, nx, channels = self.data.shape
        if x.size * nx <= self.ny * self.nx:
            t = self._axis_rows(y, self.ly, ny) @ self.data.reshape(ny, nx * channels)
            kx = self._axis_rows(x, self.lx, nx)
            out = (kx[:, None, :] @ t.reshape(x.size, nx, channels))[:, 0]
        else:
            out = np.empty((x.size, channels))
            for lo in range(0, x.size, CHUNK):
                hi = min(lo + CHUNK, x.size)
                out[lo:hi] = self._eval(x[lo:hi], y[lo:hi])
        return out.reshape(shape + (channels,))

    def _axis_rows(self, s: np.ndarray, length: float, n: int) -> np.ndarray:
        """Rows of Ky or Kx for coordinates s on an axis of n data samples and
        the given period: row p, column j sums the four B-spline weights of
        s[p] times the cardinal vector shifted to sample j; shape (P, n)."""
        fine = self.factor * n
        w, stencil = _stencil(s, length, fine)
        # row r: the coefficient at fine sample r of the spline through each data sample j
        shifts = (np.arange(fine)[:, None] - self.factor * np.arange(n)) % fine
        return (w[:, None, :] @ _cardinal(n, self.factor)[shifts][stencil])[:, 0]

    def _eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        wx, gx = _stencil(x, self.lx, self.nx)
        wy, gy = _stencil(y, self.ly, self.ny)
        flat = (gy[:, :, None] * self.nx + gx[:, None, :]).reshape(x.size, 16)
        patch = self.coef.reshape(self.ny * self.nx, -1).take(flat, axis=0)
        # per point, the outer product of the weights times the 4x4 stencil
        w = (wy[:, :, None] * wx[:, None, :]).reshape(x.size, 1, 16)
        return (w @ patch)[:, 0]
