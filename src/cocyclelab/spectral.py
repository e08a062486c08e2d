"""FFT differentiation helpers for periodic grids.

deriv takes one grid axis and dbar and dz the pair (y_axis, x_axis), which
are trailing on the package's matrix-first (3, 3, ny, nx) grids; their
default axes and refine_grid read an (ny, nx, ...) array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def wavenumbers(n: int, length: float) -> np.ndarray:
    """Angular wavenumbers 2*pi*k/length in FFT order, Nyquist zeroed.

    Zeroing the Nyquist bin makes odd-order derivatives of real data real
    and is exact for fields with no content at that frequency (TorusMetric
    refuses 2|k| >= n in lambda; smooth fields have negligible content).
    """
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return k


def deriv(arr: np.ndarray, length: float, axis: int) -> np.ndarray:
    """Spectral d/dx along the given axis of a periodic array."""
    arr = np.asarray(arr)
    n = arr.shape[axis]
    k = wavenumbers(n, length)
    shape = [1] * arr.ndim
    shape[axis] = n
    out = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(arr, axis=axis), axis=axis)
    if np.isrealobj(arr):
        return out.real
    return out


@lru_cache(maxsize=64)
def _cauchy_riemann_symbol(ny: int, nx: int, lx: float, ly: float, sign: int) -> np.ndarray:
    """The read-only (ny, nx) Fourier symbol (i kx - sign ky)/2 of
    (d/dx + sign i d/dy)/2: dbar for sign = +1, dz for sign = -1, with the
    Nyquist bins zeroed as in deriv."""
    ky = wavenumbers(ny, ly)
    kx = wavenumbers(nx, lx)
    sym = 0.5 * (1j * kx - sign * ky[:, None])
    sym.setflags(write=False)
    return sym


def _cauchy_riemann(arr: np.ndarray, lx: float, ly: float, axes: tuple[int, int],
                    sign: int) -> np.ndarray:
    """(d/dx + sign i d/dy)/2 over axes = (y_axis, x_axis): one fft2, one
    in-place product with the cached symbol, one ifft2."""
    arr = np.asarray(arr)
    ay, ax = (a % arr.ndim for a in axes)
    ny, nx = arr.shape[ay], arr.shape[ax]
    sym = _cauchy_riemann_symbol(ny, nx, float(lx), float(ly), sign)
    shape = [1] * arr.ndim
    shape[ay], shape[ax] = ny, nx
    f = np.fft.fft2(arr, axes=(ay, ax))
    f *= (sym if ay < ax else sym.T).reshape(shape)
    return np.fft.ifft2(f, axes=(ay, ax))


def dbar(arr: np.ndarray, lx: float, ly: float, axes: tuple[int, int] = (0, 1)) -> np.ndarray:
    """(d/dx + i d/dy)/2 with axes = (y_axis, x_axis)."""
    return _cauchy_riemann(arr, lx, ly, axes, 1)


def dz(arr: np.ndarray, lx: float, ly: float, axes: tuple[int, int] = (0, 1)) -> np.ndarray:
    """(d/dx - i d/dy)/2 with axes = (y_axis, x_axis)."""
    return _cauchy_riemann(arr, lx, ly, axes, -1)


def refine_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited upsampling of a periodic grid (ny, nx, ...), even ny and
    nx, to (factor*ny, factor*nx) by zero-padding its FFT; factor >= 2.
    The Nyquist bins are halved onto +-Nyquist, so real input stays real.
    Exact on band-limited data, spectrally accurate on smooth data."""
    g = np.asarray(grid)
    ny, nx = g.shape[:2]
    if ny % 2 or nx % 2:
        raise ValueError("spectral refinement expects even grid sizes")
    f = np.fft.fft2(g, axes=(0, 1)) * (factor * factor)
    f[ny // 2] *= 0.5
    f[:, nx // 2] *= 0.5
    # signed frequencies 0..N/2, -N/2..-1 index the same bins on both grids
    ky = np.r_[0 : ny // 2 + 1, -(ny // 2) : 0]
    kx = np.r_[0 : nx // 2 + 1, -(nx // 2) : 0]
    big = np.zeros((factor * ny, factor * nx) + g.shape[2:], dtype=complex)
    big[ky[:, None], kx] = f[ky[:, None], kx]
    out = np.fft.ifft2(big, axes=(0, 1))
    return out.real if np.isrealobj(g) else out
