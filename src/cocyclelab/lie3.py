"""so(3) matrix algebra on plain ndarrays.

All functions are batched over point arrays: an argument of shape
(..., 3, 3) or (..., 3) is processed pointwise over the leading axes, so the
same code paths serve a single matrix, a path of matrices and the
(ny, nx, 3, 3) view that np.moveaxis gives of a (3, 3, ny, nx) torus grid.

Conventions:
  hat(v) w = v x w                (cross product)
  inner(g, h) = trace(g h^T) / 2  (so hat is an isometry: inner(hat v, hat w) = v.w)
"""

from __future__ import annotations

import numpy as np


def hat(v: np.ndarray) -> np.ndarray:
    """Skew matrix of v, hat(v) w = v x w. Shape (..., 3) -> (..., 3, 3)."""
    v = np.asarray(v)
    out = np.zeros(v.shape[:-1] + (3, 3), dtype=v.dtype)
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def vee(g: np.ndarray) -> np.ndarray:
    """Inverse of hat on skew matrices (antisymmetric part is used)."""
    g = np.asarray(g)
    return np.stack(
        [
            0.5 * (g[..., 2, 1] - g[..., 1, 2]),
            0.5 * (g[..., 0, 2] - g[..., 2, 0]),
            0.5 * (g[..., 1, 0] - g[..., 0, 1]),
        ],
        axis=-1,
    )


def inner(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Invariant inner product trace(g h^T)/2; reduces the trailing (3,3)."""
    return 0.5 * np.einsum("...ij,...ij->...", g, h)
