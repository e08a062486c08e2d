"""so(3) matrix algebra on plain ndarrays.

All functions are batched over point arrays: an argument of shape
(..., 3, 3) or (..., 3) is processed pointwise over the leading axes, so the
same code paths serve a single matrix, a path of matrices and the
(ny, nx, 3, 3) view that np.moveaxis gives of a (3, 3, ny, nx) torus grid.
hat and vee also take the (negative) axis of the triple, so axis=-3 maps a
torus grid of triples (..., 3, ny, nx) to its (..., 3, 3, ny, nx) grid and
back, written in that layout.

Convention: hat(v) w = v x w (cross product), so [hat a, hat b] = hat(a x b)
and trace(hat a hat b^T) / 2 = a . b.
"""

from __future__ import annotations

import numpy as np


def hat(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Skew matrix of v, hat(v) w = v x w: the triple axis of v becomes two
    matrix axes in its place.  Shape (..., 3) -> (..., 3, 3); with axis=-3,
    (..., 3, ny, nx) -> (..., 3, 3, ny, nx)."""
    v = np.asarray(v)
    t = (slice(None),) * (-1 - axis)  # the axes after the triple's
    out = np.zeros(v.shape[: v.ndim + axis] + (3, 3) + v.shape[v.ndim + axis + 1:], dtype=v.dtype)
    out[(..., 0, 1) + t] = -v[(..., 2) + t]
    out[(..., 0, 2) + t] = v[(..., 1) + t]
    out[(..., 1, 0) + t] = v[(..., 2) + t]
    out[(..., 1, 2) + t] = -v[(..., 0) + t]
    out[(..., 2, 0) + t] = -v[(..., 1) + t]
    out[(..., 2, 1) + t] = v[(..., 0) + t]
    return out


def vee(g: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse of hat on skew matrices (antisymmetric part is used): the two
    matrix axes become one triple axis, axis of the result.  Shape
    (..., 3, 3) -> (..., 3); with axis=-3, (..., 3, 3, ny, nx) -> (..., 3, ny, nx)."""
    g = np.asarray(g)
    t = (slice(None),) * (-1 - axis)
    return np.stack(
        [
            0.5 * (g[(..., 2, 1) + t] - g[(..., 1, 2) + t]),
            0.5 * (g[(..., 0, 2) + t] - g[(..., 2, 0) + t]),
            0.5 * (g[(..., 1, 0) + t] - g[(..., 0, 1) + t]),
        ],
        axis=axis,
    )

