"""so(3)/su(2) matrix algebra on plain ndarrays.

All functions are batched: an argument of shape (..., 3, 3) or (..., 3) is
processed pointwise over the leading axes, so the same code paths serve a
single matrix and a full grid of matrices.

Conventions:
  hat(v) w = v x w                (cross product)
  inner(g, h) = trace(g h^T) / 2  (so hat is an isometry: inner(hat v, hat w) = v.w)
  ell : so(3) -> su(2) is half the quaternion cover's derivative; ell(2g)^2 = -Id
  for unit g.
"""

from __future__ import annotations

import numpy as np

from .errors import NotUnit, SamplingTooCoarse, passes

EYE3 = np.eye(3)
UNIT_TOL = 1e-10
MAX_LIFT_STEP = np.pi / 4


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


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator [a, b] = ab - ba."""
    return a @ b - b @ a


def inner(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Invariant inner product trace(g h^T)/2; reduces the trailing (3,3)."""
    return 0.5 * np.einsum("...ij,...ij->...", g, h)


def so3_norm(g: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(inner(g, g).real, 0.0))


def unit_residual(g: np.ndarray) -> float:
    """max over points of ||g^3 + g||_F; zero iff g is 0 or a unit section value."""
    r = g @ g @ g + g
    return float(np.sqrt(np.einsum("...ij,...ij->...", r, r)).max())


def check_unit(g: np.ndarray) -> None:
    """Raise NotUnit unless ||g^3 + g|| <= UNIT_TOL and | |g|^2 - 1 | <=
    100 UNIT_TOL pointwise."""
    res = unit_residual(g)
    if not passes(res, UNIT_TOL):
        raise NotUnit(f"||g^3 + g|| = {res:.3e} exceeds {UNIT_TOL:.1e}")
    nrm = inner(g, g)
    dev = float(np.abs(nrm - 1.0).max())
    if not passes(dev, 100 * UNIT_TOL):
        raise NotUnit(f"| |g|^2 - 1 | = {dev:.3e} exceeds {100 * UNIT_TOL:.1e}")


def ell(g: np.ndarray) -> np.ndarray:
    """Lie algebra isomorphism so(3) -> su(2).

    In axis coordinates v = vee(g) it sends hat(v) to
    (1/2) [[ i v3, -v2 + i v1 ], [ v2 + i v1, -i v3 ]],
    which maps the standard basis brackets onto each other.  For a unit
    section value g, ell(2g) squares to -Id.
    """
    v = vee(g)
    out = np.zeros(v.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5j * v[..., 2]
    out[..., 0, 1] = 0.5 * (-v[..., 1] + 1j * v[..., 0])
    out[..., 1, 0] = 0.5 * (v[..., 1] + 1j * v[..., 0])
    out[..., 1, 1] = -0.5j * v[..., 2]
    return out


def ell_inv(h: np.ndarray) -> np.ndarray:
    """Inverse of ell on traceless anti-Hermitian 2x2 matrices."""
    h = np.asarray(h)
    v3 = 2.0 * h[..., 0, 0].imag
    v1 = 2.0 * h[..., 1, 0].imag
    v2 = 2.0 * h[..., 1, 0].real
    return hat(np.stack([v1, v2, v3], axis=-1))


def so3_exp(g: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t g) for skew g via the Rodrigues formula, batched.

    Uses series coefficients for small rotation angles so the result is
    orthogonal to rounding for any magnitude of t*|g|.
    """
    g = np.asarray(g, dtype=float)
    w = vee(g) * t
    ang = np.linalg.norm(w, axis=-1)
    small = ang < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 1.0 - ang**2 / 6.0, np.sin(ang) / np.where(small, 1.0, ang))
        c = np.where(
            small, 0.5 - ang**2 / 24.0, (1.0 - np.cos(ang)) / np.where(small, 1.0, ang**2)
        )
    k = hat(w)
    return EYE3 + s[..., None, None] * k + c[..., None, None] * (k @ k)


def polar_project(r: np.ndarray) -> np.ndarray:
    """Nearest special-orthogonal matrix (Frobenius) via SVD, batched."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=float))
    det = np.linalg.det(u @ vt)
    fix = np.ones(u.shape[:-2] + (3,))
    fix[..., -1] = np.sign(det)
    return (u * fix[..., None, :]) @ vt


def rotation_angle(r: np.ndarray) -> np.ndarray:
    tr = np.einsum("...ii->...", r)
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))


def _quat_from_small_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation with angle < pi/2."""
    tr = np.einsum("...ii->...", r)
    w = 0.5 * np.sqrt(np.maximum(1.0 + tr, 0.0))
    s = 0.25 / w
    return np.stack(
        [
            w,
            s * (r[..., 2, 1] - r[..., 1, 2]),
            s * (r[..., 0, 2] - r[..., 2, 0]),
            s * (r[..., 1, 0] - r[..., 0, 1]),
        ],
        axis=-1,
    )


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def su2_path_lift(loop: np.ndarray) -> int:
    """Lift a sampled SO(3) loop to SU(2) and report the holonomy sign.

    loop has shape (n, 3, 3) with loop[-1] equal to loop[0].  The lift is
    continued stepwise through relative rotations loop[k]^T loop[k+1]; each
    step must rotate by less than MAX_LIFT_STEP or SamplingTooCoarse is raised,
    since the continuation is otherwise ambiguous.  Returns +1 if the lift
    closes at the same SU(2) element and -1 if it closes at its negative
    (i.e. the loop is nontrivial in the fundamental group of SO(3)).
    """
    loop = np.asarray(loop, dtype=float)
    if loop.ndim != 3 or loop.shape[1:] != (3, 3):
        raise ValueError("loop must have shape (n, 3, 3)")
    if loop.shape[0] < 3:
        raise SamplingTooCoarse("need at least 3 samples to lift a loop")
    steps = np.swapaxes(loop[:-1], -1, -2) @ loop[1:]
    angles = rotation_angle(steps)
    amax = float(angles.max())
    if amax >= MAX_LIFT_STEP:
        raise SamplingTooCoarse(
            f"largest step rotates by {amax:.3f} rad >= {MAX_LIFT_STEP:.3f}"
        )
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for dq in _quat_from_small_rotation(steps):
        q = _quat_mul(q, dq)
    w = float(q[0])
    if abs(w) < 0.9:
        raise SamplingTooCoarse(f"lift did not close near +-Id (scalar part {w:.3f})")
    return 1 if w > 0 else -1
