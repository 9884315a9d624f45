"""Limiting zero cell as a half-space intersection in R^(d+d^2).

Each Poisson mark (t, eta, u) contributes the constraint
<C eta + x, u> <= t on pairs (x, C), which in the flattened product
inner product <(x,C1),(y,C2)> = <x,y> + Tr(C1 C2^T) is the half-space
with normal (u, N), N[i,j] = u[i]*eta[j], and offset t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy

from .bodies import GEO_TOL, _check_finite_positive, row_norms
from .poisson import sample_PK

__all__ = [
    "CONE_PRESETS",
    "ConeSpec",
    "HalfSpaceSystem",
    "build_zero_cell",
    "cone_preset",
    "cone_projection",
    "contains_reflected_recession",
    "flatten_pair",
    "halfspaces_from_marks",
    "is_bounded",
    "membership",
    "reflect",
    "restrict_to_cone",
    "support_extent",
    "transform_rotation_of_K",
    "transform_translation_of_K",
    "window_horizon",
]


def flatten_pair(x, c):
    """The pair (x, C) in R^d x M_d as one flat (d + d^2) vector: x, then
    the rows of C."""
    return np.concatenate([np.asarray(x, float).ravel(),
                           np.asarray(c, float).reshape(-1)])


def halfspaces_from_marks(t, eta, u):
    """Constraint normals (u, u outer eta) in R^(d+d^2) and offsets t.

    Broadcasts over leading axes: one mark (1-D eta, u) gives one normal,
    (n, d) arrays give (n, d+d^2) rows.
    """
    eta, u = np.asarray(eta, dtype=float), np.asarray(u, dtype=float)
    d = u.shape[-1]
    outer = (u[..., :, None] * eta[..., None, :]).reshape(*u.shape[:-1],
                                                          d * d)
    return np.concatenate([u, outer], axis=-1), np.asarray(t, dtype=float)


# Rows per block of a batch `HalfSpaceSystem.contains`.
_CONTAINS_BLOCK = 64


@dataclass(frozen=True)
class HalfSpaceSystem:
    """Finite half-space intersection {p : <p, normal_i> <= offset_i}.

    Offsets are positive, so the origin is always strictly feasible.  The
    same type holds the cell in R^(d+d^2) and, after `restrict_to_cone`,
    in the coordinates of a cone subspace.  `sample` holds the marks that
    `build_zero_cell` drew, row i from mark i; a system derived from
    another (`restrict_to_cone`, `reflect`, `transform_*`) has none.
    """

    normals: np.ndarray  # (m, dim) rows
    offsets: np.ndarray  # (m,) positive
    body_dim: int
    sample: object = None

    @property
    def dim(self):
        return self.normals.shape[1]

    @property
    def n_constraints(self):
        return len(self.offsets)

    def contains(self, points):
        """Whether each row p has every <p, normal_i> <= offset_i + GEO_TOL.

        Points are tested `_CONTAINS_BLOCK` rows at a time, so the
        (points x constraints) product never exists whole.  The blocked
        product may take other BLAS kernels than one whole product, which
        can move a dot product by an ulp or so (about 2e-15 on the cube's
        zero cell): a verdict can differ from the single-product one only
        for a point that close to offset_i + GEO_TOL, and the same input always
        gives the same verdict.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        bound = self.offsets + GEO_TOL
        out = np.empty(len(points), dtype=bool)
        for start in range(0, len(points), _CONTAINS_BLOCK):
            rows = slice(start, start + _CONTAINS_BLOCK)
            np.all(points[rows] @ self.normals.T <= bound, axis=1,
                   out=out[rows])
        return out

    def extent(self, direction):
        """sup{s >= 0 : s * direction in system}; inf when the ray recedes."""
        dots = self.normals @ np.asarray(direction, dtype=float)
        ratios = np.divide(self.offsets, dots, out=np.full(len(dots), np.inf),
                           where=dots > GEO_TOL)
        return float(np.min(ratios, initial=np.inf))


# `perfbench/tracing.py` hooks `contains` and `extent` under this name.
RestrictedSystem = HalfSpaceSystem


def window_horizon(body, window_radius):
    """Largest mark weight t that can cut the window ball of radius R.

    A constraint with normal (u, N) satisfies sup over the window of
    <C eta + x, u> <= R * (1 + |eta|), so marks with t > R * (1 + max |eta|)
    never cut it.
    """
    return window_radius * (1.0 + body.max_norm)


def build_zero_cell(body, window_radius, seed=None):
    """Zero-cell constraints that can bind inside the given window.

    Marks up to `window_horizon` are drawn by `sample_PK` with the same
    `seed` convention, so the returned truncated system agrees with the
    infinite one on the whole window.  A window_radius that is not finite
    and positive raises a ValueError that names it.
    """
    _check_finite_positive(window_radius, "window_radius")
    sample = sample_PK(body, window_horizon(body, window_radius), seed)
    normals, offsets = halfspaces_from_marks(sample.t, sample.eta, sample.u)
    return HalfSpaceSystem(normals, offsets, body.dim, sample=sample)


def membership(system, point):
    return bool(system.contains(np.asarray(point)[None])[0])


def support_extent(system, direction):
    """sup{s >= 0 : s * direction in system}; inf when the ray recedes."""
    return system.extent(direction)


# -- cone specifications -------------------------------------------------------

@dataclass(frozen=True)
class ConeSpec:
    """Linear subspace of R^d x M_d; basis rows are orthonormal flattened
    (x, C) vectors."""

    name: str
    basis: np.ndarray
    dim: int  # ambient body dimension d

    @property
    def n_params(self):
        return len(self.basis)

    def embed(self, coords):
        """Subspace coordinates -> flattened ambient vector."""
        return np.asarray(coords, dtype=float) @ self.basis


def _orthonormalize(rows, d):
    """Orthonormal rows spanning the flat rows, (0, d + d^2) when none."""
    rows = np.reshape(np.asarray(rows, dtype=float), (-1, d + d * d))
    q, _ = np.linalg.qr(rows.T)
    # Align signs with the input rows for readable coordinates.
    q = q.T
    for i in range(len(q)):
        j = int(np.argmax(np.abs(rows[i])))
        if q[i, j] * rows[i, j] < 0:
            q[i] = -q[i]
    return q


def _e(d, i, j):
    """The flat matrix direction (0, E_ij) in R^d x M_d."""
    row = np.zeros(d + d * d)
    row[d + i * d + j] = 1.0
    return row


def _pairs(d):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def _trace_steps(d):
    return [_e(d, i, i) - _e(d, i + 1, i + 1) for i in range(d - 1)]


# Named tangent cones of the transformation families: name -> basis in
# dimension d.  skew spans so(d), traceless sl(d); scalings is (x, r*I).
_CONE_BASES = {
    "translations": lambda d: np.eye(d, d + d * d),
    "skew": lambda d: _orthonormalize(
        [_e(d, i, j) - _e(d, j, i) for i, j in _pairs(d)], d),
    "traceless": lambda d: _orthonormalize(
        [_e(d, i, j) for i in range(d) for j in range(d) if i != j]
        + _trace_steps(d), d),
    "symmetric-traceless": lambda d: _orthonormalize(
        [_e(d, i, j) + _e(d, j, i) for i, j in _pairs(d)] + _trace_steps(d),
        d),
    "diagonal": lambda d: np.array([_e(d, i, i) for i in range(d)]),
    "scalings": lambda d: np.vstack(
        [np.eye(d, d + d * d), sum(_e(d, i, i) for i in range(d))
         / math.sqrt(d)]),
    "full": lambda d: np.eye(d + d * d),
}
CONE_PRESETS = tuple(_CONE_BASES)


def cone_preset(name, d):
    """The named tangent cone in dimension d (names in `CONE_PRESETS`)."""
    if name not in _CONE_BASES:
        raise ValueError(f"unknown cone preset {name!r}")
    return ConeSpec(name, _CONE_BASES[name](d), d)


def cone_projection(normals, cone):
    """Constraint normals in the cone's subspace coordinates, and a mask of
    the rows kept: a row with vanishing projection never binds inside the
    subspace."""
    proj = normals @ cone.basis.T
    return proj, row_norms(proj) > 1e-12


def restrict_to_cone(system, cone):
    """The system in the cone's subspace coordinates (a change of basis),
    without the constraints that `cone_projection` drops."""
    proj, keep = cone_projection(system.normals, cone)
    return replace(system, normals=proj[keep], offsets=system.offsets[keep],
                   sample=None)


# -- recession cone and boundedness --------------------------------------------

def contains_reflected_recession(body, point):
    """Is the flat point in the reflected recession cone -T_K?

    T_K = {(x,C) : <C y + x, u> >= 0 for all (y,u) in Nor(K)}.  The body's
    survival functional s(p) = max over (y,u) in Nor(K) of
    <(u, u outer y), p> is sublinear with -T_K = {s <= 0}, so p is in
    T_K iff -p is in -T_K.
    """
    return body.survival(point)[0] <= GEO_TOL


# Cutting-plane rounds before `is_bounded` gives up.  The presets need at
# most one, random cones of up to eight dimensions (boundary-touching ones
# included) at most eight.
MAX_CUT_ROUNDS = 100


def is_bounded(body, cone):
    """Decide whether the zero cell restricted to the cone is a.s. bounded.

    Bounded iff the reflected recession cone -T_K = {s <= 0} meets the cone
    only at the origin, that is iff s > 0 on every face c_i = +-1 of the
    coordinate box.  Kelley's cutting-plane method decides each face: an
    LP over one shared pool of cuts s >= <g, .> bounds s from below on
    every open face, and a face whose bound exceeds GEO_TOL is certified.
    The face with the lowest bound is evaluated at its LP minimiser; a
    value <= GEO_TOL is a witness, otherwise its generator is a new cut.
    Returns (True, None) or (False, v) with
    `contains_reflected_recession(body, v)`.
    """
    basis, k = cone.basis, cone.n_params
    faces = [(i, sign) for i in range(k) for sign in (1.0, -1.0)]
    # A polytope's rows make its first LPs exact; a ball has none.
    cuts = list(body.normal_bundle_rows)
    for i, sign in faces:
        v = sign * basis[i]
        value, g = body.survival(v)
        if value <= GEO_TOL:
            return False, v
        cuts.append(g)
    objective = np.append(np.zeros(k), 1.0)
    for _ in range(MAX_CUT_ROUNDS):
        a_ub = np.column_stack([np.array(cuts) @ basis.T,
                                -np.ones(len(cuts))])
        lowest, still_open = None, []
        for i, sign in faces:
            bounds = [(-1.0, 1.0)] * k + [(None, None)]
            bounds[i] = (sign, sign)
            res = scipy.optimize.linprog(
                objective, A_ub=a_ub, b_ub=np.zeros(len(cuts)),
                bounds=bounds, method="highs")
            if not res.success:
                raise RuntimeError(f"boundedness LP failed: {res.message}")
            if res.fun > GEO_TOL:
                continue
            still_open.append((i, sign))
            if lowest is None or res.fun < lowest.fun:
                lowest = res
        if not still_open:
            return True, None
        faces = still_open
        v = lowest.x[:k] @ basis
        value, g = body.survival(v)
        if value <= GEO_TOL:
            return False, v
        cuts.append(g)
    raise RuntimeError(f"is_bounded undecided after {MAX_CUT_ROUNDS} "
                       "cutting-plane rounds")


# -- reflections and equivariance ----------------------------------------------

def reflect(system):
    """System of the reflected cell: p inside iff -p inside the original."""
    return replace(system, normals=-system.normals, sample=None)


def transform_translation_of_K(system, v):
    """System for K + v from the marks of K.

    The cell of K + v is the image of the cell of K under
    (x, C) -> (x - C v, C); constraint normals transform by the adjoint
    of the inverse map, (u, N) -> (u, N + u outer v).
    """
    v = np.asarray(v, dtype=float)
    d = system.body_dim
    u = system.normals[:, :d]
    normals = system.normals.copy()
    normals[:, d:] += (u[:, :, None] * v).reshape(len(u), d * d)
    return replace(system, normals=normals, sample=None)


def translation_point_map(point, v, d):
    """The map (x, C) -> (x - C v, C) on flattened points."""
    p = np.asarray(point, dtype=float)
    x, c = p[:d], p[d:].reshape(d, d)
    return flatten_pair(x - c @ v, c)


def transform_rotation_of_K(system, a):
    """System for A K from the marks of K, A orthogonal.

    Marks transform as (t, eta, u) -> (t, A eta, A u); the cell transforms
    by the product-space orthogonal map (x, C) -> (A x, A C A^T).
    """
    a = np.asarray(a, dtype=float)
    d = system.body_dim
    mats = system.normals[:, d:].reshape(-1, d, d)
    normals = np.concatenate([system.normals[:, :d] @ a.T,
                              (a @ mats @ a.T).reshape(-1, d * d)], axis=1)
    return replace(system, normals=normals, sample=None)


def rotation_point_map(point, a, d):
    """The orthogonal map (x, C) -> (A x, A C A^T) on flattened points."""
    p = np.asarray(point, dtype=float)
    x, c = p[:d], p[d:].reshape(d, d)
    return flatten_pair(a @ x, a @ c @ a.T)

