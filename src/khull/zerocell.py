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

from .bodies import Ball, GEO_TOL, HalfBall, Polytope, row_norms
from .poisson import sample_PK

__all__ = [
    "CONE_PRESETS",
    "ConeSpec",
    "HalfSpaceSystem",
    "build_zero_cell",
    "cone_preset",
    "cone_projection",
    "flatten_pair",
    "halfspaces_from_marks",
    "is_bounded",
    "membership",
    "recession_cone_TK",
    "reflect",
    "reflected_recession_in_cone",
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
    in the coordinates of a cone subspace.
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
    return window_radius * (1.0 + _max_boundary_norm(body))


def build_zero_cell(body, window_radius, seed=None, rng=None, t_max=None):
    """Zero-cell constraints that can bind inside the given window.

    Marks up to `window_horizon` are drawn, so the returned truncated
    system agrees with the infinite one on the whole window.
    """
    d = body.dim
    if t_max is None:
        t_max = window_horizon(body, window_radius)
    sample = sample_PK(body, t_max, seed=seed, rng=rng)
    normals, offsets = halfspaces_from_marks(sample.t, sample.eta, sample.u)
    return HalfSpaceSystem(normals, offsets, d, sample=sample)


def _max_boundary_norm(body):
    if isinstance(body, Polytope):
        return body.max_norm
    if isinstance(body, (Ball, HalfBall)):
        return float(body.radius)
    raise TypeError(f"unsupported body {type(body).__name__}")


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


def _orthonormalize(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    q, _ = np.linalg.qr(rows.T)
    # Align signs with the input rows for readable coordinates.
    q = q.T
    for i in range(len(q)):
        j = int(np.argmax(np.abs(rows[i])))
        if q[i, j] * rows[i, j] < 0:
            q[i] = -q[i]
    return q


def cone_preset(name, d):
    """Named tangent cones of the transformation families."""
    dd = d * d

    def mat_row(c):
        return flatten_pair(np.zeros(d), c)

    if name == "translations":
        basis = np.eye(d, d + dd)
    elif name == "skew":  # special orthogonal group
        rows = []
        for i in range(d):
            for j in range(i + 1, d):
                c = np.zeros((d, d))
                c[i, j], c[j, i] = 1.0, -1.0
                rows.append(mat_row(c))
        basis = _orthonormalize(rows)
    elif name == "traceless":  # special linear group
        rows = []
        for i in range(d):
            for j in range(d):
                if i != j:
                    c = np.zeros((d, d))
                    c[i, j] = 1.0
                    rows.append(mat_row(c))
        for i in range(d - 1):
            c = np.zeros((d, d))
            c[i, i], c[i + 1, i + 1] = 1.0, -1.0
            rows.append(mat_row(c))
        basis = _orthonormalize(rows)
    elif name == "symmetric-traceless":
        rows = []
        for i in range(d):
            for j in range(i + 1, d):
                c = np.zeros((d, d))
                c[i, j] = c[j, i] = 1.0
                rows.append(mat_row(c))
        for i in range(d - 1):
            c = np.zeros((d, d))
            c[i, i], c[i + 1, i + 1] = 1.0, -1.0
            rows.append(mat_row(c))
        basis = _orthonormalize(rows)
    elif name == "diagonal":
        rows = []
        for i in range(d):
            c = np.zeros((d, d))
            c[i, i] = 1.0
            rows.append(mat_row(c))
        basis = np.array(rows)
    elif name == "scalings":  # (x, r*I): translations plus scalar dilations
        rows = [np.eye(d, d + dd)[i] for i in range(d)]
        rows.append(mat_row(np.eye(d) / math.sqrt(d)))
        basis = np.array(rows)
    elif name == "full":
        basis = np.eye(d + dd)
    else:
        raise ValueError(f"unknown cone preset {name!r}")
    return ConeSpec(name, basis, d)


CONE_PRESETS = ("translations", "skew", "traceless", "symmetric-traceless",
                "diagonal", "scalings", "full")


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
    return replace(system, normals=proj[keep], offsets=system.offsets[keep])


# -- recession cone and boundedness --------------------------------------------

@dataclass(frozen=True)
class RecessionCone:
    """T_K = {(x,C) : <C y + x, u> >= 0 for all (y,u) in Nor(K)}.

    Membership goes through the survival functional
    s(p) = max over (y,u) in Nor(K) of <(u, u outer y), p>, which is
    sublinear with -T_K = {s <= 0}: p is in T_K iff
    `contains_reflected(-p)`.  For polytopes the finite list of
    (vertex, facet normal) rows is exact; for balls the maximum over the
    unit sphere is the exact trust-region subproblem.
    """

    body: object
    rows: np.ndarray | None = None  # (m, d+d^2) generators (u, u outer y)

    def survival(self, point):
        """s(point) and a generator g of Nor(K) with <g, point> = s(point).

        Every such g gives the cut s >= <g, .>, valid everywhere.
        """
        p = np.asarray(point, dtype=float)
        if self.rows is not None:
            vals = self.rows @ p
            j = int(np.argmax(vals))
            return float(vals[j]), self.rows[j]
        # Ball of radius r, y = r u: max over unit u of r u'sym(C)u + <x, u>.
        d, r = self.body.dim, self.body.radius
        x, c = p[:d], p[d:].reshape(d, d)
        val, u = _min_sphere_quadratic(-0.5 * (c + c.T) * r, -x)
        return -val, flatten_pair(u, r * np.outer(u, u))

    def contains_reflected(self, point):
        """Membership of the reflected cone -T_K."""
        return self.survival(point)[0] <= GEO_TOL


def recession_cone_TK(body):
    if isinstance(body, Polytope):
        rows = [flatten_pair(u, np.outer(u, v))
                for idx, u in zip(body.facet_vertex_sets(), body.facet_normals)
                for v in body.vertices[idx]]
        return RecessionCone(body, np.array(rows))
    if isinstance(body, Ball):
        return RecessionCone(body)
    raise TypeError(f"unsupported body {type(body).__name__}")


def _min_sphere_quadratic(a, b):
    """min of y^T A y + <b, y> over the unit sphere (A symmetric), and a
    unit minimiser y.

    Trust-region subproblem on the boundary: solved through the secular
    equation in the eigenbasis of A, with the hard case handled.
    """
    w, q = np.linalg.eigh(a)
    beta = q.T @ b
    lam_min = w[0]
    gap = w - lam_min

    # y(lam) = -(2(A - lam I))^{-1} b must have unit norm with lam <= lam_min.
    degenerate = np.abs(beta) < 1e-14
    if np.all(degenerate[gap < 1e-12]):
        # Hard case: b has no component along the bottom eigenspace.
        active = ~degenerate
        if not np.any(active):
            return float(lam_min), q[:, 0]
        n2 = float(np.sum((beta[active] / (2 * gap[active])) ** 2))
        if n2 <= 1.0:
            y = np.zeros_like(beta)
            y[active] = -beta[active] / (2 * gap[active])
            extra = math.sqrt(1.0 - n2)
            y[int(np.argmin(w))] = extra
            yy = q @ y
            return float(yy @ a @ yy + b @ yy), yy

    def excess(mu):
        """|y(lam_min - mu)|^2 - 1, decreasing in mu > 0."""
        return float(np.sum((beta / (2 * (gap + mu))) ** 2)) - 1.0

    # |y| <= |b| / (2 mu), so the root lies below hi.  Each step down keeps
    # every coordinate of y below 8 in size (no overflow), and mu > 0 keeps
    # every division finite.
    lo = hi = 0.5 * float(np.linalg.norm(b)) + 1.0
    while excess(lo) < 0.0 and lo > 1e-300:
        hi, lo = lo, lo / 8.0
    mu = (lo if excess(lo) < 0.0
          else scipy.optimize.brentq(excess, lo, hi, xtol=1e-300))
    y = q @ (-beta / (2 * (gap + mu)))
    y = y / np.linalg.norm(y)
    return float(y @ a @ y + b @ y), y


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
    Returns (True, None) or (False, v) with `contains_reflected(v)`.
    """
    rec = recession_cone_TK(body)
    basis, k = cone.basis, cone.n_params
    faces = [(i, sign) for i in range(k) for sign in (1.0, -1.0)]
    # A polytope's rows make its first LPs exact.
    cuts = [] if rec.rows is None else list(rec.rows)
    for i, sign in faces:
        v = sign * basis[i]
        value, g = rec.survival(v)
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
        value, g = rec.survival(v)
        if value <= GEO_TOL:
            return False, v
        cuts.append(g)
    raise RuntimeError(f"is_bounded undecided after {MAX_CUT_ROUNDS} "
                       "cutting-plane rounds")


def reflected_recession_in_cone(body, cone):
    """Exact H-rep of -T_K intersected with the cone subspace, for a ball.

    Requires a cone of pure matrix directions whose matrices are symmetric
    and pairwise commute: in a common eigenbasis the semidefiniteness
    condition sym(C) <= 0 becomes one linear inequality per eigenvector.
    The diagonal preset returns the nonpositive orthant.
    """
    if not isinstance(body, Ball):
        raise TypeError("exact restricted recession cone needs a ball body")
    d = body.dim
    mats = []
    for v in cone.basis:
        x, c = v[:d], v[d:].reshape(d, d)
        if np.linalg.norm(x) > 1e-12 or np.linalg.norm(c - c.T) > 1e-12:
            raise ValueError("cone must consist of symmetric matrix "
                             "directions")
        mats.append(c)
    for a in mats:
        for b in mats:
            if np.linalg.norm(a @ b - b @ a) > 1e-10:
                raise ValueError("cone matrices must commute")
    mix = sum((i + 1) * m for i, m in enumerate(mats))
    _, q = np.linalg.eigh(mix)
    rows = np.array([[q[:, j] @ m @ q[:, j] for m in mats]
                     for j in range(d)])
    rows = rows[np.linalg.norm(rows, axis=1) > 1e-12]
    return rows  # constraint rows: rows @ coords <= 0


# -- reflections and equivariance ----------------------------------------------

def reflect(system):
    """System of the reflected cell: p inside iff -p inside the original."""
    return replace(system, normals=-system.normals)


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
    return replace(system, normals=normals)


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
    return replace(system, normals=normals)


def rotation_point_map(point, a, d):
    """The orthogonal map (x, C) -> (A x, A C A^T) on flattened points."""
    p = np.asarray(point, dtype=float)
    x, c = p[:d], p[d:].reshape(d, d)
    return flatten_pair(a @ x, a @ c @ a.T)

