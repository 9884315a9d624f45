"""From boundary marks to the limiting zero cell.

Simulates the Poisson process of weighted normal-bundle marks on the unit
square, turns each mark (t, eta, u) into a half space in R^(d+d^2) via the
pairing <(x, C), (u, u eta^T)> = <C eta + x, u>, and explores the
resulting cell: membership, directional extents, and the restriction to
parametric transform cones.
"""

import numpy as np

from khull import (
    build_zero_cell,
    cone_preset,
    cube,
    flatten_pair,
    membership,
    restrict_to_cone,
    sample_PK,
    support_extent,
)


def main():
    square = cube(2)
    sample = sample_PK(square, t_max=3.0, seed=7)
    print(f"Poisson sample on (0, 3] x Nor(K): {len(sample)} marks "
          f"(rate {2.0:.0f} per unit weight), held as arrays t "
          f"{sample.t.shape}, eta {sample.eta.shape}, u {sample.u.shape}")
    for t, eta, u in zip(sample.t[:3], sample.eta[:3], sample.u[:3]):
        print(f"  t={t:.3f}  eta=({eta[0]:+.2f},{eta[1]:+.2f})"
              f"  u=({u[0]:+.0f},{u[1]:+.0f})")
    print("  ...")

    system = build_zero_cell(square, window_radius=3.0, seed=7)
    print(f"\nzero cell in R^6 from {system.n_constraints} constraints "
          f"(window radius 3, exact for |x|,|C| <= 3)")

    # The identity ray (0, mu I), mu <= 0 is always feasible.
    for mu in (-2.0, -0.5, 0.0, 0.5):
        inside = membership(system, flatten_pair(np.zeros(2), mu * np.eye(2)))
        print(f"  (0, {mu:+.1f} I) in cell: {inside}")

    # Directional extents along translation axes.
    extents = {}
    for axis, label in ((0, "+x"), (1, "+y")):
        direction = np.zeros(6)
        direction[axis] = 1.0
        extents[axis] = support_extent(system, direction)
        print(f"  extent along {label} translation: {extents[axis]:.4f}")

    # Restrict to rigid motions generated by rotations (skew part).
    skew = restrict_to_cone(system, cone_preset("skew", 2))
    plus = skew.extent(np.array([1.0]))
    minus = skew.extent(np.array([-1.0]))
    print(f"\nrotation slice of the cell (angles in radians): "
          f"[-{minus / np.sqrt(2):.4f}, +{plus / np.sqrt(2):.4f}]")

    # Scan the scalings slice around the cell's translation extent.
    scalings = restrict_to_cone(system, cone_preset("scalings", 2))
    r = 0.2 * extents[0]
    grid = np.linspace(-1.5 * extents[0], 1.5 * extents[0], 7)
    print(f"\nscalings slice, feasible (x1, 0, r={r:.4f}):")
    for x1 in grid:
        coords = np.array([x1, 0.0, r * np.sqrt(2)])
        flag = "inside" if scalings.contains(coords[None])[0] else "outside"
        print(f"  x1 = {x1:+.4f}: {flag}")


if __name__ == "__main__":
    main()
