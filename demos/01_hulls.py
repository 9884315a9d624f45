"""Generalized hulls of a point set under different transform families.

Fixes one sample of points and shows how the hull grows as the family of
admissible transforms of the reference body grows: translations of a
square, translations and scalings, all invertible affine maps, linear
maps applied to a ball, and the conic/spherical variants.
"""

import numpy as np

from khull import (
    cube,
    hull_full_affine,
    hull_linear_ball,
    hull_translations_scalings,
    k_hull_translations,
    positive_hull,
    spherical_hull_halfball,
)


def describe(label, result):
    body = result.body
    kind = type(body).__name__
    vertices = getattr(body, "vertices", None)
    extra = f", {len(vertices)} vertices" if vertices is not None else ""
    print(f"{label:28s} {kind}{extra}")


def main():
    rng = np.random.default_rng(2024)
    square = cube(2)
    points = 1.2 * rng.random((8, 2)) - 0.6

    print("sample points:")
    for p in points:
        print(f"  ({p[0]:+.3f}, {p[1]:+.3f})")
    print()

    describe("square translations:", k_hull_translations(square, points))
    describe("translations + scalings:",
             hull_translations_scalings(square, points))
    describe("full affine (= conv):", hull_full_affine(points))
    describe("linear maps of a ball:", hull_linear_ball(points))

    # Conic hulls ignore the reference body's size.
    describe("positive hull:", positive_hull(points + np.array([1.0, 0.0])))

    upper = np.abs(points) * 0.5 + 0.1
    res = spherical_hull_halfball(upper)
    lo, hi = res.body.arc()
    print(f"{'spherical hull arc:':28s} [{np.degrees(lo):.1f} deg, "
          f"{np.degrees(hi):.1f} deg]  (exact)")

    # Monotonicity: a larger transform family can only shrink nothing.
    k_hull = k_hull_translations(square, points).body
    ts_hull = hull_translations_scalings(square, points).body
    conv = hull_full_affine(points).body
    assert k_hull.contains(conv.vertices).all()
    assert ts_hull.contains(conv.vertices).all()
    print("\nsandwich verified: conv(A) lies inside every hull above.")


if __name__ == "__main__":
    main()
