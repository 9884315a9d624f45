"""Unboundedness of the zero cell and the dual-cone intensity.

The recession cone of the cell consists of the pairs (x, C) with
<C y + x, u> >= 0 on the whole normal bundle.  Restricting the allowed
transforms decides whether the cell is bounded: the full linear group
leaves escape routes (e.g. rotations of a ball), while the traceless
symmetric part does not.  The second half estimates the radial density
exponent of the projected dual process.
"""

import numpy as np

from khull import (
    Ball,
    cone_preset,
    contains_reflected_recession,
    cube,
    dual_cone_intensity_experiment,
    is_bounded,
)


def main():
    ball = Ball(1.0, 2)
    print("boundedness of the zero cell, Ball(1) in R^2:")
    for name in ("translations", "skew", "diagonal",
                 "symmetric-traceless", "full"):
        bounded, witness = is_bounded(ball, cone_preset(name, 2))
        note = "" if bounded else "  (escape direction found)"
        print(f"  cone {name:22s} bounded: {bounded}{note}")

    print("\nboundedness for the square:")
    bounded, _ = is_bounded(cube(2), cone_preset("translations", 2))
    print(f"  cone translations          bounded: {bounded}")

    # Restricted to diagonal matrices, the reflected recession cone of the
    # ball is exactly the nonpositive orthant.
    rows = ball.reflected_recession_rows(cone_preset("diagonal", 2))
    print("\nreflected recession cone on diagonal matrices "
          "(rows of c <= 0):")
    for row in rows[np.lexsort(rows.T)]:
        print(f"  {row}")

    probe = np.concatenate([np.zeros(2), (-0.7 * np.eye(2)).ravel()])
    print(f"\n(0, -0.7 I) in -T_K: "
          f"{contains_reflected_recession(ball, probe)}")

    print("\ndual-cone radial intensity (expected exponent -d):")
    for d in (2, 3):
        rep = dual_cone_intensity_experiment(d=d, target_points=50000,
                                             seed=5)
        print(f"  d={d}: fitted slope {rep.statistics['slope']:+.3f} "
              f"from {rep.statistics['points_used']} dual points")


if __name__ == "__main__":
    main()
