#!/usr/bin/env python3
"""Convergence of the two Chern discretizations with mesh refinement.

Prints the deviation from the quantized value for the pure-precession
bands and for the three-fold degenerate cluster, at a sequence of ring
counts, for the link-variable scheme and for the smoothed-gauge
curvature scheme on both mesh layouts; the cluster is also run on the
closed-form (analytic) frames.  A deviation at or below 1e-12 is
round-off, which moves with BLAS rounding, and prints as <1e-12.
"""

from __future__ import annotations

import argparse

from happer.errors import MeshResolutionError
from happer.geometry import chern_number_curvature, chern_number_link_variable
from happer.mesh import SphereMesh
from happer.model import FieldDirection, ModelParams, zeeman_params


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rings", default="50,100,200,400",
                        help="comma-separated ring counts")
    args = parser.parse_args()
    rings = [int(v) for v in args.rings.split(",")]

    zeeman = zeeman_params()
    cluster = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    print(f"{'rings':>6} {'case':<22} {'scheme':<29} {'value':>12} {'deviation':>11}")
    for n in rings:
        cases = [
            ("precession k=+1", zeeman, 3,
             [("link uniform", lambda p, l: chern_number_link_variable(
                 p, l, SphereMesh(n, 2 * n, "uniform"))),
              ("curvature uniform", lambda p, l: chern_number_curvature(
                  p, l, SphereMesh(n, 2 * n, "uniform"))),
              ("curvature equal-area", lambda p, l: chern_number_curvature(
                  p, l, SphereMesh(n, 2 * n, "equal-area")))]),
            ("degenerate cluster", cluster, (3, 4, 5),
             [("link uniform", lambda p, l: chern_number_link_variable(
                 p, l, SphereMesh(n, 2 * n, "uniform"))),
              ("curvature uniform", lambda p, l: chern_number_curvature(
                  p, l, SphereMesh(n, 2 * n, "uniform"))),
              ("curvature equal-area", lambda p, l: chern_number_curvature(
                  p, l, SphereMesh(n, 2 * n, "equal-area"))),
              ("curvature analytic uniform", lambda p, l: chern_number_curvature(
                  p, l, SphereMesh(n, 2 * n, "uniform"), source="analytic")),
              ("curvature analytic equal-area", lambda p, l: chern_number_curvature(
                  p, l, SphereMesh(n, 2 * n, "equal-area"), source="analytic"))]),
        ]
        for case_name, params, labels, schemes in cases:
            for scheme_name, fn in schemes:
                try:
                    res = fn(params, labels)
                except MeshResolutionError as refusal:
                    print(f"{n:>6} {case_name:<22} {scheme_name:<29} ({refusal})")
                    continue
                deviation = f"{res.deviation:.2e}" if res.deviation > 1e-12 else "<1e-12"
                print(f"{n:>6} {case_name:<22} {scheme_name:<29} "
                      f"{res.fourpi:>12.6f} {deviation:>11}")


if __name__ == "__main__":
    main()
