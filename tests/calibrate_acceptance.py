"""One-time calibration run for the acceptance baselines.

Runs the full pinned refinement ladder at the five fixed test points, then
the extension-independence gaps at the middle rung, and writes the result to
tests/acceptance_baselines.json, the file the `baselines` fixture of
test_acceptance.py loads.  The file records the seed, the ladder and the
point specs next to the measured residuals, so the fixture can refuse a file
calibrated under a different configuration.  Not collected by pytest; from
the repo root run ``PYTHONPATH=src python tests/calibrate_acceptance.py``
(the output path does not depend on the working directory).
"""

import json
import os
import time

import numpy as np

from crhomotopy import fields, geometry
from crhomotopy.homotopy import apply_operator, identity_residual

LADDER = [(0.1, 10_000), (0.05, 100_000), (0.025, 1_000_000)]
SEED = 101
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "acceptance_baselines.json")
POINT_SPECS = [
    ([0.05, -0.03, 0.02, 0.0], 0.01),
    ([-0.04 + 0.02j, 0.02 - 0.01j, 0.03, -0.05], -0.02),
    ([0.0, 0.06j, -0.04, 0.02 + 0.02j], 0.03),
    ([0.08, 0.01 - 0.03j, 0.0, -0.02j], 0.0),
    ([-0.02 - 0.02j, 0.0, 0.05 + 0.01j, 0.03], -0.01),
]


def test_points(model):
    return [model.graph_point(np.array(zp, dtype=complex), np.array([u]))
            for zp, u in POINT_SPECS]


def point_records():
    """The point specs in JSON form: each zp entry as a [re, im] pair
    (adding 0.0 turns the -0.0 parts of literals like -0.02j into 0.0)."""
    return [{"zp": [[complex(c).real + 0.0, complex(c).imag + 0.0]
                    for c in zp], "u": u}
            for zp, u in POINT_SPECS]


def main():
    model = geometry.load_bundled_model("sig22_n5")
    f = fields.bundled_test_form(model)
    points = test_points(model)
    out = {"seed": SEED, "points": point_records(), "ladder": []}
    for eps, budget in LADDER:
        t0 = time.time()
        rows = identity_residual(model, f, points, epsilon=eps, budget=budget,
                                 seed=SEED, box_radius=0.8)
        residuals = [r.residual for r in rows]
        out["ladder"].append({
            "epsilon": eps, "budget": budget,
            "residuals": residuals,
            "worst": max(residuals),
            "seconds": round(time.time() - t0, 1),
        })
        print(json.dumps(out["ladder"][-1]), flush=True)

    # extension independence at the middle rung
    eps, budget = LADDER[1]
    from oracles import gradient_flow_projection
    from crhomotopy.quadrature import QuadratureGrid
    diffs = []
    t0 = time.time()
    for idx, z in enumerate(points):
        zp, w = model.split(z)
        grid = QuadratureGrid(model=model, epsilon=eps, budget=budget,
                              mode="mc-shell", seed=SEED + idx,
                              center_zp=zp, center_u=w.real, box_radius=0.8)
        ra = apply_operator(model, f, z, grid, kind="solution")
        rb = apply_operator(model, f, z, grid, kind="solution",
                            extension=lambda pts: gradient_flow_projection(
                                model, pts))
        diffs.append(float(np.max(np.abs(ra.ambient - rb.ambient))))
    out["extension_diffs"] = diffs
    out["extension_seconds"] = round(time.time() - t0, 1)
    print(json.dumps({"extension_diffs": diffs,
                      "seconds": out["extension_seconds"]}), flush=True)
    with open(BASELINE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"baselines written to {BASELINE_PATH}")


if __name__ == "__main__":
    main()
