"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``setup``) and runs one pass
(``run_pass``), returning an :class:`Outcome` with the operations attempted,
the output checks that failed and the outputs the checks looked at.  A
failure is a typed ``CRHomotopyError``, a nonzero CLI exit or a failed
output check.  ``smoke`` selects tiny budgets that run the same code paths
in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# calls go through module attributes so that the traced run sees them
from crhomotopy import fields, geometry, homotopy, indexcalc
from crhomotopy.errors import CRHomotopyError
from crhomotopy.quadrature import QuadratureGrid

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 150
# nominal_pass_s of each workload is the pass time measured on a 2-core
# x86-64 box with one BLAS thread; it only sets how many passes a run makes


@dataclass
class Outcome:
    attempted: int = 0
    failures: list = field(default_factory=list)
    node_evals: int = 0
    outputs: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# ladder_n5: identity residual at acceptance rung 1
# ---------------------------------------------------------------------------

# the five fixed acceptance points (z', Re w) of the refinement ladder
ACCEPTANCE_POINTS = [
    ([0.05, -0.03, 0.02, 0.0], 0.01),
    ([-0.04 + 0.02j, 0.02 - 0.01j, 0.03, -0.05], -0.02),
    ([0.0, 0.06j, -0.04, 0.02 + 0.02j], 0.03),
    ([0.08, 0.01 - 0.03j, 0.0, -0.02j], 0.0),
    ([-0.02 - 0.02j, 0.0, 0.05 + 0.01j, 0.03], -0.01),
]
# bound of the identity checks in tests/test_homotopy_ops.py
RESIDUAL_BOUND = 0.8


class LadderN5:
    name = "ladder_n5"
    why = ("acceptance rung 1 of identity_residual on sig22_n5: 17 points "
           "share each node stream, so 5x5 determinants and the contraction "
           "loop dominate")
    library = True
    nominal_pass_s = 5.9

    def setup(self, seed, smoke):
        model = geometry.load_bundled_model("sig22_n5")
        points = [model.graph_point(np.array(zp, dtype=complex), np.array([u]))
                  for zp, u in ACCEPTANCE_POINTS]
        return {"model": model, "field": fields.bundled_test_form(model),
                "points": points, "seed": seed,
                "budget": 500 if smoke else 10_000}

    def run_pass(self, inp, index, tracer=None):
        # one acceptance point per pass, with the node stream seed that
        # identity_residual gives that point in the full five-point call
        out = Outcome()
        i = index % len(inp["points"])
        model = inp["model"]
        try:
            row, = homotopy.identity_residual(
                model, inp["field"], [inp["points"][i]], epsilon=0.1,
                budget=inp["budget"], seed=inp["seed"] + i, box_radius=0.8)
        except CRHomotopyError as exc:
            out.check(False, f"point {i}: {type(exc).__name__}: {exc}")
            return out
        ratio = row.residual / row.f_norm
        out.check(np.isfinite(row.residual)
                  and row.residual < RESIDUAL_BOUND * row.f_norm,
                  f"point {i}: residual {row.residual:.4g} vs "
                  f"{RESIDUAL_BOUND} x |f| = {RESIDUAL_BOUND * row.f_norm:.4g}")
        out.node_evals = inp["budget"] * (4 * model.tangential_dim + 1)
        out.outputs["residual_max"] = ratio
        return out


# ---------------------------------------------------------------------------
# apply_n6m2: solution and obstruction operator in codimension two
# ---------------------------------------------------------------------------

OBSTRUCTION_BOUND = 1e-10


class ApplyN6M2:
    name = "apply_n6m2"
    why = ("apply_operator on sig22_n6m2, solution then obstruction kind, one "
           "point per stream: node geometry, m>=2 barrier frames, det6 and "
           "det9 carry the load")
    library = True
    nominal_pass_s = 8.7

    def setup(self, seed, smoke):
        model = geometry.load_bundled_model("sig22_n6m2")
        rng = np.random.default_rng(seed)
        d, m = model.tangential_dim, model.m
        zp = 0.03 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        z = model.graph_point(zp, 0.02 * rng.standard_normal(m))
        grid = QuadratureGrid(model=model, epsilon=0.1,
                              budget=500 if smoke else 10_000, seed=seed,
                              center_zp=zp, center_u=model.split(z)[1].real)
        return {"model": model, "field": fields.bundled_test_form(model),
                "z": z, "grid": grid}

    def run_pass(self, inp, index, tracer=None):
        out = Outcome()
        model, grid = inp["model"], inp["grid"]
        for kind in ("solution", "obstruction"):
            try:
                res = homotopy.apply_operator(model, inp["field"], inp["z"],
                                              grid, kind=kind)
            except CRHomotopyError as exc:
                out.check(False, f"{kind}: {type(exc).__name__}: {exc}")
                continue
            size = float(np.max(np.abs(res.ambient)))
            ok = (np.isfinite(size)
                  and res.rejected <= homotopy.REJECT_LIMIT * res.total_nodes)
            if kind == "obstruction":
                ok = ok and size < OBSTRUCTION_BOUND
                out.outputs["obstruction_max"] = size
            out.check(ok, f"{kind}: max |coefficient| {size:.3g}, "
                          f"{res.rejected}/{res.total_nodes} rejected")
            out.node_evals += res.total_nodes
        return out


# ---------------------------------------------------------------------------
# decay_n6m2: realized kernel decay of a vanishing class
# ---------------------------------------------------------------------------

DECAY_LEVELS = [0.1, 0.05, 0.025, 0.0125]
DECAY_CLASS = (9, 1, 1)
# acceptance bound of test_vanishing_class_decay
SLOPE_BOUND = 0.4
# nodes per level: half the acceptance test's 60k, so that a run holds six
# passes; the median of three 60k passes spread too much from run to run
DECAY_BUDGET = 30_000


class DecayN6M2:
    name = "decay_n6m2"
    why = ("realized_kernel_decay of class (9,1,1) on sig22_n6m2: scalar "
           "surface integrals over the node stream, no determinants, so "
           "quadrature changes show and homotopy changes do not")
    library = True
    nominal_pass_s = 4.8

    def setup(self, seed, smoke):
        model = geometry.load_bundled_model("sig22_n6m2")
        pairs, _ = indexcalc.dichotomy_audit(6, 2, 2, 1)
        term = next(kt for _, kt in pairs
                    if indexcalc.is_vanishing_class(kt)
                    and (kt.k, kt.h, kt.l) == DECAY_CLASS)
        return {"model": model, "term": term, "seed": seed,
                "z": np.zeros(model.n, dtype=complex),
                "budget": 2_000 if smoke else DECAY_BUDGET}

    def run_pass(self, inp, index, tracer=None):
        out = Outcome()
        try:
            slope, values = indexcalc.realized_kernel_decay(
                inp["model"], inp["term"], inp["z"], DECAY_LEVELS,
                budget=inp["budget"], seed=inp["seed"])
        except CRHomotopyError as exc:
            out.check(False, f"{type(exc).__name__}: {exc}")
            return out
        ok = (np.isfinite(slope) and slope >= SLOPE_BOUND
              and all(np.isfinite(v) and v > 0 for v in values))
        out.check(ok, f"slope {slope:.4g} (required >= {SLOPE_BOUND}), "
                      f"values {values}")
        out.node_evals = inp["budget"] * len(DECAY_LEVELS)
        out.outputs["slope_min"] = slope
        return out


# ---------------------------------------------------------------------------
# audits_n5: the CLI pipeline, one process per command
# ---------------------------------------------------------------------------

CLI_COMMANDS = ["check-geometry", "audit-barrier", "audit-kernels",
                "run-homotopy", "index-audit", "estimate-norms"]
# tiny budgets for the smoke mode only; the benchmark uses the defaults
CLI_SMOKE_ARGS = {
    "check-geometry": ["--resolution", "8"],
    "audit-barrier": ["--budget", "500"],
    "audit-kernels": ["--budget", "50"],
    "run-homotopy": ["--budget", "500", "--points", "1"],
    "index-audit": ["--n-max", "5", "--m-max", "2"],
    "estimate-norms": ["--budget", "60"],
}


class AuditsN5:
    name = "audits_n5"
    why = ("the six CLI commands on bundled:sig22_n5 as separate processes "
           "with default arguments: single-point paths and process start-up")
    library = False
    nominal_pass_s = 13.0

    def setup(self, seed, smoke):
        from crhomotopy import cli  # noqa: F401  (the program must import)
        out_dir = HERE.parent / ".perfbench" / f"cli-{os.getpid()}"
        commands = [(cmd, ["--model", "bundled:sig22_n5", "--out",
                           str(out_dir), "--seed", str(seed), cmd]
                     + (CLI_SMOKE_ARGS[cmd] if smoke else []))
                    for cmd in CLI_COMMANDS]
        return {"out_dir": out_dir, "commands": commands}

    def run_pass(self, inp, index, tracer=None):
        out = Outcome()
        out_dir = inp["out_dir"]
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            for cmd, argv in inp["commands"]:
                rc, detail = self._run_command(cmd, argv, out_dir, tracer)
                out.check(rc == 0, f"{cmd}: exit {rc} {detail}")
            out.outputs["report_bytes"] = sum(
                p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def _run_command(self, cmd, argv, out_dir, tracer):
        if tracer is None:
            return _run_cli([sys.executable, "-m", "crhomotopy.cli", *argv])
        from tracing import ID
        state_path = out_dir.parent / f"{out_dir.name}-{cmd}.spans.json"
        with tracer.span(f"cli.{cmd}") as rec:
            rc, detail = _run_cli([sys.executable,
                                   str(HERE / "traced_cli.py"),
                                   str(state_path), tracer.run_id, *argv])
        try:
            state = json.loads(state_path.read_text())
        finally:
            state_path.unlink(missing_ok=True)
        tracer.adopt(state["spans"], rec[ID])
        tracer.merge_counts(state)
        return rc, detail


def _run_cli(command):
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {CLI_TIMEOUT_S} s"
    return proc.returncode, proc.stderr.strip()[-300:]


WORKLOADS = {w.name: w for w in (LadderN5(), ApplyN6M2(), DecayN6M2(),
                                 AuditsN5())}
