"""Batch entry point: model parsing, audit suites, machine-readable reports.

All randomness is seeded from the configuration; reports embed the model
hash and the configuration hash, are serialized canonically, and are
byte-identical across reruns with the same inputs.  Each command imports
the modules it runs, so a process loads only what its command needs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from . import geometry
from ._util import canonical_json
from .errors import CRHomotopyError

SCHEMA = "crhomotopy-report-v1"
# one run-homotopy row per ladder rung and point, in homotopy.json and the CSV
RESIDUAL_COLUMNS = ("epsilon", "budget", "point", "residual", "f_norm",
                    "rejected", "total_nodes")
# the run-homotopy bound of the obstruction term on its (0,1) input, which
# vanishes for q >= 2
OBSTRUCTION_BOUND = 1e-10


def _config_hash(args_dict) -> str:
    payload = canonical_json({k: v for k, v in sorted(args_dict.items())
                              if k not in ("out", "func")})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _write_report(out_dir, name, payload) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))
        fh.write("\n")
    return path


def _write_csv(out_dir, name, header, rows) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")
    return path


def _load_model(args):
    if args.model.startswith("bundled:"):
        return geometry.load_bundled_model(args.model.split(":", 1)[1])
    return geometry.load_model_file(args.model)


def _base_payload(args, model):
    return {
        "schema": SCHEMA,
        "command": args.command,
        "model_hash": model.content_hash(),
        "config_hash": _config_hash(vars(args)),
    }


def _test_points(model, count=3):
    d, m = model.tangential_dim, model.m
    pts = []
    for i in range(count):
        zp = 0.04 * (i + 1) * np.cos(np.arange(1, d + 1) * (i + 1.0)) \
            + 0.03j * np.sin(np.arange(1, d + 1) + i)
        u = 0.02 * (i - 1) * np.ones(m)
        pts.append(model.graph_point(zp.astype(complex), u))
    return pts


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check_geometry(args) -> int:
    model = _load_model(args)
    report = geometry.certify_concavity(model, resolution=args.resolution)
    payload = _base_payload(args, model)
    payload["certification"] = report.to_json_dict()
    _write_report(args.out, "geometry.json", payload)
    print(f"[{'PASS' if report.passed else 'FAIL'}] concavity certification: "
          f"min negative eigenvalues {report.min_negative} "
          f"(required {report.required})")
    return 0 if report.passed else 1


def cmd_audit_barrier(args) -> int:
    from . import barrier
    model = _load_model(args)
    z = _test_points(model)[0]
    rep = barrier.audit_barrier_bound(model, z, sample_count=args.budget,
                                      neighborhood_scale=args.scale,
                                      seed=args.seed)
    exp = barrier.audit_barrier_expansion(
        model, z, _expansion_direction(model),
        scales=np.geomspace(1e-3, 1e-1, 6))
    payload = _base_payload(args, model)
    payload["lower_bound"] = rep.to_json_dict()
    payload["expansion"] = {"slope": exp.slope, "exact": exp.exact}
    _write_report(args.out, "barrier.json", payload)
    _write_csv(args.out, "barrier_quotients.csv", ["index", "quotient"],
               list(enumerate(np.round(rep.quotients, 12).tolist())))
    ok = rep.passed and (exp.exact or exp.slope >= 2.8)
    print(f"[{'PASS' if ok else 'FAIL'}] barrier lower bound: "
          f"C_hat {rep.c_hat:.4g}, |Phi| quotient {rep.c_hat_abs:.4g}, "
          f"expansion {'exact' if exp.exact else f'slope {exp.slope:.2f}'}")
    return 0 if ok else 1


def _expansion_direction(model):
    v = np.zeros(model.n, dtype=complex)
    v[0] = 0.6 + 0.2j
    if model.tangential_dim > 2:
        v[2] = 0.3 - 0.4j
    v[model.tangential_dim] = 0.15 + 0.8j
    if model.m > 1:
        v[model.tangential_dim + 1] = 0.4j
    return v


def _kernel_samples(model, budget, seed):
    """The normalization samples of audit-kernels: zetas (budget, n) off the
    manifold, and interpolation parameters (budget,).  Each sample draws
    Re z', Im z', Re w, its level and t, in this order."""
    rng = np.random.default_rng(seed)
    d, m = model.tangential_dim, model.m
    normals = np.empty((budget, 2 * d + m))
    uniforms = np.empty((budget, m + 1))
    for i in range(budget):
        normals[i] = rng.standard_normal(2 * d + m)
        uniforms[i] = rng.random(m + 1)
    zetas = model.graph_point(
        0.2 * (normals[:, :d] + 1j * normals[:, d:2 * d]),
        0.1 * normals[:, 2 * d:], 0.02 + 0.05 * uniforms[:, :m])
    return zetas, uniforms[:, m]


def cmd_audit_kernels(args) -> int:
    from . import sections
    from .quadrature import CHUNK
    model = _load_model(args)
    z = _test_points(model)[0]
    zetas, ts = _kernel_samples(model, args.budget, args.seed)
    # one call per quadrature-sized chunk bounds the memory of the jets
    worst = max(float(np.max(sections.normalization_defects(
        model, zetas[lo:lo + CHUNK], z, ts[lo:lo + CHUNK])))
        for lo in range(0, args.budget, CHUNK))
    zeta = model.graph_point(0.05 * np.ones(model.tangential_dim),
                             np.zeros(model.m),
                             0.03 * np.ones(model.m) / np.sqrt(model.m))

    def family(zz, pz, t):
        return sections.combined_section(
            sections.bochner_martinelli_section(zz, pz),
            sections.barrier_section(model, zz, pz), t)

    clos = sections.closedness_check(family, zeta, z, 0.4, 1, model.n,
                                     step=5e-4)
    payload = _base_payload(args, model)
    payload["normalization_worst"] = worst
    payload["closedness"] = {"residual": clos.residual, "order": clos.order,
                             "scale": clos.scale}
    _write_report(args.out, "kernels.json", payload)
    ok = worst < 1e-10 and (clos.order >= 1.7 or clos.order == np.inf)
    print(f"[{'PASS' if ok else 'FAIL'}] kernel sections: normalization "
          f"defect {worst:.2e}, closedness order {clos.order:.2f}")
    return 0 if ok else 1


def cmd_run_homotopy(args) -> int:
    from .fields import bundled_test_form
    from .homotopy import apply_operator, identity_residual
    from .quadrature import QuadratureGrid
    model = _load_model(args)
    cert = geometry.certify_concavity(model)
    if not cert.passed:
        print("model failed concavity certification", file=sys.stderr)
        return 2
    f = bundled_test_form(model)
    points = _test_points(model, count=args.points)
    ladder = list(zip(args.eps, args.budget))
    rows_out = []
    monotone = []
    for eps, budget in ladder:
        rows = identity_residual(model, f, points, epsilon=eps, budget=budget,
                                 seed=args.seed, box_radius=0.8)
        worst = max(r.residual for r in rows)
        monotone.append(worst)
        for r in rows:
            rows_out.append((eps, budget, r.point_index, r.residual, r.f_norm,
                             r.rejected, r.total_nodes))
    # obstruction vanishing at the first point
    zp, w0 = model.split(points[0])
    grid = QuadratureGrid(model=model, epsilon=ladder[0][0],
                          budget=min(2000, ladder[0][1]), seed=args.seed,
                          center_zp=zp, center_u=w0.real)
    obs = apply_operator(model, f, points[0], grid, kind="obstruction")
    payload = _base_payload(args, model)
    payload["ladder"] = [{"epsilon": e, "budget": b, "worst_residual": m}
                         for (e, b), m in zip(ladder, monotone)]
    payload["rows"] = [dict(zip(RESIDUAL_COLUMNS, row)) for row in rows_out]
    payload["obstruction_max"] = float(np.max(np.abs(obs.ambient)))
    _write_report(args.out, "homotopy.json", payload)
    _write_csv(args.out, "homotopy_residuals.csv", RESIDUAL_COLUMNS, rows_out)
    decreasing = all(a > b for a, b in zip(monotone, monotone[1:]))
    ok = ((decreasing or len(monotone) == 1)
          and payload["obstruction_max"] <= OBSTRUCTION_BOUND)
    print(f"[{'PASS' if ok else 'FAIL'}] homotopy identity ladder: residuals "
          + " -> ".join(f"{m:.3f}" for m in monotone)
          + f"; obstruction magnitude {payload['obstruction_max']:.2e}")
    return 0 if ok else 1


def cmd_index_audit(args) -> int:
    from . import indexcalc
    model = _load_model(args)
    sweep = indexcalc.obstruction_sweep(args.n_max, args.m_max)
    below = [r for r in sweep if r["below_concavity"]]
    bad = [r for r in below if r["survivors"] > 0]
    certificate = []
    violations = 0
    for n, m, q in indexcalc.certifiable_dimensions(min(args.n_max, 6),
                                                    args.m_max):
        for r in range(1, q):
            pairs, viol = indexcalc.dichotomy_audit(n, m, q, r)
            violations += len(viol)
            for term, kt in pairs:
                # raises RewriteSoundnessError on an unsound rewrite
                indexcalc.closure_two_deep(kt)
                certificate.append({
                    "n": n, "m": m, "q": q, "r": r,
                    "family": term.family,
                    "indices": [kt.k, str(kt.h), kt.l],
                    "bounded": indexcalc.is_bounded_class(kt),
                    "vanishing": indexcalc.is_vanishing_class(kt),
                })
    payload = _base_payload(args, model)
    payload["obstruction_sweep"] = {
        "records": len(sweep),
        "below_concavity_nonempty": len(bad),
    }
    payload["dichotomy_violations"] = violations
    payload["certificate"] = certificate
    _write_report(args.out, "index_certificate.json", payload)
    ok = not bad and violations == 0
    print(f"[{'PASS' if ok else 'FAIL'}] index audit: "
          f"{len(sweep)} sweep records, {len(bad)} bad survivors, "
          f"{violations} dichotomy violations, "
          f"{len(certificate)} certified terms")
    return 0 if ok else 1


def cmd_estimate_norms(args) -> int:
    from . import norms
    model = _load_model(args)
    z = np.zeros(model.n, dtype=complex)
    flat = norms.tangential_holder_estimate(
        model, lambda p: p[:, 0].real, 1.0, z, seed=args.seed,
        curve_budget=max(4, args.budget // 50), pair_budget=args.budget)
    rows = [("ambient", i, q) for i, q in flat.ambient.samples]
    rows += [("curve", i, q) for i, q in flat.tangential.samples]
    _write_csv(args.out, "norm_quotients.csv", ["regime", "id", "quotient"],
               rows)
    payload = _base_payload(args, model)
    payload["coordinate_function"] = {
        "tangential_quotient": flat.tangential.quotient_sup,
        "ambient_quotient": flat.ambient.quotient_sup,
    }
    _write_report(args.out, "norms.json", payload)
    ok = flat.tangential.quotient_sup <= 1.05
    print(f"[{'PASS' if ok else 'FAIL'}] norm estimates: coordinate "
          f"tangential quotient {flat.tangential.quotient_sup:.3f} (<= 1.05)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low):
    """argparse type of an integer option with least value ``low``."""
    def parse(text) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


# the --budget and --points counts
_count = _int_at_least(1)


def _positive(text) -> float:
    """argparse type of the --scale length: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crhomotopy",
        description="audits for the tangential Cauchy-Riemann homotopy toolkit")
    p.add_argument("--model", required=True,
                   help="model file path or bundled:<name>")
    p.add_argument("--out", default="reports", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("check-geometry")
    # the least grid that certify_concavity accepts for m >= 2
    g.add_argument("--resolution", type=_int_at_least(8), default=16)
    g.set_defaults(func=cmd_check_geometry)

    b = sub.add_parser("audit-barrier")
    b.add_argument("--budget", type=_count, default=10000)
    b.add_argument("--scale", type=_positive, default=0.1)
    b.set_defaults(func=cmd_audit_barrier)

    k = sub.add_parser("audit-kernels")
    k.add_argument("--budget", type=_count, default=2000)
    k.set_defaults(func=cmd_audit_kernels)

    h = sub.add_parser("run-homotopy")
    h.add_argument("--eps", type=float, nargs="+", default=[0.1])
    h.add_argument("--budget", type=_count, nargs="+", default=[5000])
    h.add_argument("--points", type=_count, default=2)
    h.set_defaults(func=cmd_run_homotopy)

    i = sub.add_parser("index-audit")
    # the least values with a nonempty obstruction sweep (n = 5, m = 1)
    i.add_argument("--n-max", type=_int_at_least(5), default=8)
    i.add_argument("--m-max", type=_int_at_least(1), default=3)
    i.set_defaults(func=cmd_index_audit)

    n = sub.add_parser("estimate-norms")
    n.add_argument("--budget", type=_count, default=300)
    n.set_defaults(func=cmd_estimate_norms)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run-homotopy":
        if len(args.eps) != len(args.budget):
            print("--eps and --budget ladders must have equal length",
                  file=sys.stderr)
            return 2
        if any(a <= b for a, b in zip(args.eps, args.eps[1:])):
            print("--eps ladder must be strictly decreasing", file=sys.stderr)
            return 2
        if any(a >= b for a, b in zip(args.budget, args.budget[1:])):
            print("--budget ladder must be strictly increasing",
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except CRHomotopyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
