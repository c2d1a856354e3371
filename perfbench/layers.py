"""Per-layer metrics of the traced run, and the end-to-end metric each one
should move.

``LAYERS`` is the layer-to-end-to-end map that performance changes cite:
every entry names the metric, its unit, and where a change to that layer
should show (``moves``).  A layer that does little on a workload should leave
that workload unchanged.

Times are seconds per pass.  ``_s`` metrics are inclusive times of the
outermost spans of one name, except ``homotopy.self_s`` and
``indexcalc.decay_s``, which are self times (duration minus the time child
spans cover).  Counts are exact and repeat exactly for a seed.
"""

from __future__ import annotations

from tracing import END, START, layer_times
from workloads import CLI_COMMANDS

# (name, unit, better, what it measures, where it should move)
LAYERS = [
    ("quadrature.chunk_s", "s", "lower", "node chunk generation",
     "wall_s on decay_n6m2, less on apply_n6m2; little on ladder_n5"),
    ("quadrature.nodes", "count", "lower", "nodes generated",
     "wall_s on decay_n6m2 and apply_n6m2"),
    ("quadrature.regen_factor", "ratio", "lower",
     "nodes generated / sum of budgets of distinct node streams",
     "wall_s on ladder_n5 (2 there) and audits_n5"),
    ("quadrature.tangent_s", "s", "lower", "sphere tangent bases (m>=2)",
     "wall_s on apply_n6m2 and decay_n6m2"),
    ("barrier.jets_s", "s", "lower", "batched barrier jets",
     "wall_s on apply_n6m2"),
    ("barrier.jets_rows", "count", "lower", "rows through barrier_jets",
     "wall_s on apply_n6m2 and ladder_n5"),
    ("barrier.frames_s", "s", "lower", "m>=2 eigh + FD barrier frames",
     "wall_s on apply_n6m2 and decay_n6m2"),
    ("util.det_s", "s", "lower", "small batched determinants",
     "wall_s on ladder_n5 and apply_n6m2; zero on decay_n6m2"),
    ("util.det_count.k5", "count", "lower", "5x5 determinants",
     "wall_s on ladder_n5"),
    ("util.det_count.k6", "count", "lower", "6x6 determinants",
     "wall_s on apply_n6m2"),
    ("homotopy.apply_s", "s", "lower", "apply_operator_multi, inclusive",
     "wall_s on ladder_n5 and apply_n6m2"),
    ("homotopy.self_s", "s", "lower",
     "apply_operator_multi self time: section jets and contraction loop",
     "wall_s on ladder_n5"),
    ("homotopy.det9_s", "s", "lower", "per-node det9 blocks",
     "wall_s on apply_n6m2 and ladder_n5"),
    ("homotopy.points_per_stream", "ratio", "higher",
     "evaluation points / distinct node streams", "wall_s on ladder_n5"),
    ("homotopy.reject_ratio", "ratio", "lower",
     "rejected nodes / nodes evaluated", "ladder_n5"),
    ("homotopy.residual_s", "s", "lower", "identity_residual, inclusive",
     "wall_s on ladder_n5"),
    ("fields.values_s", "s", "lower", "FormField.values", "wall_s on ladder_n5"),
    ("sections.section_s", "s", "lower", "single-point section jets",
     "wall_s on audits_n5"),
    ("sections.section_calls", "count", "lower", "single-point section calls",
     "wall_s on audits_n5"),
    ("cf_forms.component_s", "s", "lower", "cf_component", "wall_s on audits_n5"),
    ("geometry.certify_s", "s", "lower", "certify_concavity",
     "wall_s on audits_n5"),
    ("geometry.amplitude_s", "s", "lower", "find_modification_amplitude",
     "wall_s on audits_n5"),
    ("indexcalc.audit_s", "s", "lower",
     "obstruction_sweep, dichotomy_audit, closure_two_deep",
     "wall_s on audits_n5"),
    ("indexcalc.decay_s", "s", "lower", "realized_kernel_decay self time",
     "wall_s on decay_n6m2"),
    ("norms.holder_s", "s", "lower", "tangential_holder_estimate",
     "wall_s on audits_n5"),
    ("norms.gain_s", "s", "lower", "regularity_gain_report",
     "wall_s on audits_n5"),
] + [(f"cli.{cmd}_s", "s", "lower", f"the {cmd} process, start to exit",
      "wall_s on audits_n5") for cmd in CLI_COMMANDS] + [
    ("cli.report_bytes", "bytes", "lower", "bytes of all CLI reports",
     "audits_n5; must not change unless the report format does"),
    ("trace.wall_s", "s", "lower", "traced pass duration", "all workloads"),
    ("trace.self_sum_s", "s", "lower",
     "sum of the self times of all spans of a pass (equals trace.wall_s)",
     "all workloads"),
    ("trace.overhead_s", "s", "lower",
     "traced pass minus the untraced pass on the same inputs",
     "all workloads"),
]

INCLUSIVE = {
    "quadrature.chunk_s": "quadrature.chunk",
    "quadrature.tangent_s": "quadrature.tangent",
    "barrier.jets_s": "barrier.jets",
    "barrier.frames_s": "barrier.frames",
    "util.det_s": "util.det",
    "homotopy.apply_s": "homotopy.apply",
    "homotopy.det9_s": "homotopy.det9",
    "homotopy.residual_s": "homotopy.residual",
    "fields.values_s": "fields.values",
    "sections.section_s": "sections.section",
    "cf_forms.component_s": "cf_forms.component",
    "geometry.certify_s": "geometry.certify",
    "geometry.amplitude_s": "geometry.amplitude",
    "indexcalc.audit_s": "indexcalc.audit",
    "norms.holder_s": "norms.holder",
    "norms.gain_s": "norms.gain",
    **{f"cli.{cmd}_s": f"cli.{cmd}" for cmd in CLI_COMMANDS},
}
SELF = {"homotopy.self_s": "homotopy.apply",
        "indexcalc.decay_s": "indexcalc.decay"}
COUNTS = ["quadrature.nodes", "barrier.jets_rows", "util.det_count.k5",
          "util.det_count.k6", "sections.section_calls"]


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(tracer, root, untraced_wall_s, report_bytes):
    """Per-layer metrics of one traced pass whose root span is ``root``."""
    inclusive, own = layer_times(tracer.spans)
    counts = tracer.counts
    out = {name: inclusive.get(span, 0.0) for name, span in INCLUSIVE.items()}
    out.update({name: own.get(span, 0.0) for name, span in SELF.items()})
    out.update({name: counts.get(name, 0) for name in COUNTS})
    out["quadrature.regen_factor"] = _ratio(
        counts.get("quadrature.nodes", 0), sum(tracer.stream_budgets.values()))
    out["homotopy.points_per_stream"] = _ratio(
        counts.get("homotopy.points", 0), len(tracer.apply_streams))
    out["homotopy.reject_ratio"] = _ratio(
        counts.get("homotopy.rejected", 0), counts.get("homotopy.node_points", 0))
    out["cli.report_bytes"] = report_bytes or 0
    wall = root[END] - root[START]
    out["trace.wall_s"] = wall
    out["trace.self_sum_s"] = sum(own.values())
    out["trace.overhead_s"] = wall - untraced_wall_s
    return out
