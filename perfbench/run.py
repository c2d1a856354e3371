"""crhomotopy benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder_n5 --seed 101 --seconds 30 --trace 0

The program is imported from ``src/`` of that checkout and nowhere else; the
run fails with a nonzero exit if it is missing.  BLAS and OpenMP are pinned
to one thread (the workloads are numpy gufunc loops that do not use more),
and the CLI processes inherit that setting.

A run does, in order:

1. For the library workloads, a warm-up pass at smoke budgets, outside every
   timing.  Nothing persists between passes (node streams are regenerated on
   every pass), so the warm-up only has to finish imports and first calls.
   CLI commands are never warmed: users pay start-up on every call.
2. A fixed number of passes, round(seconds / nominal pass time) and at least
   MIN_PASSES, so every output of a run is deterministic for its seed; a
   faster program finishes sooner.  With ``--trace 0`` each pass is timed
   untraced.  With ``--trace 1`` half as many passes each run untraced and
   then traced on the same inputs; the traced run wraps the package's module
   attributes from outside (see tracing.py) and reports the per-layer
   metrics of layers.py, averaged over passes.
3. ``setup_s``: the median of SETUP_REPEATS fresh processes, each timed from
   its start until the workload inputs are ready, run in the gaps before,
   between and after the passes.

Every line but the last is for people: every end-to-end metric by name and
unit, with the wall-time quartiles and sample count, the output checks and
the result file (``.perfbench/<workload>-seed<seed>-trace<t>.json``, with a
header naming the numpy, BLAS and Python versions, nproc and git commit).
The last line is the JSON result.  The exit code is nonzero when an output
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 1
WORKLOAD_NAMES = ["ladder_n5", "apply_n6m2", "decay_n6m2", "audits_n5"]
# name -> unit, in BENCHMARK.json order
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _prepare_environment():
    """Pin thread pools and point imports (ours and the CLI's) at src/."""
    if not (SRC / "crhomotopy" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/crhomotopy under {ROOT}; "
                 "run from the root of a crhomotopy checkout")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))
    import crhomotopy
    if Path(crhomotopy.__file__).resolve().parent != SRC / "crhomotopy":
        sys.exit(f"perfbench: crhomotopy imported from {crhomotopy.__file__}, "
                 f"not from {SRC}")


def _header():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": commit}


def _probe_setup(workload, seed, smoke):
    """Seconds from the start of a fresh process until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed with exit {proc.returncode}")
    return elapsed


def _peak_rss_mb(library):
    who = resource.RUSAGE_SELF if library else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _cpu_seconds():
    """CPU seconds of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _aggregate_outputs(outcomes):
    """Keys ending in _max / _min take the extreme over passes; the rest
    must agree across passes."""
    merged = {}
    for outcome in outcomes:
        for key, value in outcome.outputs.items():
            if key not in merged:
                merged[key] = value
            elif key.endswith("_max"):
                merged[key] = max(merged[key], value)
            elif key.endswith("_min"):
                merged[key] = min(merged[key], value)
            elif merged[key] != value:
                outcome.check(False, f"{key} differs across passes: "
                                     f"{merged[key]} vs {value}")
    return merged


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run(args):
    from layers import LAYERS, pass_metrics
    from tracing import Tracer, install
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup(args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    header = _header()
    inputs = wl.setup(args.seed, args.smoke)
    if wl.library:
        wl.run_pass(wl.setup(args.seed, True), 0)

    passes = max(MIN_PASSES, round(args.seconds / wl.nominal_pass_s))
    if args.trace:
        passes = max(MIN_PASSES, passes // 2)  # each pass runs twice
    # the set-up probes are spread over the gaps before, between and after
    # the passes, so that their median covers the whole run
    gaps = passes + 1
    probes = [SETUP_REPEATS // gaps + (i < SETUP_REPEATS % gaps)
              for i in range(gaps)]
    run_id = uuid.uuid4().hex[:12]
    walls, cpus, outcomes, layer_rows, spans = [], [], [], [], []
    setup_times = []

    def probe_setup(count):
        setup_times.extend(_probe_setup(wl.name, args.seed, args.smoke)
                           for _ in range(count))

    for index in range(passes):
        probe_setup(probes[index])
        start, cpu_start = time.perf_counter(), _cpu_seconds()
        outcomes.append(wl.run_pass(inputs, index))
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_seconds() - cpu_start)
        if not args.trace:
            continue
        tracer = Tracer(run_id)
        uninstall = install(tracer)
        try:
            with tracer.span("bench.pass") as root:
                traced = wl.run_pass(inputs, index, tracer)
        finally:
            uninstall()
        outcomes.append(traced)
        layer_rows.append(pass_metrics(tracer, root, walls[-1],
                                       traced.outputs.get("report_bytes")))
        spans.append({"pass": index, "spans": tracer.spans})
    probe_setup(probes[passes])

    outputs = _aggregate_outputs(outcomes)
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    wall_s = statistics.median(walls)
    q1, q3 = _quartiles(walls)
    node_evals = outcomes[0].node_evals
    e2e = {"wall_s": wall_s, "setup_s": statistics.median(setup_times),
           "peak_rss_mb": _peak_rss_mb(wl.library)}

    print(f"# {wl.name} seed {args.seed}: {wl.why}")
    print(f"# {json.dumps(header, sort_keys=True)}")
    print(f"wall_s {wall_s:.6f} s (q1 {q1:.6f}, q3 {q3:.6f}, "
          f"n={len(walls)} passes)")
    print(f"cpu_s {statistics.median(cpus):.6f} s (CPU time of the same "
          "passes, children included)")
    print(f"setup_s {e2e['setup_s']:.6f} s (median of {SETUP_REPEATS})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    if node_evals:
        print(f"node_evals_per_s {node_evals / wall_s:.1f} 1/s "
              f"({node_evals} node x point evaluations per pass)")
    for key, value in sorted(outputs.items()):
        print(f"{key} {value}")
    print(f"fail_ratio {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted})")
    for failure in failures:
        print(f"FAILED {failure}")

    if args.trace:
        metrics = {}
        for name, unit, *_ in LAYERS:
            value = statistics.fmean(row[name] for row in layer_rows)
            if unit in ("count", "bytes") and value.is_integer():
                value = int(value)  # exact counters print exactly
            metrics[name] = {"value": value, "unit": unit}
        for name, unit, _, what, moves in LAYERS:
            print(f"{name} {metrics[name]['value']} {unit}  "
                  f"[{what}; moves {moves}]")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "header": header, "workload": wl.name, "seed": args.seed,
        "run_id": run_id, "walls_s": walls, "cpus_s": cpus,
        "setup_s": setup_times,
        "outputs": outputs, "failures": failures, "metrics": metrics,
        "spans": spans}, indent=1, sort_keys=True))
    print(f"# result file {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets: every code path in seconds")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_environment()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
