"""Span tracing for the benchmark, installed from outside the package.

Spans are recorded by wrapping module attributes of ``crhomotopy``: the calls
the benchmark makes into a module, and the calls one module makes into
another, go through the wrapper because every module attribute that refers
to the wrapped function is replaced.  No source file of the package changes.

A span is ``[id, name, start, end, parent, run]``; times come from
``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and therefore
comparable across the benchmark and the CLI processes it starts.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from math import prod

ID, NAME, START, END, PARENT, RUN = range(6)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self.stream_budgets = {}     # grid header -> budget, every node stream
        self.apply_streams = set()   # grid headers used by homotopy.apply
        self._stack = []

    def open(self, name: str):
        stack = self._stack
        rec = [len(self.spans), name, time.perf_counter(), None,
               stack[-1] if stack else None, self.run_id]
        self.spans.append(rec)
        stack.append(rec[ID])
        return rec

    def close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def parent_name(self):
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def adopt(self, spans, parent_id):
        """Append spans recorded by a child process under ``parent_id``."""
        offset = len(self.spans)
        for sid, name, start, end, parent, run in spans:
            self.spans.append([sid + offset, name, start, end,
                               parent_id if parent is None else parent + offset,
                               run])

    def merge_counts(self, state):
        for key, value in state["counts"].items():
            self.counts[key] += value
        self.stream_budgets.update(state["stream_budgets"])
        self.apply_streams.update(state["apply_streams"])

    def state(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "stream_budgets": self.stream_budgets,
                "apply_streams": sorted(self.apply_streams)}


# ---------------------------------------------------------------------------
# wrapping module attributes
# ---------------------------------------------------------------------------

def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "crhomotopy" or name.startswith("crhomotopy.")]


def _replace_everywhere(original, wrapper, undo):
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))


def _wrap(tracer, owner, attr, span_name, undo, before=None, after=None):
    """Replace ``owner.attr`` (and every module alias of it) by a traced
    wrapper.  ``before(args, kwargs)`` runs before the span opens and
    ``after(args, kwargs, result)`` after it closes; both feed the counters.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        rec = tracer.open(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(rec)
        if after is not None:
            after(args, kwargs, result)
        return result

    if inspect.isclass(owner):
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))
    else:
        _replace_everywhere(original, wrapper, undo)


def _argument(fn, name):
    """Reader of argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    position = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: (args[position] if len(args) > position
                                 else kwargs[name])


def _grid_key(grid):
    return json.dumps(grid.header(), sort_keys=True)


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns a callable that restores them."""
    # every module is loaded first so that its aliases are wrapped too
    from crhomotopy import (_util, barrier, cf_forms, cli, fields,  # noqa: F401
                            geometry, homotopy, indexcalc, norms, quadrature,
                            sections)

    undo = []
    counts = tracer.counts

    # -- quadrature: node streams, timed per generated chunk
    grid_cls = quadrature.QuadratureGrid
    chunks = grid_cls.chunks

    @functools.wraps(chunks)
    def traced_chunks(self):
        tracer.stream_budgets[_grid_key(self)] = int(self.budget)
        stream = chunks(self)
        while True:
            with tracer.span("quadrature.chunk"):
                chunk = next(stream, None)
            if chunk is None:
                return
            counts["quadrature.nodes"] += chunk.zeta.shape[0]
            yield chunk

    grid_cls.chunks = traced_chunks
    undo.append((grid_cls, "chunks", chunks))
    _wrap(tracer, quadrature, "_sphere_tangent_basis", "quadrature.tangent",
          undo)

    # -- small batched determinants, counted by size at the outermost call
    def det_counter(fn, arg, k_of, batch_of):
        read = _argument(fn, arg)

        def count(args, kwargs):
            if tracer.parent_name() != "util.det":
                value = read(args, kwargs)
                counts[f"util.det_count.k{k_of(value)}"] += prod(
                    batch_of(value))
        return count

    _wrap(tracer, _util, "small_det", "util.det", undo,
          before=det_counter(_util.small_det, "m", lambda m: m.shape[-1],
                             lambda m: m.shape[:-2]))
    _wrap(tracer, _util, "det5_cols", "util.det", undo,
          before=det_counter(_util.det5_cols, "cols", lambda cols: 5,
                             lambda cols: cols[0].shape[:-1]))

    # -- barrier sections
    zetas_of = _argument(barrier.barrier_jets, "zetas")

    def count_rows(args, kwargs):
        counts["barrier.jets_rows"] += len(zetas_of(args, kwargs))

    _wrap(tracer, barrier, "barrier_jets", "barrier.jets", undo,
          before=count_rows)
    _wrap(tracer, barrier, "_frames_for_thetas", "barrier.frames", undo)

    # -- homotopy operators
    points_of = _argument(homotopy.apply_operator_multi, "z_list")
    grid_of = _argument(homotopy.apply_operator_multi, "grid")

    def apply_before(args, kwargs):
        counts["homotopy.points"] += len(points_of(args, kwargs))
        tracer.apply_streams.add(_grid_key(grid_of(args, kwargs)))

    def apply_after(args, kwargs, results):
        for res in results:
            counts["homotopy.rejected"] += res.rejected
            counts["homotopy.node_points"] += res.total_nodes

    _wrap(tracer, homotopy, "apply_operator_multi", "homotopy.apply", undo,
          before=apply_before, after=apply_after)
    _wrap(tracer, homotopy, "_det9_blocks", "homotopy.det9", undo)
    _wrap(tracer, homotopy, "identity_residual", "homotopy.residual", undo)
    _wrap(tracer, fields.FormField, "values", "fields.values", undo)

    # -- single-point paths used by the CLI audits
    def count_section(args, kwargs):
        counts["sections.section_calls"] += 1

    for fn in ("bochner_martinelli_section", "barrier_section",
               "combined_section"):
        _wrap(tracer, sections, fn, "sections.section", undo,
              before=count_section)
    _wrap(tracer, cf_forms, "cf_component", "cf_forms.component", undo)
    _wrap(tracer, geometry, "certify_concavity", "geometry.certify", undo)
    _wrap(tracer, geometry, "find_modification_amplitude",
          "geometry.amplitude", undo)
    for fn in ("obstruction_sweep", "dichotomy_audit", "closure_two_deep"):
        _wrap(tracer, indexcalc, fn, "indexcalc.audit", undo)
    _wrap(tracer, indexcalc, "realized_kernel_decay", "indexcalc.decay", undo)
    _wrap(tracer, norms, "tangential_holder_estimate", "norms.holder", undo)
    _wrap(tracer, norms, "regularity_gain_report", "norms.gain", undo)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time per span id: its duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START])
            - _covered(children[s[ID]], s[START], s[END]) for s in spans}


def layer_times(spans):
    """(inclusive, self) seconds per span name.  Inclusive time counts only
    the outermost span of a name, so recursion is not counted twice."""
    by_id = {s[ID]: s for s in spans}
    selfs = self_times(spans)
    inclusive = defaultdict(float)
    own = defaultdict(float)
    for s in spans:
        own[s[NAME]] += selfs[s[ID]]
        parent = s[PARENT]
        nested = False
        while parent is not None:
            if by_id[parent][NAME] == s[NAME]:
                nested = True
                break
            parent = by_id[parent][PARENT]
        if not nested:
            inclusive[s[NAME]] += s[END] - s[START]
    return inclusive, own
