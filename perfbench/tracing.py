"""Spans around vmlab's public functions, recorded from outside the package.

A wrapped function records a span (name, start, end, parent, job) and a few
counts of the work it was handed. ``CORE`` is wrapped in every job: the job
stages the end-to-end metrics are read from (``pic.run`` and the set-up
calls). ``LAYERS`` is wrapped in traced jobs only. Names are patched where
their callers look them up: ``cli.save_ensemble`` and
``inequalities.interpolation_check`` / ``good_component_sq`` were imported
by name, and the PIC field sampler resolves ``pic.gather_*`` through the
module globals at each call. Spans stay in memory until the run ends.

A name that a later version of vmlab no longer has is skipped with a note
on stderr, and the metrics it fed read 0.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
from collections import defaultdict


def _rows(x) -> int:
    return math.prod(x.shape[:-1])


def _count_gather(args, kwargs, out):
    # gather_*(grid, arr, x): arr is (..., nx, ny); a component whose grid
    # is identically zero (E3, B1, B2 in 2D) is gathered but dead.
    arr, x = args[1], args[2]
    comps = arr.reshape((-1,) + arr.shape[-2:])
    live = sum(1 for c in comps if c.any())
    n = _rows(x)
    return {"rows": n, "comps": n * len(comps), "live": n * live}


def _count_suite(args, kwargs, out):
    reports = out[0]
    return {"samples": sum(int(r.n_samples) for r in reports)}


def _count_save_npz(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, count function). Set-up is the scenario
# load, the ensemble and the initial fields, or for verify the (p, xi) draw.
CORE = [
    ("pic", "run", "pic.run", None),
    ("pic", "load_scenario", "pic.setup", None),
    ("pic", "sample_ensemble", "pic.setup", None),
    ("pic", "initial_fields", "pic.setup", None),
    ("inequalities", "sample_momenta_xi", "inequalities.setup", None),
]

# "cli.main" is the root of every traced job.
LAYERS = [
    ("cli", "main", "cli", None),
    ("cli", "save_ensemble", "phase.save_ensemble",
     lambda a, k, o: {"rows": len(a[0])}),
    ("cli", "_suite_identities", "inequalities.identities", _count_suite),
    ("cli", "_suite_geometry", "inequalities.geometry", _count_suite),
    ("cli", "_suite_singular", "inequalities.singular", _count_suite),
    ("cli", "_suite_interpolation", "inequalities.interpolation", _count_suite),
    ("cli", "_suite_gronwall", "inequalities.gronwall", _count_suite),
    ("cli", "_suite_strichartz", "inequalities.strichartz", _count_suite),
    ("pic", "deposit", "pic.deposit", lambda a, k, o: {"particles": len(a[0])}),
    ("pic", "gather_cic", "pic.gather", _count_gather),
    ("pic", "gather_tsc", "pic.gather", _count_gather),
    ("pic", "gather_tsc_grad", "pic.gather", _count_gather),
    ("pic", "RunHistory.save_npz", "pic.history.save", _count_save_npz),
    ("pic", "RunHistory.load_npz", "pic.history.load", None),
    ("characteristics", "push_many", "characteristics.push_many",
     lambda a, k, o: {"particles": _rows(a[0])}),
    ("maxwell", "step_maxwell", "maxwell.step_maxwell", None),
    ("maxwell", "poisson_efield", "maxwell.poisson_efield", None),
    ("maxwell", "constraint_residual", "maxwell.diagnostics", None),
    ("maxwell", "energy", "maxwell.diagnostics", None),
    ("maxwell", "field_energy", "maxwell.diagnostics", None),
    ("maxwell", "good_component_sq", "maxwell.good_component_sq", None),
    ("inequalities", "good_component_sq", "maxwell.good_component_sq", None),
    ("maxwell", "save_field", "maxwell.save_field", None),
    ("inequalities", "interpolation_check", "phase.interpolation_check", None),
    ("retarded", "field_from_representation",
     "retarded.field_from_representation", None),
    ("retarded", "slab_weights", "retarded.slab_weights",
     lambda a, k, o: {"rows": a[0].size}),
    ("retarded", "kernel_arrays_2d", "retarded.kernel_arrays",
     lambda a, k, o: {"rows": _rows(a[1])}),
    ("retarded", "kernel_arrays_25d", "retarded.kernel_arrays",
     lambda a, k, o: {"rows": _rows(a[1])}),
]

SETUP = ("pic.setup", "inequalities.setup")

SUITES = ("identities", "geometry", "singular", "interpolation", "gronwall",
          "strichartz")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.counts = None

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job,
                "counts": self.counts}


class Tracer:
    """In-memory span store; ``patched`` installs the wrappers.

    The last value returned by each name in ``keep`` is held in
    ``returned`` until the caller takes it.
    """

    def __init__(self, vm, keep=()):
        self.vm = vm
        self.spans = []
        self.job = 0
        self.keep = set(keep)
        self.returned = {}
        self._stack = []

    def wrap(self, name, fn, count):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, out)
            if name in self.keep:
                self.returned[name] = out
            return out
        return traced

    @contextlib.contextmanager
    def patched(self, entries):
        undo = []
        try:
            for mod, attr, name, count in entries:
                owner = self.vm
                *outer, leaf = f"{mod}.{attr}".split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                raw = vars(owner).get(leaf) if owner is not None else None
                if raw is None:
                    print(f"perfbench: vmlab.{mod}.{attr} not found; "
                          f"{name} not traced there", file=sys.stderr)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, count))
                else:
                    new = self.wrap(name, raw, count)
                setattr(owner, leaf, new)
                undo.append((owner, leaf, raw))
            yield self
        finally:
            for owner, leaf, raw in reversed(undo):
                setattr(owner, leaf, raw)


def span_totals(spans: list, job: int) -> tuple:
    """Sums over the spans of one job, by name: ``total`` (spans not nested
    in a span of the same name), ``self_s`` (a span minus its direct
    children), ``calls``, the summed ``counts``, and the ``pic.gather`` rows
    taken inside ``retarded.field_from_representation``."""
    by_index = {i: s for i, s in enumerate(spans) if s.job == job}
    child_time = defaultdict(float)
    for s in by_index.values():
        if s.parent in by_index:
            child_time[s.parent] += s.end - s.start

    def ancestors(s):
        while s.parent in by_index:
            s = by_index[s.parent]
            yield s

    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    ffr_gather_rows = 0
    for i, s in by_index.items():
        up = list(ancestors(s))
        dur = s.end - s.start
        self_s[s.name] += dur - child_time[i]
        if all(a.name != s.name for a in up):
            total[s.name] += dur
            calls[s.name] += 1
        for key, val in (s.counts or {}).items():
            counts[s.name][key] += val
        if s.name == "pic.gather" and any(
                a.name == "retarded.field_from_representation" for a in up):
            ffr_gather_rows += s.counts["rows"]
    return total, self_s, calls, counts, ffr_gather_rows


def layer_metrics(spans: list, job: int) -> dict:
    """Per-layer metrics of one traced job."""
    total, self_s, calls, counts, ffr_gather_rows = span_totals(spans, job)

    def ratio(a, b):
        return a / b if b else 0.0

    gather = counts["pic.gather"]
    kernel_rows = counts["retarded.kernel_arrays"]["rows"]
    slab_rows = counts["retarded.slab_weights"]["rows"]
    ffr_calls = calls["retarded.field_from_representation"]
    m = {
        "pic.deposit.s": total["pic.deposit"],
        "pic.deposit.calls": calls["pic.deposit"],
        "pic.deposit.particles": counts["pic.deposit"]["particles"],
        "pic.gather.s": total["pic.gather"],
        "pic.gather.rows": gather["rows"],
        "pic.gather.live_frac": ratio(gather["live"], gather["comps"]),
        "pic.run.self_s": self_s["pic.run"],
        "pic.setup.s": total["pic.setup"],
        "pic.history.save_s": total["pic.history.save"],
        "pic.history.load_s": total["pic.history.load"],
        "pic.history.bytes": counts["pic.history.save"]["bytes"],
        "characteristics.push_many.self_s": self_s["characteristics.push_many"],
        "characteristics.push_many.particles":
            counts["characteristics.push_many"]["particles"],
        "maxwell.step_maxwell.s": total["maxwell.step_maxwell"],
        "maxwell.step_maxwell.calls": calls["maxwell.step_maxwell"],
        "maxwell.poisson_efield.s": total["maxwell.poisson_efield"],
        "maxwell.diagnostics.s": total["maxwell.diagnostics"],
        "maxwell.good_component_sq.s": total["maxwell.good_component_sq"],
        "maxwell.save_field.s": total["maxwell.save_field"],
        "phase.save_ensemble.s": total["phase.save_ensemble"],
        "phase.save_ensemble.rows": counts["phase.save_ensemble"]["rows"],
        "phase.interpolation_check.s": total["phase.interpolation_check"],
        "retarded.field_from_representation.self_s":
            self_s["retarded.field_from_representation"],
        "retarded.field_from_representation.calls": ffr_calls,
        "retarded.slab_weights.s": total["retarded.slab_weights"],
        "retarded.slab_weights.rows": slab_rows,
        "retarded.kernel_arrays.s": total["retarded.kernel_arrays"],
        "retarded.kernel_arrays.rows": kernel_rows,
        "retarded.cone_hit_ratio": ratio(kernel_rows, slab_rows),
        "retarded.gather_rows_per_probe": ratio(ffr_gather_rows, ffr_calls),
    }
    for suite in SUITES:
        m[f"inequalities.{suite}.s"] = total[f"inequalities.{suite}"]
    m["inequalities.samples"] = sum(
        counts[f"inequalities.{suite}"]["samples"] for suite in SUITES)
    m["cli.self_s"] = self_s["cli"]
    return m
