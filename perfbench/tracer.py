"""In-memory span recorder for one abtroika stage invocation.

Spans are recorded at the boundaries between modules by replacing the names
each module imports (``phases.a_dot_electron``, ``fields.retarded_time_solve``,
...) with timing wrappers.  Nothing under ``src/`` is edited: the wrappers
live only in the benchmark's child process.

A span keeps its name, start, end, parent and self time (duration minus the
time of its children).  The hottest leaves -- called tens of thousands of
times per run -- are aggregated into (calls, count, seconds) instead of being
recorded one by one, so the trace stays small.  Their time is still charged
to the enclosing span as child time.

The tracer's own cost is estimated, not measured as a difference of two
runs (the machine's run-to-run drift is larger than it): the number of span
and leaf calls times the cost of one wrapper call, timed on a no-op.
"""

from __future__ import annotations

import functools
import json
import math
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []    # finished spans, in end order
        self.leaves = {}   # name -> [calls, count, seconds]
        self._stack = []   # open spans
        self._leaf_depth = 0
        self._next_id = 0

    # -- wrappers -----------------------------------------------------------
    def span(self, name, fn, count=None):
        """Wrap fn so each call records a span.  count(args, kwargs, out)
        gives the span's work count (points, steps, ...)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": self._next_id, "name": name,
                   "parent": self._stack[-1]["id"] if self._stack else None,
                   "child_s": 0.0}
            self._next_id += 1
            self._stack.append(rec)
            rec["start"] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = end = _clock()
                self._stack.pop()
                dur = end - rec["start"]
                if self._stack:
                    self._stack[-1]["child_s"] += dur
                rec["self_s"] = dur - rec.pop("child_s")
                self.spans.append(rec)
            if count is not None:
                rec["count"] = int(count(args, kwargs, out))
            return out

        return wrapper

    def leaf(self, name, fn, count=None):
        """Wrap a hot leaf: aggregate calls, work count and time."""
        agg = self.leaves.setdefault(name, [0, 0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self._leaf_depth -= 1
            agg[0] += 1
            agg[2] += dt
            if count is not None:
                agg[1] += int(count(args, kwargs, out))
            # a leaf nested in another leaf is already inside that leaf's time
            if self._leaf_depth == 0 and self._stack:
                self._stack[-1]["child_s"] += dt
            return out

        return wrapper

    def adaptive_nd(self, name, fn):
        """Span around adaptive_nd that also counts integrand points, boxes
        evaluated and boxes kept in the final sum.

        The first integrand call evaluates the prod(initial_grid) starting
        boxes, which gives the points per box of the cubature rule; every
        later call evaluates both halves of each split box, so the boxes
        kept at the end are n0 + (evaluated - n0) / 2.
        """
        spanned = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(f, box, *args, **kwargs):
            grid = kwargs.get("initial_grid", args[1] if len(args) > 1 else None)
            n0 = math.prod(grid) if grid is not None else 1
            rows = []

            def counted(x):
                rows.append(len(x))
                return f(x)

            out = spanned(counted, box, *args, **kwargs)
            per_box = rows[0] // n0
            evaluated = sum(rows) // per_box
            rec = self.spans[-1]
            rec["count"] = sum(rows)
            rec["boxes"] = evaluated
            rec["kept"] = n0 + (evaluated - n0) // 2
            return out

        return wrapper

    # -- output -------------------------------------------------------------
    def overhead_s(self):
        """Time the wrappers added: calls recorded times the cost of one call."""
        span_cost, leaf_cost = wrapper_costs()
        leaf_calls = sum(v[0] for v in self.leaves.values())
        return len(self.spans) * span_cost + leaf_calls * leaf_cost

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "leaves": {k: {"calls": v[0], "count": v[1], "s": v[2]}
                                  for k, v in self.leaves.items()},
                       "overhead_s": self.overhead_s()}, fh)


def wrapper_costs(calls=5000, repeats=7):
    """Seconds that one span call and one leaf call add to the function they
    wrap, timed on a no-op with a point-count function like the real ones;
    the fastest of several repeats."""
    probe = Tracer()
    pts = np.zeros((4, 3))
    count = _nrows(0)

    def noop(x):
        return x

    def per_call(fn):
        best = math.inf
        for _ in range(repeats):
            probe.spans.clear()
            t0 = _clock()
            for _ in range(calls):
                fn(pts)
            best = min(best, _clock() - t0)
        return best / calls

    bare = per_call(noop)
    return (per_call(probe.span("probe", noop, count)) - bare,
            per_call(probe.leaf("probe", noop, count)) - bare)


def _nrows(i):
    """Work count = number of points in positional argument i (N, 3)."""
    return lambda args, kwargs, out: np.atleast_2d(args[i]).shape[0]


def install(tracer: Tracer):
    """Replace the imported names of every abtroika layer with wrappers."""
    from abtroika import cli, decoherence, fields, geometry, modes, phases

    def patch(module, attr, name, count=None):
        setattr(module, attr, tracer.span(name, getattr(module, attr), count))

    for stage in ("phases", "decoherence", "modes", "divergence"):
        patch(cli, f"stage_{stage}", f"cli.stage_{stage}")
    patch(cli, "write_report", "report.write_report")

    # phases stage
    for mod in (cli, phases):
        patch(mod, "phi1", "phases.phi1")
        patch(mod, "phi21", "phases.phi21")
    patch(phases, "phi22", "phases.phi22")
    patch(phases, "a_solenoid", "fields.a_solenoid")
    table = fields.SolenoidPotentialTable
    table.__init__ = tracer.span("fields.SolenoidPotentialTable.build",
                                 table.__init__)
    table.__call__ = tracer.span("fields.SolenoidPotentialTable.lookup",
                                 table.__call__, _nrows(1))
    fields.ellipk = tracer.leaf("fields.ellip", fields.ellipk,
                                lambda a, k, out: np.size(out))
    phases.adaptive_nd = tracer.adaptive_nd("quadrature.adaptive_nd",
                                            phases.adaptive_nd)
    for mod in (phases, decoherence):
        patch(mod, "a_dot_electron", "fields.a_dot_electron", _nrows(2))
    for mod in (phases, fields, decoherence):
        patch(mod, "a_electron_retarded", "fields.a_electron_retarded", _nrows(2))
    patch(fields, "retarded_time_solve", "quadrature.retarded_time_solve",
          _nrows(1))
    traj = geometry.TrajectoryHalfCircle
    traj.point_velocity_extended = tracer.leaf(
        "geometry.point_velocity", traj.point_velocity_extended,
        lambda a, k, out: np.size(a[1]))

    # decoherence stage
    patch(cli, "visibility_report", "decoherence.visibility_report")
    for attr in ("a_current_current", "a1_smeared", "a2_smeared"):
        patch(decoherence, attr, f"decoherence.{attr}")
    decoherence.jv = tracer.leaf("decoherence.jv", decoherence.jv,
                                 lambda a, k, out: np.size(out))

    # modes stage
    patch(cli, "evolve_mode", "modes.evolve_mode",
          lambda a, k, out: k.get("steps", a[2] if len(a) > 2 else 0))
    for mod in (cli, modes):
        patch(mod, "analytic_mode", "modes.analytic_mode")
    patch(cli, "b_relation_residual", "modes.b_relation_residual")
    patch(cli, "overlap_gaussian_check", "modes.overlap_gaussian_check")

    def traced_drive_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.leaf("modes.drive", factory(*args, **kwargs),
                               lambda a, k, out: out.shape[0])
        return make

    for mod in (cli, modes):
        mod.electron_drive = traced_drive_factory(mod.electron_drive)
