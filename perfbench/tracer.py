"""In-memory spans around calls into plastprobe, and their reduction.

A span is the list ``[name, start, end, parent, attrs]``; ``parent`` is
the index of the enclosing span (-1 at the top) and ``attrs`` is None or
a dict of counts recorded at that boundary.  Parents always precede
their children in ``Tracer.spans``.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded,
so children never overlap.

Span names are ``<module>.<call>``; ``trace.hook`` spans hold the
tracer's own bookkeeping (for instance the active-set count after a
tangent build) so that it never lands in a layer's self time.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict

SETUP_SPANS = ("scenario.parse", "scenario.validate", "fem.grid")
RESIDUAL_SPANS = ("fem.sym_gradient", "fem.internal_force", "fem.load_vector")
DATAGEN_SPANS = ("datagen.u0", "datagen.sigma0", "datagen.body_force")
MODULES = ("cli", "scenario", "datagen", "fem", "constitutive", "evolution",
           "probes", "report")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def current(self) -> list | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self._clock()
        self._stack.pop()

    def traced(self, fn, name: str, hook=None):
        """fn wrapped in a span; hook(span, args, kwargs, out) -> out."""
        def call(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hidx = self._open("trace.hook")
                try:
                    out = hook(self.spans[idx], args, kwargs, out)
                finally:
                    self._close(hidx)
            return out
        call.__wrapped__ = fn
        return call

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace owner.attr, a module global or class method, in place."""
        fn = inspect.getattr_static(owner, attr)
        setattr(owner, attr, self.traced(fn, name, hook))


def set_attr(span: list, key: str, value) -> None:
    if span[4] is None:
        span[4] = {}
    span[4][key] = value


# -- reduction ---------------------------------------------------------------


def _reduce(spans):
    """In-run flags, and per-name inclusive time, self time and calls."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    in_run = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_run[i] = in_run[parent]
        if name == "evolution.run":
            in_run[i] = True
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        own[s[0]] += dur[i] - child[i]
        calls[s[0]] += 1
    return in_run, total, own, calls


def _elapsed(start: float, end: float) -> float:
    return end - start


def _top_level_time(spans, names, cost=_elapsed) -> float:
    """cost() of the spans named in names that have no such ancestor."""
    covered = [False] * len(spans)
    out = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        inside = parent >= 0 and covered[parent]
        covered[i] = inside or name in names
        if name in names and not inside:
            out += cost(start, end)
    return out


def _attr_sum(spans, name, key) -> float:
    return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)


def setup_seconds(spans, cost=_elapsed) -> float:
    """Scenario loading as the CLI does it: parse, validate, grid build.

    cost(start, end) gives the seconds a span counts for; by default its
    duration."""
    return _top_level_time(spans, SETUP_SPANS, cost)


def evolution_steps(spans, cost=_elapsed) -> tuple[int, float]:
    """(Rothe steps completed, seconds inside evolution.run)."""
    return (int(_attr_sum(spans, "evolution.run", "steps")),
            _top_level_time(spans, ("evolution.run",), cost))


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced CLI run (see README.md for the table)."""
    in_run, total, own, calls = _reduce(spans)

    def count_in_run(name):
        return sum(1 for s, r in zip(spans, in_run) if r and s[0] == name)

    steps = int(_attr_sum(spans, "evolution.run", "steps"))
    newton = count_in_run("fem.solve")
    tangents = count_in_run("constitutive.consistent_tangent")
    active = [s[4]["active_frac"] for s in spans
              if s[0] == "constitutive.consistent_tangent" and s[4]]
    m = {
        "scenario.parse_s": total["scenario.parse"],
        "scenario.validate_s": total["scenario.validate"],
        "fem.grid_s": total["fem.grid"],
        "datagen.eval_s": sum(total[n] for n in DATAGEN_SPANS),
        "datagen.calls": sum(calls[n] for n in DATAGEN_SPANS),
        "constitutive.local_update_s": total["constitutive.local_update"],
        "constitutive.local_update_calls": calls["constitutive.local_update"],
        "constitutive.consistent_tangent_s":
            total["constitutive.consistent_tangent"],
        "constitutive.consistent_tangent_calls":
            calls["constitutive.consistent_tangent"],
        "constitutive.active_frac": (statistics.fmean(active) if active
                                     else 0.0),
        "fem.assemble_tangent_s": total["fem.assemble_tangent"],
        "fem.assemble_tangent_calls": calls["fem.assemble_tangent"],
        "fem.make_solver_s": total["fem.make_solver"],
        "fem.make_solver_calls": calls["fem.make_solver"],
        "fem.solve_s": total["fem.solve"],
        "fem.solve_calls": calls["fem.solve"],
        "fem.cg_iters": int(_attr_sum(spans, "fem.solve", "cg_iters")),
        "fem.residual_s": sum(own[n] for n in RESIDUAL_SPANS),
        "evolution.run_self_s": own["evolution.run"],
        "evolution.steps": steps,
        "evolution.newton_iters": newton,
        "evolution.line_search_backtracks":
            count_in_run("constitutive.local_update") - steps - newton,
        "evolution.elastic_solve_frac": ((newton - tangents) / newton
                                         if newton else 0.0),
        "evolution.history_mb":
            _attr_sum(spans, "evolution.run", "history_bytes") / 2**20,
        "evolution.grad_u_dot_s": total["evolution.grad_u_dot"],
        "probes.run_probes_s": total["probes.run_probes"],
        "probes.seminorm_table_s": total["probes.seminorm_table"],
        "probes.seminorm_table_calls": calls["probes.seminorm_table"],
        "probes.interpolation_check_s": total["probes.interpolation_check"],
        "probes.fit_exponent_s": total["probes.fit_exponent"],
        "probes.mu_sweep_s": total["probes.mu_sweep"],
        "report.emit_s": (total["report.emit_run_report"]
                          + total["report.emit_sweep_report"]),
        "trace.wall_s": total["cli.main"],
        "trace.hook_s": total["trace.hook"],
        "trace.spans": len(spans),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum(t for n, t in own.items()
                                    if n.split(".")[0] == module)
    return m


def is_count(metric: str) -> bool:
    """Metrics that must repeat exactly across runs of one seed."""
    return metric.endswith(("calls", "_iters", "backtracks", ".steps",
                            ".spans", "bytes_written"))
