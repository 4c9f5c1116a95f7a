"""Weighted difference-quotient seminorms, exponent fits, and mu-sweeps.

The Nikolskii-style quantity attached to a trajectory field w is

    S(h) = aggregate over t of  int_Omega |phi * Delta^h w|^2 dx

with Delta^h the shift difference along the time axis, a tangential
axis, or the normal axis x_d, by the shifts of shift_ladder.  Shifts are
whole multiples of the cell size (or time step), taken between
quadrature points at the same intra-cell offset, so no interpolation
enters.  The cutoff phi sits outside the difference, evaluated at the
unshifted point, on every spatial axis (so tangential differences of
fields depending only on x_d vanish identically); on the time axis it is
baked into the field, which is the same thing since phi does not depend
on t.  A bound S(h) <= C h^{2s} shows up as a log-log slope 2s, so
fitted exponents are slope/2.

A table is built in one blocked, in-place pass that touches only the
cells where phi can be nonzero, the box Cutoff.support.  For each
ladder rung, blocks of time levels (about BLOCK_BYTES each) are
differenced into one reused scratch buffer, multiplied by phi, squared
and reduced over space, all in place, which gives the per-level
integrals of the rung.  The buffer is zero-filled once per rung and a
block writes its support box only; outside it every term of the
whole-array formula ((phi * Delta^h w)**2).sum(...) is (0 * Delta)**2
= +0.0 for a finite field.  Every element in the box sees the same
operations, and every level is still reduced over its whole
C-contiguous row, so the sum adds the same values in the same order and
the tables are bitwise equal to that formula; no sum may be reordered.

A table reads its field through FieldHistory.read, the one way a probe
reads a history, on its read_region, which the boxes of record_plan
hold.  On a space axis a stored field is only viewed there, and a rate
is formed one block of levels at a time into a second block-sized
buffer, with the same elementwise (w[k+1] - w[k]) / dt.  A time-axis
table holds phi * w on the support box, its only array the size of its
read region.  A table is its ladder h and, per rung, the per-level
integrals; SeminormTable.values(mode) aggregates them over t, so a
probe's sup or integral and the ratio check's integral of the same
(axis, field) come from one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evolution
from .constitutive import KINEMATIC, SolverFailure
from .evolution import FieldHistory
from .fem import Cutoff

# the normal tables of the interpolation check, LHS terms first
INTERPOLATION_FIELDS = ("sigma_dot", "xi_dot", "sigma", "xi")

# size of the scratch buffer a table works through (at least one level)
BLOCK_BYTES = 1 << 20


def diff_quotient(field_arr: np.ndarray, axis: str, steps: int,
                  grid, out: np.ndarray | None = None) -> np.ndarray:
    """Shift difference w(. + h) - w(.) over the valid index range.

    field_arr is cell-shaped, (Nt, *cells, nqp, K) over any box of
    cells; axis is "time", "tangential-j" or "normal"; steps is the
    shift in grid/time units.  The returned array has the shrunken
    extent along the differenced axis.  A given out (of the returned
    shape, possibly a strided view) receives the difference.
    """
    if steps < 1:
        raise ValueError("shift must be a positive number of steps")
    if axis == "time":
        if steps >= field_arr.shape[0]:
            raise ValueError("time shift exceeds the trajectory length")
        return np.subtract(field_arr[steps:], field_arr[:-steps], out=out)
    ax = _space_axis(axis, grid.d)
    moved = np.moveaxis(field_arr, 1 + ax, 1)
    if steps >= moved.shape[1]:
        raise ValueError(f"shift {steps} cells exceeds the domain extent")
    if out is not None:
        out = np.moveaxis(out, 1 + ax, 1)
    diff = np.subtract(moved[:, steps:], moved[:, :-steps], out=out)
    return np.moveaxis(diff, 1, 1 + ax)


def _space_axis(axis: str, d: int) -> int:
    if axis == "normal":
        return d - 1
    if axis.startswith("tangential-"):
        j = int(axis.split("-")[1])
        if not 1 <= j <= d - 1:
            raise ValueError(f"tangential axis {j} out of range for d={d}")
        return j - 1
    raise ValueError(f"unknown axis {axis!r}")


# -- seminorm tables ----------------------------------------------------------


@dataclass
class SeminormTable:
    axis: str
    field: str
    h: np.ndarray
    levels: tuple              # per rung, its per-time-level integrals
    dt: float                  # time step of the "integral" aggregation

    def values(self, mode: str) -> np.ndarray:
        """S(h) per rung, aggregated over t as mode: "sup" or "integral"."""
        return np.asarray([_aggregate(per_t, mode, self.dt)
                           for per_t in self.levels])


def shift_ladder(axis: str, h: float, dt: float | None = None,
                 T: float | None = None) -> np.ndarray:
    """The shifts of every table along axis: dt, 2 dt, ... up to T/2 in
    time, and h, 2h, ... up to 1/2 on every space axis (h the cell
    size).  Raises ValueError when none fits: a time axis with N = 1."""
    base, cap = (dt, T / 2.0) if axis == "time" else (h, 0.5)
    out = []
    step = base
    while step <= cap * (1 + 1e-12):
        out.append(step)
        step *= 2.0
    if not out:
        raise ValueError(f"empty shift ladder (base {base:g}, cap {cap:g})")
    return np.asarray(out)


def _aggregate(vals: np.ndarray, mode: str, dt: float) -> float:
    """Aggregate per-time integrals: sup, or a left-rule time integral."""
    if mode == "sup":
        return float(vals.max()) if vals.size else 0.0
    if vals.size < 2:
        return 0.0
    return float(vals[:-1].sum() * dt)


def read_region(grid, cutoff: Cutoff, axis: str) -> tuple:
    """The cells a table along axis reads: the cutoff's support, widened
    on a space axis by the ladder's largest shift (the weighted,
    unshifted cells and the cells they are shifted to)."""
    region = list(grid.cell_box(cutoff.support))
    if axis != "time":
        ax = _space_axis(axis, grid.d)
        shift = int(round(shift_ladder(axis, grid.h)[-1] / grid.h))
        region[ax] = slice(region[ax].start, min(region[ax].stop + shift,
                                                 grid.cell_counts[ax]))
    return tuple(region)


def _checks_interpolation(probe_list, N: int) -> bool:
    return bool(probe_list) and N >= 8


def table_keys(probe_list, N: int) -> list:
    """(axis, field) of every table run_probes builds, in build order.

    The probes' pairs, then the normal tables of the interpolation
    check not among them when there are N >= 8 steps.  The check rides
    along the probes: with none requested, no table is built.
    """
    keys = list(dict.fromkeys((p["axis"], p["field"]) for p in probe_list))
    if _checks_interpolation(probe_list, N):
        keys += [("normal", f) for f in INTERPOLATION_FIELDS
                 if ("normal", f) not in keys]
    return keys


def seminorm_table(history: FieldHistory, axis: str, field_name: str,
                   cutoff: Cutoff) -> SeminormTable:
    """Per-level weighted squared-L2 difference quotients over a dyadic
    ladder; values(mode) aggregates them over t."""
    grid = history.grid
    dt = history.dt
    phi = cutoff.qp_values.reshape(grid.cell_counts + (grid.nqp,))
    support = cutoff.support
    region = read_region(grid, cutoff, axis)
    if axis != "time":
        ax = _space_axis(axis, grid.d)
    ladder = shift_ladder(axis, grid.h, dt,
                          history.times[-1] - history.times[0])
    shifts = [int(round(h / ladder[0])) for h in ladder]
    # a time-axis or stored field is read once; a rate on a space axis is
    # formed per block of levels, and its zero-level read gives the shape
    stored = field_name in evolution.RECORDED
    once = axis == "time" or stored
    arr = history.read(field_name, region,
                       slice(None) if once else slice(0, 0))
    if axis == "time":
        # a stored read is a view of the history: weight it in a copy
        arr = np.multiply(arr, phi[region][..., None],
                          out=None if stored else arr)
    n_comp = arr.shape[-1]
    level_size = grid.ncells * grid.nqp * n_comp
    block = max(1, BLOCK_BYTES // (level_size * np.dtype(float).itemsize))
    n_field = len(history.times) - (0 if stored else 1)
    if once:
        def read(t0, t1):
            return arr[t0:t1]
    else:
        rates = np.empty((min(block, n_field),) + arr.shape[1:])

        def read(t0, t1):
            return history.read(field_name, region, slice(t0, t1),
                                out=rates[:t1 - t0])
    scratch = np.empty(min(block, n_field) * level_size)
    levels = []
    for k in shifts:
        cells, box = list(grid.cell_counts), list(support)
        cut, weight = (), None
        if axis == "time":
            n_levels, extra = n_field - k, k
        else:
            n_levels, extra = n_field, 0
            cells[ax] -= k
            box[ax] = slice(support[ax].start,
                            min(support[ax].stop, cells[ax]))
            width = max(0, box[ax].stop - box[ax].start)
            cut = (slice(None),) * (1 + ax) + (slice(None, width + k),)
            # phi applied at the unshifted point, outside the difference
            weight = phi[tuple(box)][..., None]
        box = (slice(None),) + tuple(box)
        level_shape = tuple(cells) + (grid.nqp, n_comp)
        size = math.prod(level_shape)
        scratch[:min(block, n_levels) * size] = 0.0
        per_t = np.empty(n_levels)
        for t0 in range(0, n_levels, block):
            t1 = min(t0 + block, n_levels)
            buf = scratch[:(t1 - t0) * size].reshape((t1 - t0,) + level_shape)
            view = buf[box]
            if view.size:
                diff_quotient(read(t0, t1 + extra)[cut], axis, k, grid,
                              out=view)
                if weight is not None:
                    view *= weight
                np.square(view, out=view)
            per_t[t0:t1] = buf.sum(axis=tuple(range(1, buf.ndim)))
        per_t *= grid.qp_weight
        levels.append(per_t)
    return SeminormTable(axis=axis, field=field_name, h=ladder,
                         levels=tuple(levels), dt=dt)


# -- exponent fits ------------------------------------------------------------


def _in_window(h: np.ndarray, window: tuple) -> np.ndarray:
    """Mask of the steps h inside window, ends widened by 1e-9 relative."""
    return (h >= window[0] * (1 - 1e-9)) & (h <= window[1] * (1 + 1e-9))


def window_notes(scenario) -> list[str]:
    """A line per fit window ("time", "space") the probes fit over that
    holds fewer than the two ladder rungs a fit needs (a reversed window
    holds none): its rows get no fitted s_hat (n/a)."""
    grid = scenario.grid()
    ladders = {}
    for axis in (p["axis"] for p in scenario.probes):
        ladders["time" if axis == "time" else "space"] = shift_ladder(
            axis, grid.h, scenario.dt, scenario.T)
    notes = []
    for kind, h in ladders.items():
        lo, hi = window = scenario.fit_window(kind)
        rungs = int(_in_window(h, window).sum())
        if rungs < 2:
            notes.append(f"fit window {kind} [{lo:.4g}, {hi:.4g}] holds "
                         f"{rungs} of the {h.size} ladder steps and a fit "
                         f"needs 2, so no {kind} row gets a fitted s_hat")
    return notes


@dataclass
class FitResult:
    s_hat: float | None
    r2: float | None
    n_used: int
    zero_rows: list
    identically_regular: bool
    window: tuple


def fit_exponent(h: np.ndarray, values: np.ndarray,
                 window: tuple) -> FitResult:
    """Least-squares slope of log S(h) vs log h over the window; s = slope/2.

    Zero rows are excluded and flagged; all-zero values are the
    distinguished "identically regular" outcome rather than a fit.
    """
    if np.all(values == 0.0):
        return FitResult(s_hat=None, r2=None, n_used=0, zero_rows=[],
                         identically_regular=True, window=window)
    mask = _in_window(h, window)
    zero_rows = h[mask & (values == 0.0)].tolist()
    mask &= values > 0.0
    hs, vals = h[mask], values[mask]
    if hs.size < 2:
        return FitResult(s_hat=None, r2=None, n_used=int(hs.size),
                         zero_rows=zero_rows, identically_regular=False,
                         window=window)
    x, y = np.log(hs), np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = ((y - y.mean())**2).sum()
    r2 = 1.0 - resid @ resid / ss_tot if ss_tot > 0 else 1.0
    return FitResult(s_hat=float(slope / 2.0), r2=float(r2), n_used=int(hs.size),
                     zero_rows=zero_rows, identically_regular=False,
                     window=window)


# -- exponent targets ---------------------------------------------------------


@dataclass(frozen=True)
class ExponentTargets:
    model: str
    boundary: str
    d: int
    sigma_normal: float
    sigdot_time: float
    sigdot_tangential: float
    sigdot_normal: float
    alpha: float


def alpha_exponent(d: int) -> float:
    """Normal-direction exponent for isotropic hardening near Neumann data."""
    return (2 * d - 7 + np.sqrt(1 + 4 * d**2 + 20 * d)) / (8 * (d - 1))


def target_exponents(d: int, model: str, boundary: str) -> ExponentTargets:
    """Theoretical exponents for (sigma, xi) and their rates by regime.

    Kinematic hardening carries (3/5, 1/2, 1/2, 1/5) regardless of the
    boundary condition; isotropic hardening matches that near Dirichlet
    data, and degrades the normal exponents to (alpha(d), alpha(d)/3)
    near Neumann data.  "mixed" resolves to the Neumann regime, which is
    the one valid on both sides away from the interface.
    """
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    if boundary == "mixed":
        boundary = "neumann"
    if boundary not in ("dirichlet", "neumann"):
        raise ValueError("boundary must be dirichlet, neumann or mixed")
    a = float(alpha_exponent(d))
    if model == KINEMATIC or boundary == "dirichlet":
        return ExponentTargets(model=model, boundary=boundary, d=d,
                               sigma_normal=0.6, sigdot_time=0.5,
                               sigdot_tangential=0.5, sigdot_normal=0.2,
                               alpha=a)
    return ExponentTargets(model=model, boundary=boundary, d=d,
                           sigma_normal=a, sigdot_time=0.5,
                           sigdot_tangential=0.5, sigdot_normal=a / 3.0,
                           alpha=a)


# -- interpolation-lemma ratio check -----------------------------------------


@dataclass
class InterpolationReport:
    delta: float
    h: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    flagged: list
    degenerate: bool
    window: tuple
    spread: float | None

    def as_rows(self):
        return [{"h": float(h), "lhs": float(l), "rhs": float(r),
                 "ratio": (float(q) if np.isfinite(q) else None)}
                for h, l, r, q in zip(self.h, self.lhs, self.rhs, self.ratio)]


def interpolation_check(tables: dict, delta: float,
                        window: tuple) -> InterpolationReport:
    """Ratio of the time-interpolation estimate per normal shift h.

    LHS(h) integrates |phi Delta_d^h sigma_dot|^2 + |phi Delta_d^h xi_dot|^2
    over space-time, RHS(h) is the same quantity for the fields themselves
    raised to the power 1/3 - delta.  Degenerate (all-elastic) histories
    are flagged, not failed.  tables maps ("normal", field) of each of
    INTERPOLATION_FIELDS to its table; each enters as values("integral").
    """
    if not 0.0 < delta < 1.0 / 3.0:
        raise ValueError("delta must lie in (0, 1/3)")
    dot_sig, dot_xi, sig, xi = (tables["normal", f].values("integral")
                                for f in INTERPOLATION_FIELDS)
    h = tables["normal", "sigma"].h
    lhs = dot_sig + dot_xi
    rhs_base = sig + xi
    exponent = 1.0 / 3.0 - delta
    rhs = np.where(rhs_base > 0, rhs_base**exponent, 0.0)
    ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.inf)
    flagged = h[rhs_base == 0.0].tolist()
    degenerate = bool(np.all(rhs_base == 0.0))
    mask = _in_window(h, window) & np.isfinite(ratio) & (ratio > 0)
    spread = None
    if mask.any() and not degenerate:
        sel = ratio[mask]
        spread = float(sel.max() / sel.min())
    return InterpolationReport(delta=delta, h=h, lhs=lhs, rhs=rhs,
                               ratio=ratio, flagged=flagged,
                               degenerate=degenerate, window=window,
                               spread=spread)


# -- probe orchestration and mu sweeps ----------------------------------------


def probe_regime(scenario) -> str:
    mode = scenario.geometry.mode
    if mode == "all-dirichlet":
        return "dirichlet"
    if mode == "all-neumann-bottom":
        return "neumann"
    return scenario.cutoff_config["side"]


def target_for(axis: str, field_name: str, targets: ExponentTargets,
               model: str) -> float | None:
    """Theory exponent a probe row is compared against (None: no claim).

    sigma and xi: sigma_normal on the normal axis, and 1.0 on the others
    (W^{1,2} in the tangent directions, W^{1,2}(0,T; L^2) data
    regularity in time).  A rate: sigdot_<time|tangential|normal>.
    """
    if field_name == "grad_u_dot" and model != KINEMATIC:
        return None
    if field_name in ("sigma", "xi"):
        return targets.sigma_normal if axis == "normal" else 1.0
    return getattr(targets, "sigdot_" + axis.split("-")[0])


@dataclass
class ProbeRow:
    axis: str
    field: str
    mode: str
    h: np.ndarray
    values: np.ndarray         # its table's values(mode)
    fit: FitResult
    target: float | None


@dataclass
class ProbeReport:
    rows: list
    targets: ExponentTargets
    interpolation: InterpolationReport | None

    def summary(self) -> list[dict]:
        out = []
        for row in self.rows:
            out.append({
                "axis": row.axis, "field": row.field, "mode": row.mode,
                "s_hat": row.fit.s_hat, "r2": row.fit.r2,
                "n_used": row.fit.n_used,
                "identically_regular": row.fit.identically_regular,
                "zero_rows": row.fit.zero_rows,
                "window": list(row.fit.window),
                "target": row.target,
                "margin": (None if (row.target is None or row.fit.s_hat is None)
                           else row.fit.s_hat - row.target),
            })
        return out


def record_plan(scenario) -> dict | None:
    """What evolution.run must record for run_probes: a box per field.

    Each recorded field is kept on the bounding box of the read regions
    (on the scenario's grid and cutoff) of the tables (table_keys) that
    read it (evolution.SOURCE), u on the whole grid.  A field no table
    reads, ep among them, gets an empty box.  None (record nothing) when
    no table is built; the cutoff is then not built either.
    """
    keys = table_keys(scenario.probes, scenario.N)
    if not keys:
        return None
    grid, cutoff = scenario.grid(), scenario.cutoff()
    empty = tuple(slice(0, 0) for _ in grid.cell_counts)
    plan = dict.fromkeys(evolution.RECORDED, empty)
    for axis, field_name in keys:
        source = evolution.SOURCE[field_name]
        region = (grid.cell_box() if source == "u"
                  else read_region(grid, cutoff, axis))
        if plan[source] != empty:
            region = tuple(slice(min(a.start, b.start), max(a.stop, b.stop))
                           for a, b in zip(plan[source], region))
        plan[source] = region
    return plan


def run_probes(scenario, history: FieldHistory | None) -> ProbeReport:
    """Evaluate every probe the scenario requests, plus the Lemma ratio.

    One table is built per (axis, field) of table_keys, weighted by the
    scenario's cutoff; a probe and a ratio term read their aggregation
    over t from it (values).  history may be None when there are no
    probes.
    """
    cutoff = scenario.cutoff()
    targets = target_exponents(scenario.d, scenario.model,
                               probe_regime(scenario))
    keys = table_keys(scenario.probes, scenario.N)
    built = {key: seminorm_table(history, *key, cutoff) for key in keys}
    rows = []
    for probe in scenario.probes:
        axis, field_name, mode = probe["axis"], probe["field"], probe["mode"]
        table = built[axis, field_name]
        values = table.values(mode)
        window = scenario.fit_window("time" if axis == "time" else "space")
        rows.append(ProbeRow(axis=axis, field=field_name, mode=mode,
                             h=table.h, values=values,
                             fit=fit_exponent(table.h, values, window),
                             target=target_for(axis, field_name, targets,
                                               scenario.model)))
    interp = None
    if _checks_interpolation(scenario.probes, scenario.N):
        interp = interpolation_check(built, scenario.delta,
                                     scenario.fit_window("space"))
    return ProbeReport(rows=rows, targets=targets, interpolation=interp)


@dataclass
class SweepEntry:
    mu: float
    energy_summary: dict
    newton: dict | None
    probes: ProbeReport | None
    failure: str | None


@dataclass
class UniformityReport:
    entries: list
    spreads: dict
    overshoot_l2_slope: float | None
    overshoot_linf_slope: float | None
    failures: list


_SWEEP_QUANTITIES = ("sup_sigdot", "sup_xidot", "sup_udot_h1",
                     "uniform_bound_lhs", "e_pen_final")


def _sup(arr: np.ndarray) -> float:
    return float(arr.max()) if arr.size else 0.0


def energy_summary(report: evolution.EnergyReport) -> dict:
    """The scalar diagnostics of a run; uniform_bound_lhs is E_pen(T) plus
    the dissipation, the mu-uniform quantity of the estimates."""
    e_pen = float(report.e_pen[-1])
    dissipation = (float(report.dissipation_cum[-1])
                   if report.dissipation_cum.size else 0.0)
    return {
        "sup_sigdot": _sup(report.sigdot_l2),
        "sup_xidot": _sup(report.xidot_l2),
        "sup_udot_h1": _sup(report.udot_h1),
        "e_pen_final": e_pen,
        "overshoot_l2_final": float(report.overshoot_l2[-1]),
        "overshoot_linf_final": float(report.overshoot_linf[-1]),
        "overshoot_linf_max": float(report.overshoot_linf.max()),
        "dissipation_total": dissipation,
        "uniform_bound_lhs": e_pen + dissipation,
    }


def newton_summary(report: evolution.EnergyReport) -> dict:
    """Newton iterations (linear solves) and CG iterations per step, and
    the largest final |r| / scale."""
    res = report.residual_rel
    return {"iterations": [int(k) for k in report.newton_iters],
            "cg_iterations": [int(k) for k in report.cg_iterations],
            "max_relative_residual": float(res.max()) if res.size else None}


def mu_sweep(scenario):
    """Run the scenario once per mu and compare the uniform quantities.

    Spread ratios are max/min over the sweep; the overshoot decay slope
    is the log-log fit of the final-time overshoot against mu.  Every
    run is handed one evolution.elastic_factor, which the sweep drops on
    return.  Failed runs are recorded as partial entries; a failed
    factorization fails every mu.  A run records the fields its probe
    tables read (record_plan), and nothing without probes; an entry
    keeps its run's ProbeReport (exponents and interpolation check).
    """
    mus = sorted((float(m) for m in scenario.mu_list), reverse=True)
    record = record_plan(scenario)
    grid = scenario.grid()
    factor = failure = None
    try:
        factor = evolution.elastic_factor(grid, scenario.material().elastic)
    except SolverFailure as exc:
        failure = exc
    entries, failures = [], []
    for mu in mus:
        params = scenario.material(mu)
        try:
            if failure is not None:
                raise failure
            history, report = evolution.run(
                grid, params, scenario.data, scenario.T, scenario.N,
                record=record, factor=factor)
        except SolverFailure as exc:
            entries.append(SweepEntry(mu=mu, energy_summary={}, newton=None,
                                      probes=None, failure=str(exc)))
            failures.append({"mu": mu, "error": str(exc)})
            continue
        entries.append(SweepEntry(
            mu=mu, energy_summary=energy_summary(report),
            newton=newton_summary(report), failure=None,
            probes=None if record is None else run_probes(scenario, history)))
    ok = [e for e in entries if e.failure is None]
    spreads = {}
    for key in _SWEEP_QUANTITIES:
        vals = np.array([e.energy_summary[key] for e in ok])
        if vals.size == 0:
            continue
        if vals.max() == 0.0:
            spreads[key] = 1.0
        elif vals.min() == 0.0:
            spreads[key] = float("inf")
        else:
            spreads[key] = float(vals.max() / vals.min())
    slopes = {}
    for key in ("overshoot_l2_final", "overshoot_linf_final"):
        pts = [(e.mu, e.energy_summary[key]) for e in ok
               if e.energy_summary.get(key, 0.0) > 0.0]
        if len(pts) >= 2:
            lm = np.log([p[0] for p in pts])
            lo = np.log([p[1] for p in pts])
            slopes[key] = float(np.polyfit(lm, lo, 1)[0])
        else:
            slopes[key] = None
    return UniformityReport(entries=entries, spreads=spreads,
                            overshoot_l2_slope=slopes["overshoot_l2_final"],
                            overshoot_linf_slope=slopes["overshoot_linf_final"],
                            failures=failures)
