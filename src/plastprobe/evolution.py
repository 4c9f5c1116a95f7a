"""Rothe time stepping of the penalized system on the Q1 grid.

Each step solves the nonlinear discrete equilibrium for the nodal
displacement with the stress given by the pointwise backward-Euler
update of the strain increment, by constitutive.damped_newton with the
consistent tangent.  Newton starts from a predictor chosen by the
regime of the converged state: from an elastic state, one exact solve
with the elastic factors for the elastic trial stress (an elastic step
needs no more); from a plastic state, the extrapolation 2 u_n - u_{n-1}
(de Souza Neto, Peric & Owen 2008).  A predictor is kept only if it
lowers the residual, whose scale is always taken at the unpredicted
start.  The Newton record counts linear solves, the elastic
predictor's included.  A step starts from the strain its predecessor
converged to, so each level's symmetric gradient is formed once.  A
failed solve inside run() raises a SolverFailure marked with its step.

Energy diagnostics mirroring the a-priori estimates (penalty energy,
dissipation sums, suprema of the backward-difference rates) are
accumulated during the run so that mu-sweeps do not have to keep full
field histories; the velocity's H^1 norm is the quadratic form of the
element Gram matrix (Grid.h1_norm_sq), so no gradient field is formed.
A kept FieldHistory is read by the probes through FieldHistory.read
alone: each probe field of SOURCE on a box of cells, its components
flattened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import constitutive, tensors
from .constitutive import (ConstitutiveState, MaterialParams, SolverFailure,
                           consistent_tangent, damped_newton, local_update,
                           yield_excess)
from .fem import CG_RTOL, Grid

NEWTON_MAX_ITER = 50
NEWTON_RTOL = 1e-10
# cap of the inexact-Newton forcing term: a plastic tangent is solved to
# eta = max(CG_RTOL, min(FORCING_MAX, |r| / scale)) relative accuracy
# (Dembo, Eisenstat & Steihaug 1982; Eisenstat & Walker 1996)
FORCING_MAX = 1e-2


@dataclass
class EnergyReport:
    """Discrete energy diagnostics and the Newton record of a trajectory.

    Arrays only, indexed by time level (length N+1) or by step (length
    N); probes.energy_summary derives the scalars of a run from them.
    newton_iters and residual_rel (the final |r| / scale) are recorded
    by run() only; a report recomputed from a history leaves them empty.
    """

    times: np.ndarray
    e_pen: np.ndarray
    overshoot_linf: np.ndarray
    overshoot_l2: np.ndarray
    sigdot_l2: np.ndarray
    xidot_l2: np.ndarray
    udot_h1: np.ndarray
    dissipation_cum: np.ndarray
    newton_iters: np.ndarray
    residual_rel: np.ndarray


# the fields run() can record at every time level
RECORDED = ("u", "sigma", "xi", "ep")
# the recorded field each probe field is read from (FieldHistory.read)
SOURCE = {"sigma": "sigma", "xi": "xi", "sigma_dot": "sigma",
          "xi_dot": "xi", "grad_u_dot": "u"}


def _cell_count(box) -> int:
    return math.prod(s.stop - s.start for s in box)


def _box_str(box) -> str:
    return "[" + ", ".join(f"{s.start}:{s.stop}" for s in box) + "]"


@dataclass
class FieldHistory:
    """Space-time record of a run on the Rothe grid.

    boxes maps each of RECORDED to the box of cells it is kept on, one
    slice per grid axis (default: the whole grid).  sigma, xi and ep
    hold their box's cells in C order, (N+1, box cells, nqp[, m]), so a
    whole-grid field is (N+1, ncells, nqp[, m]) and one on an empty box
    has zero cells.  u is kept on the whole grid, (N+1, nnodes, d), or
    on an empty box.  Every read names absolute cells and raises
    ValueError when they leave the field's box.  A probe reads a field
    of SOURCE through read alone, which hides this layout.
    """

    times: np.ndarray
    u: np.ndarray                       # (N+1, nnodes, d)
    sigma: np.ndarray                   # (N+1, box cells, nqp, m)
    xi: np.ndarray                      # (N+1, box cells, nqp[, m])
    ep: np.ndarray
    grid: Grid = field(repr=False)
    params: MaterialParams = field(repr=False)
    boxes: dict | None = None

    def __post_init__(self):
        whole = self.grid.cell_box()
        given = self.boxes or {}
        self.boxes = {name: self.grid.cell_box(given.get(name, whole))
                      for name in RECORDED}
        for name, box in self.boxes.items():
            rows = _cell_count(box)
            if name == "u" and rows:
                if box != whole:
                    raise ValueError("u is kept on the whole grid or not at all")
                rows = self.grid.nnodes
            if getattr(self, name).shape[1] != rows:
                raise ValueError(f"{name} holds {getattr(self, name).shape[1]}"
                                 f" rows for its box {_box_str(box)}")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def _whole(self, *names):
        """Raise unless every named field is kept on the whole grid."""
        whole = self.grid.cell_box()
        partial = [f"{n} on {_box_str(self.boxes[n])}" for n in names
                   if self.boxes[n] != whole]
        if partial:
            raise ValueError("needs the whole grid, but this history keeps "
                             + ", ".join(partial))

    def state_at(self, k: int) -> ConstitutiveState:
        self._whole("sigma", "xi", "ep")
        return ConstitutiveState(self.sigma[k], self.xi[k], self.ep[k])

    def on_cells(self, name: str, region=None) -> np.ndarray:
        """Stored field name on a box of cells, (Nt, *box, ...), as a view.

        region holds one absolute cell slice per grid axis; None gives
        the whole-grid array as stored.  Raises ValueError if region
        leaves the field's kept box.
        """
        arr = getattr(self, name)
        if region is None:
            self._whole(name)
            return arr
        kept = self.boxes[name]
        region = self.grid.cell_box(region)
        if any(r.start < k.start or r.stop > k.stop
               for r, k in zip(region, kept)):
            raise ValueError(f"cells {_box_str(region)} of {name} are outside "
                             f"its kept box {_box_str(kept)}")
        shaped = arr.reshape(arr.shape[:1] + tuple(k.stop - k.start
                                                   for k in kept)
                             + arr.shape[2:])
        return shaped[(slice(None),) + tuple(
            slice(r.start - k.start, r.stop - k.start)
            for r, k in zip(region, kept))]

    def rate(self, name: str, region=None, levels=slice(None), out=None):
        """Backward-difference rate of the stored field name on region
        (see on_cells) at the rate levels levels (a slice of range(N)),
        written into out or a fresh array."""
        arr = self.on_cells(name, region)
        start, stop, _ = levels.indices(arr.shape[0] - 1)
        out = np.subtract(arr[start + 1:stop + 1], arr[start:stop], out=out)
        out /= self.dt
        return out

    def read(self, name: str, region, levels=slice(None), out=None):
        """Probe field name (a key of SOURCE) on region, (Nt, *box, nqp, K).

        The components come flattened, K = 1 for the isotropic xi; region
        None gives the whole grid, cells flat.  A stored field (sigma,
        xi) is a view of its levels levels; a rate (sigma_dot, xi_dot,
        grad_u_dot) is formed at the rate levels levels, into out (of
        the returned shape) if given.
        """
        if name not in SOURCE:
            raise ValueError(f"unknown field {name!r}; choices: "
                             f"{tuple(SOURCE)}")
        source = SOURCE[name]
        comps = ((self.grid.d,) * 2 if source == "u"
                 else getattr(self, source).shape[3:])
        if out is not None:
            out = out.reshape(out.shape[:-1] + comps)
        if name == source:
            arr = self.on_cells(name, region)[levels]
        elif source == "u":
            arr = self.grad_u_dot(region, levels, out)
        else:
            arr = self.rate(source, region, levels, out)
        return arr.reshape(arr.shape[:arr.ndim - len(comps)]
                           + (math.prod(comps),))

    def grad_u_dot(self, region=None, levels=slice(None), out=None):
        """(N, ncells, nqp, d, d) gradients of the backward-difference rates.

        Given a region (see on_cells), the gradients of its cells only,
        as (N, *box, nqp, d, d); given levels, those rate levels only,
        written into out if given.  Each level forms its own u rate.
        """
        self._whole("u")
        grid = self.grid
        cells, box = None, (grid.ncells,)
        if region is not None:
            cells = np.arange(grid.ncells).reshape(grid.cell_counts)[
                grid.cell_box(region)]
            box = cells.shape
            cells = cells.ravel()
        start, stop, _ = levels.indices(len(self.times) - 1)
        if out is None:
            out = np.empty((stop - start,) + box
                           + (grid.nqp, grid.d, grid.d))
        rows = out.reshape(out.shape[0], math.prod(box), grid.nqp, grid.d,
                           grid.d, copy=False)
        for i, k in enumerate(range(start, stop)):
            ud = self.rate("u", levels=slice(k, k + 1))[0]
            rows[i] = grid.gradient(ud, cells)
        return out


def initial_state(grid: Grid, params: MaterialParams, data):
    """Initial nodal displacement and quadrature-point state at t = 0.

    Only set-up reads sigma0(0) at the quadrature points (a step reads
    sigma0 on the Neumann face), so it is evaluated on a writeable copy
    of the points, which the data generator's profile memo does not keep.
    """
    u0 = data.u0(0.0, grid.nodes)
    sigma0 = data.sigma0(0.0, np.array(grid.qp_points)).reshape(
        grid.ncells, grid.nqp, grid.m)
    strain = grid.sym_gradient(u0)
    ep0 = strain - params.elastic.apply(sigma0)
    if params.model == constitutive.KINEMATIC:
        xi0 = np.zeros_like(sigma0)
    else:
        xi0 = np.zeros(sigma0.shape[:-1])
    return u0, ConstitutiveState(sigma=sigma0, xi=xi0, ep=ep0)


class _Stepper:
    """Shared machinery for one Rothe step, around one elastic factorization.

    The elastic stiffness is constant: its LU factors give the exact
    solve of the elastic predictor and of an elastic Newton step, and
    precondition CG on the plastic tangents.
    """

    def __init__(self, grid: Grid, params: MaterialParams, data):
        self.grid = grid
        self.params = params
        self.data = data
        a_inv = np.linalg.inv(params.elastic.matrix)
        D = np.broadcast_to(a_inv, (grid.ncells, grid.nqp, grid.m, grid.m))
        K = grid.assemble_tangent(np.ascontiguousarray(D))
        self._factor = grid.factorize(K)
        self._elastic_solve = grid.make_solver(None, self._factor)

    def step(self, u_n, strain_n, state_n, t_n, dt, elastic_n=False,
             u_prev=None):
        """One backward-Euler step from (u_n, state_n) at t_n.

        strain_n is sym_gradient(u_n), which the previous step returned.
        Returns (u, strain, state, iterations, |r_free| / scale), strain
        being sym_gradient(u) for the next step.  Newton starts
        at u_n with the Dirichlet values of t_n + dt, or at a predictor
        chosen by the regime of state_n, which run() reads off its
        streamed overshoot:
        - elastic_n (state_n within KINK_GUARD of the yield surface): the
          exact elastic predictor, one solve with the elastic factors
          whose right-hand side is the residual of the elastic trial
          stress sigma_n + A^-1 deps.  When no trial point yields by more
          than KINK_GUARD, the residual at the start is used as is, and
          the predictor is the step's elastic Newton iteration.
        - otherwise, given the previous displacement u_prev: the
          extrapolation 2 u_n - u_prev with the new Dirichlet values.
        A predictor is kept only if it lowers |r_free|.  The residual
        scale is always taken at the unpredicted start.  iterations
        counts the linear solves: the elastic predictor's, kept or not,
        and one per Newton correction; extrapolation costs no solve.
        Raises SolverFailure when |r_free| does not fall to NEWTON_RTOL
        scale within NEWTON_MAX_ITER solves.
        """
        grid, params, data = self.grid, self.params, self.data
        t1 = t_n + dt
        u = u_n.copy()
        u[grid.dirichlet_nodes] = data.u0(t1, grid.dirichlet_points)
        load = grid.load_vector(body_fn=data.body_force,
                                sigma0_fn=data.sigma0, t=t1)
        free = grid.free_dofs

        def force_of(sigma):
            r = grid.internal_force(sigma) - load
            r[grid.dirichlet_dofs] = 0.0
            return r

        # a residual is (r, strain, update); the strain increment
        # strain - strain_n is formed where it is needed
        def residual_of(u_try):
            strain = grid.sym_gradient(u_try)
            upd = local_update(state_n, strain - strain_n, dt, params)
            return force_of(upd.sigma), strain, upd

        def norm_of(res):
            return np.linalg.norm(res[0][free])

        def is_elastic(upd):
            return float(yield_excess(upd, params).max()) \
                <= constitutive.KINK_GUARD

        def direction(u, res, rnorm):
            r, strain, upd = res
            solve = self._elastic_solve
            if not is_elastic(upd):
                # D gives the exact Jacobian K, so |K du + r| <= eta |r|
                # with eta < 1 makes du a descent direction for |r|^2;
                # the tangent is freed on return, before the next is built
                D = consistent_tangent(state_n, strain - strain_n, dt, params,
                                       updated=upd)
                eta = max(CG_RTOL, min(FORCING_MAX, rnorm / scale))
                solve = grid.make_solver(D, self._factor, rtol=eta)
            return solve(-r).reshape(grid.nnodes, grid.d)

        res = residual_of(u)
        fint_scale = np.linalg.norm((res[0] + load)[free])
        scale = max(np.linalg.norm(load[free]), fint_scale, 1e-12)
        rnorm = norm_of(res)

        iters = 0
        u_pred = None
        if rnorm > NEWTON_RTOL * scale:
            if elastic_n:
                r, strain, upd = res
                r_trial = r if is_elastic(upd) else force_of(
                    state_n.sigma
                    + params.elastic.inverse().apply(strain - strain_n))
                u_pred = u + self._elastic_solve(-r_trial).reshape(
                    grid.nnodes, grid.d)
                iters = 1
            elif u_prev is not None:
                u_pred = 2.0 * u_n - u_prev
                u_pred[grid.dirichlet_nodes] = u[grid.dirichlet_nodes]
        if u_pred is not None:
            res_pred = residual_of(u_pred)
            rn_pred = norm_of(res_pred)
            if rn_pred < rnorm:
                u, res, rnorm = u_pred, res_pred, rn_pred
            # free the rejected arrays before the first tangent is built
            del res_pred

        u, res, rnorm, newton = damped_newton(
            u, res, rnorm, residual_of, direction, norm_of,
            NEWTON_RTOL * scale, NEWTON_MAX_ITER - iters)
        iters += newton

        if not (np.isfinite(rnorm) and np.isfinite(scale)):
            raise SolverFailure(f"non-finite residual at t={t1:g} after {iters}"
                                " Newton iterations; check the data",
                                iterations=iters, residual=rnorm)
        if rnorm > NEWTON_RTOL * scale:
            raise SolverFailure(
                f"Newton stalled at t={t1:g}: residual {rnorm:.3e} vs scale "
                f"{scale:.3e}; consider a smaller dt or a larger mu",
                iterations=iters, residual=rnorm)
        return u, res[1], res[2], iters, rnorm / scale


def _accumulate_energy(acc, grid, params, state, state_prev=None, u=None,
                       u_prev=None, dt=None):
    excess = yield_excess(state, params)
    overshoot_sq = grid.integrate_qp(excess**2)
    acc["e_pen"].append(overshoot_sq / params.mu)
    acc["overshoot_linf"].append(float(excess.max()) if excess.size else 0.0)
    acc["overshoot_l2"].append(np.sqrt(overshoot_sq))
    if state_prev is None:
        return
    sigdot = (state.sigma - state_prev.sigma) / dt
    xidot = (state.xi - state_prev.xi) / dt
    acc["sigdot_l2"].append(np.sqrt(grid.integrate_qp(
        tensors.inner(sigdot, sigdot))))
    if params.model == constitutive.KINEMATIC:
        xidot_sq = tensors.inner(xidot, xidot)
    else:
        xidot_sq = xidot**2
    acc["xidot_l2"].append(np.sqrt(grid.integrate_qp(xidot_sq)))
    # the Gauss-rule H^1 norm as a quadratic form of the nodal rate
    acc["udot_h1"].append(np.sqrt(grid.h1_norm_sq((u - u_prev) / dt)))
    prev = acc["dissipation_cum"][-1] if acc["dissipation_cum"] else 0.0
    acc["dissipation_cum"].append(
        prev + dt * (acc["sigdot_l2"][-1] ** 2 + acc["xidot_l2"][-1] ** 2))


def _new_accumulator() -> dict:
    """Empty per-level/per-step lists, one per EnergyReport array but times."""
    return {f.name: [] for f in fields(EnergyReport) if f.name != "times"}


def _energy_report(acc, times) -> EnergyReport:
    return EnergyReport(times=np.asarray(times),
                        **{k: np.asarray(v) for k, v in acc.items()})


def run(grid: Grid, params: MaterialParams, data, T: float, N: int,
        record="all"):
    """Execute N backward-Euler steps; returns (history | None, EnergyReport).

    record maps names of RECORDED to the box of cells each is kept on at
    every level (one slice per grid axis; see FieldHistory), and a name
    it leaves out is kept on an empty box; "all" keeps every field on
    the whole grid, and None keeps no history (sweeps only need the
    streamed diagnostics).  The report carries the Newton record either
    way.
    """
    dt = T / N
    times = np.linspace(0.0, T, N + 1)
    stepper = _Stepper(grid, params, data)
    u, state = initial_state(grid, params, data)
    strain = grid.sym_gradient(u)

    acc = _new_accumulator()
    _accumulate_energy(acc, grid, params, state)

    history = None
    if record is not None:
        history = _new_history(grid, params, times, record)
        _record(history, 0, u, state)

    u_prev = None
    for k in range(N):
        elastic_n = acc["overshoot_linf"][-1] <= constitutive.KINK_GUARD
        try:
            u_new, strain, state_new, iters, rel = stepper.step(
                u, strain, state, times[k], dt, elastic_n=elastic_n,
                u_prev=u_prev)
        except SolverFailure as exc:
            exc.step_index = k
            raise
        _accumulate_energy(acc, grid, params, state_new, state, u_new, u, dt)
        acc["newton_iters"].append(iters)
        acc["residual_rel"].append(rel)
        if history is not None:
            _record(history, k + 1, u_new, state_new)
        u_prev, u, state = u, u_new, state_new

    return history, _energy_report(acc, times)


def _new_history(grid, params, times, record) -> FieldHistory:
    """An empty FieldHistory holding each field on its box of record."""
    if record == "all":
        record = {name: grid.cell_box() for name in RECORDED}
    unknown = set(record) - set(RECORDED)
    if unknown:
        raise ValueError(f"cannot record {sorted(unknown)}; "
                         f"choices: {RECORDED}")
    empty = tuple(slice(0, 0) for _ in grid.cell_counts)
    boxes = {name: grid.cell_box(record.get(name, empty))
             for name in RECORDED}
    levels = len(times)
    u_rows = grid.nnodes if _cell_count(boxes["u"]) else 0
    xi_comps = (grid.m,) if params.model == constitutive.KINEMATIC else ()
    comps = {"sigma": (grid.m,), "xi": xi_comps, "ep": (grid.m,)}
    return FieldHistory(
        times=times, u=np.empty((levels, u_rows, grid.d)),
        **{name: np.empty((levels, _cell_count(boxes[name]), grid.nqp)
                          + comps[name]) for name in comps},
        grid=grid, params=params, boxes=boxes)


def _record(history: FieldHistory, k: int, u, state) -> None:
    """Copy level k's fields into the history, each on its kept box."""
    grid = history.grid
    if history.u.shape[1]:
        history.u[k] = u
    for name in ("sigma", "xi", "ep"):
        dest = history.on_cells(name, history.boxes[name])[k]
        arr = getattr(state, name)
        dest[...] = arr.reshape(grid.cell_counts + arr.shape[1:])[
            history.boxes[name]]


def energy_diagnostics(history: FieldHistory) -> EnergyReport:
    """Recompute the streamed diagnostics from a whole-grid history."""
    history._whole(*RECORDED)
    grid, params = history.grid, history.params
    acc = _new_accumulator()
    _accumulate_energy(acc, grid, params, history.state_at(0))
    dt = history.dt
    for k in range(1, len(history.times)):
        _accumulate_energy(acc, grid, params, history.state_at(k),
                           history.state_at(k - 1), history.u[k],
                           history.u[k - 1], dt)
    return _energy_report(acc, history.times)


@dataclass
class SafetyReport:
    passed: bool
    margin: float
    kappa: float


def safety_load_check(sigma0, params: MaterialParams) -> SafetyReport:
    """Strict feasibility of the safety load, checked once at t = 0.

    sigma0 is the initial stress at the quadrature points (the sigma of
    initial_state).  The translated hardening data xi0(t) = sigma0(t) -
    sigma0(0) (kinematic) resp. |dev sigma0(t)| - |dev sigma0(0)|
    (isotropic) makes the feasibility gap |dev sigma0(t) - dev xi0(t)|
    resp. |dev sigma0(t)| - xi0(t) equal |dev sigma0(0)| at every t, so
    margin = kappa - sup_x |dev sigma0(0, x)| > 0 covers the whole run.
    """
    dev0 = tensors.norm(tensors.dev(sigma0))
    margin = params.kappa - float(dev0.max())
    return SafetyReport(passed=margin > 0.0, margin=margin, kappa=params.kappa)


def weak_divergence_defect(grid: Grid, data, sigma0) -> float:
    """Relative free-dof residual of sigma0 against f at t = 0: checks
    div sigma0, given the initial stress at the quadrature points."""
    free = grid.free_dofs
    fint = grid.internal_force(sigma0)[free]
    load = grid.load_vector(body_fn=data.body_force, sigma0_fn=data.sigma0,
                            t=0.0)[free]
    scale = max(np.linalg.norm(load), np.linalg.norm(fint), 1e-12)
    return float(np.linalg.norm(fint - load) / scale)
