"""Recorded boxes: run(record=...), FieldHistory reads, probes.record_plan."""

import dataclasses

import numpy as np
import pytest

from plastprobe import evolution, probes
from plastprobe.scenario import load_benchmark, parse_scenario_dict

ALL_FIELDS = ("sigma", "xi", "sigma_dot", "xi_dot", "grad_u_dot")


def _every_probe(d):
    axes = ["time", "normal"] + [f"tangential-{j}" for j in range(1, d)]
    return [{"axis": axis, "field": name,
             "mode": "sup" if i % 2 else "integral"}
            for i, (axis, name) in enumerate(
                (a, f) for a in axes for f in ALL_FIELDS)]


def _scenario_3d(model, mode):
    hardening = ({"type": "identity"} if model == "kinematic"
                 else {"type": "modulus", "H": 1.0})
    return parse_scenario_dict({
        "model": model, "d": 3, "n": 4, "T": 1.0, "N": 10, "mu": 0.05,
        "kappa": 1.0, "elastic": {"type": "identity"},
        "hardening": hardening, "boundary_mode": mode,
        "data": {"generator": "poly", "terms": [
            {"tpoly": [0.0, 1.0],
             "linear": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.3], [0.0, 0.3, 0.0]],
             "quadratic": [[[0.0, 0.3, 0.0], [0.3, 0.0, 0.0],
                            [0.0, 0.0, 0.0]]] * 3}]},
        "probes": _every_probe(3),
        "allow_coarse_dt": True,
    })


SCENARIOS = {
    "kinematic-mixed-d2": lambda: load_benchmark(
        "mixed-boundary-kinematic", n=6, N=10, mu=0.05, allow_coarse_dt=True,
        probes=_every_probe(2)),
    "isotropic-mixed-d2": lambda: load_benchmark(
        "mixed-boundary-isotropic", n=6, N=10, mu=0.05, allow_coarse_dt=True,
        probes=_every_probe(2)),
    "isotropic-dirichlet-d2": lambda: load_benchmark(
        "dirichlet-isotropic", n=6, N=10, mu=0.05, allow_coarse_dt=True,
        probes=_every_probe(2)),
    "kinematic-mixed-d3": lambda: _scenario_3d("kinematic", "mixed"),
    "isotropic-dirichlet-d3": lambda: _scenario_3d("isotropic",
                                                   "all-dirichlet"),
}


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_record_plan_gives_bitwise_equal_probe_report(name):
    scn = SCENARIOS[name]()
    grid, params = scn.grid(), scn.material()
    plan = probes.record_plan(scn)
    full_hist, full_energy = evolution.run(grid, params, scn.data, scn.T,
                                           scn.N)
    plan_hist, plan_energy = evolution.run(grid, params, scn.data, scn.T,
                                           scn.N, record=plan)
    assert plan_hist.ep.nbytes == 0
    assert sum(getattr(plan_hist, f).nbytes for f in evolution.RECORDED) \
        < sum(getattr(full_hist, f).nbytes for f in evolution.RECORDED)
    assert np.abs(full_hist.ep).max() > 0.0         # a plastic run
    for f in dataclasses.fields(evolution.EnergyReport):
        assert _same(getattr(full_energy, f.name),
                     getattr(plan_energy, f.name)), f.name
    full = probes.run_probes(scn, full_hist)
    got = probes.run_probes(scn, plan_hist)
    assert len(got.rows) == len(full.rows) == len(scn.probes)
    for a, b in zip(full.rows, got.rows):
        where = (a.axis, a.field, a.mode)
        assert (b.axis, b.field, b.mode, b.target) \
            == (a.axis, a.field, a.mode, a.target)
        for key in ("h", "values"):
            assert _same(getattr(a, key), getattr(b, key)), where
        assert dataclasses.asdict(a.fit) == dataclasses.asdict(b.fit), where
    for key in probes.table_keys(scn.probes, scn.N):
        a, b = (probes.seminorm_table(h, *key, scn.cutoff())
                for h in (full_hist, plan_hist))
        assert len(a.levels) == len(b.levels)
        for la, lb in zip(a.levels, b.levels):
            assert _same(la, lb), key
    assert full.interpolation is not None
    for key in ("h", "lhs", "rhs", "ratio"):
        assert _same(getattr(full.interpolation, key),
                     getattr(got.interpolation, key)), key
    for key in ("flagged", "degenerate", "spread", "window"):
        assert getattr(full.interpolation, key) \
            == getattr(got.interpolation, key), key


def _partial_history():
    scn = load_benchmark("mixed-boundary-kinematic", n=6, N=4, mu=0.05,
                         allow_coarse_dt=True)
    grid = scn.grid()
    box = (slice(2, 7), slice(1, 4))
    full, _ = evolution.run(grid, scn.material(), scn.data, scn.T, scn.N)
    part, _ = evolution.run(grid, scn.material(), scn.data, scn.T, scn.N,
                            record={"sigma": box})
    return grid, box, full, part


def test_partial_record_reads_its_box_and_rejects_the_rest():
    grid, box, full, part = _partial_history()
    assert part.sigma.shape[1] == 5 * 3
    assert part.u.nbytes == part.xi.nbytes == part.ep.nbytes == 0
    inner = (slice(3, 7), slice(1, 2))
    for region in (box, inner):
        assert _same(part.on_cells("sigma", region),
                     full.on_cells("sigma", region))
        assert _same(part.rate("sigma", region), full.rate("sigma", region))
    for region in ((slice(1, 7), slice(1, 4)), (slice(2, 8), slice(1, 4)),
                   (slice(2, 7), slice(0, 4)), None):
        with pytest.raises(ValueError, match="sigma"):
            part.rate("sigma", region)
    with pytest.raises(ValueError, match="outside its kept box"):
        part.on_cells("xi", inner)
    with pytest.raises(ValueError, match="needs the whole grid"):
        part.grad_u_dot(inner)
    with pytest.raises(ValueError, match="needs the whole grid"):
        part.rate("u")


def test_partial_record_refuses_state_and_energy_diagnostics():
    _, _, full, part = _partial_history()
    full.state_at(2)
    evolution.energy_diagnostics(full)
    with pytest.raises(ValueError, match="needs the whole grid"):
        part.state_at(2)
    with pytest.raises(ValueError, match="needs the whole grid"):
        evolution.energy_diagnostics(part)


def test_record_rejects_unknown_fields_and_mismatched_arrays():
    scn = load_benchmark("elastic-only", n=4, N=2)
    grid = scn.grid()
    with pytest.raises(ValueError, match="cannot record"):
        evolution.run(grid, scn.material(), scn.data, scn.T, scn.N,
                      record={"strain": grid.cell_box()})
    with pytest.raises(ValueError, match="whole grid or not at all"):
        evolution.run(grid, scn.material(), scn.data, scn.T, scn.N,
                      record={"u": (slice(0, 2), slice(0, 4))})
    hist, _ = evolution.run(grid, scn.material(), scn.data, scn.T, scn.N)
    with pytest.raises(ValueError, match="rows for its box"):
        dataclasses.replace(hist, boxes={"sigma": (slice(0, 2),
                                                   slice(0, 4))})


# the probes of the probe-elastic-long benchmark workload
ELASTIC_LONG_PROBES = [
    {"axis": "tangential-1", "field": "sigma", "mode": "sup"},
    {"axis": "time", "field": "sigma_dot", "mode": "integral"},
    {"axis": "normal", "field": "sigma", "mode": "sup"},
    {"axis": "time", "field": "grad_u_dot", "mode": "integral"},
]


def test_record_plan_memory_guard():
    # bytes counted from array sizes: on the elastic-long probe shape the
    # plan keeps at most 35% of the whole-grid record, and no ep
    scn = load_benchmark("elastic-only", n=32, N=120,
                         probes=ELASTIC_LONG_PROBES)
    grid, params = scn.grid(), scn.material()
    times = np.linspace(0.0, scn.T, scn.N + 1)
    plan = probes.record_plan(scn)

    def kept_bytes(record):
        hist = evolution._new_history(grid, params, times, record)
        return {f: getattr(hist, f).nbytes for f in evolution.RECORDED}

    planned, full = kept_bytes(plan), kept_bytes("all")
    assert sum(full.values()) / 2**20 == pytest.approx(72.0, abs=0.1)
    assert sum(planned.values()) <= 0.35 * sum(full.values())
    assert planned["ep"] == 0
    assert planned["u"] == full["u"]
    assert probes.record_plan(load_benchmark("elastic-only", n=32, N=120,
                                             probes=[])) is None

