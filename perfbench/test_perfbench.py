"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

Smoke-size copies of the workloads go through the whole harness (child
processes, spans, correctness gate); full-size runs are for run.py.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import (SHIPPED, WORKLOADS, scenario_config,  # noqa: E402
                       scenario_text, write_scenario)

SMOKE = {
    "sweep-kinematic-n32": {"n": 8},
    "probe-isotropic-n48": {"n": 16, "solver": "cg"},
    "probe-elastic-long": {"n": 16, "N": 16},
}
COUNTS = ("evolution.newton_iters", "fem.make_solver_calls",
          "fem.assemble_tangent_calls", "probes.seminorm_table_calls")


def smoke(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, overrides={**w.overrides, **SMOKE[name]})


# -- seeded input generator ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_reproduces_shipped_coefficients(name):
    w = WORKLOADS[name]
    shipped = json.loads((ROOT / SHIPPED / f"{w.base}.json").read_text())
    assert scenario_config(ROOT, w, 0)["data"] == shipped["data"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_file(name):
    w = WORKLOADS[name]
    assert scenario_text(ROOT, w, 7) == scenario_text(ROOT, w, 7)
    assert scenario_text(ROOT, w, 7) != scenario_text(ROOT, w, 8)
    assert scenario_config(ROOT, w, 7)["data"] != \
        scenario_config(ROOT, w, 0)["data"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_scenarios_validate(name):
    from plastprobe.scenario import parse_scenario_dict, validate
    for seed in (1, 2, 3):
        cfg = scenario_config(ROOT, WORKLOADS[name], seed)
        assert validate(parse_scenario_dict(cfg)) == []


# -- span reduction ------------------------------------------------------------


def test_layer_metrics_from_synthetic_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["scenario.parse", 0.0, 1.0, 0, None],
        ["scenario.validate", 1.0, 3.0, 0, {"violations": 0}],
        ["fem.grid", 1.5, 2.0, 2, None],
        ["evolution.run", 3.0, 9.0, 0, {"steps": 2}],
        ["constitutive.local_update", 3.0, 3.5, 4, None],
        ["fem.solve", 3.5, 4.0, 4, {"cg_iters": 7}],
        ["constitutive.local_update", 4.0, 4.5, 4, None],
        ["constitutive.local_update", 4.5, 5.0, 4, None],
        ["constitutive.consistent_tangent", 5.0, 6.0, 4,
         {"active_frac": 0.25}],
        ["fem.solve", 6.0, 6.5, 4, {"cg_iters": 5}],
        ["constitutive.local_update", 6.5, 7.0, 4, None],
        ["fem.load_vector", 7.0, 8.0, 4, None],
        ["datagen.body_force", 7.2, 7.6, 12, None],
    ]
    assert tracer.setup_seconds(spans) == pytest.approx(3.0)
    assert tracer.evolution_steps(spans) == (2, 6.0)
    m = tracer.layer_metrics(spans)
    assert m["evolution.newton_iters"] == 2
    assert m["evolution.line_search_backtracks"] == 4 - 2 - 2
    assert m["evolution.elastic_solve_frac"] == pytest.approx(0.5)
    assert m["fem.cg_iters"] == 12
    assert m["constitutive.active_frac"] == pytest.approx(0.25)
    assert m["fem.residual_s"] == pytest.approx(0.6)
    assert m["datagen.eval_s"] == pytest.approx(0.4)
    assert m["evolution.run_self_s"] == pytest.approx(6.0 - 5.0)
    assert m["scenario.self_s"] == pytest.approx(2.5)
    assert sum(m[f"{mod}.self_s"] for mod in tracer.MODULES) == \
        pytest.approx(m["trace.wall_s"])


# -- core-speed scaling ----------------------------------------------------------


def test_times_are_scaled_to_the_reference_probe_time():
    ref = speed.REFERENCE_PROBE_S
    w = speed.WINDOW_PROBES
    # one window at half the reference speed, then one at the reference speed
    probes = [[0.1 * i, 2 * ref] for i in range(w)] + \
        [[10.0 + 0.1 * i, ref] for i in range(w)]
    scale = speed.SpeedScale(probes)
    assert speed.SpeedScale([]).seconds(1.0, 3.0) == 2.0
    assert scale.seconds(-1.0, 0.0) == pytest.approx(0.5)
    assert scale.seconds(0.05, 0.1) == pytest.approx(0.025)
    assert scale.seconds(0.05, 0.15) == pytest.approx(0.05 - ref)
    assert scale.seconds(9.0, 11.0) == pytest.approx(0.5 + 1.0 - 10 * ref)
    sample = run.Sample(mode="light", started=9.0, raw_wall_s=2.0,
                        peak_rss_mb=1.0, exit_code=0, spans=[],
                        speed_probes=probes)
    assert sample.wall_s == pytest.approx(1.5 - 10 * ref)
    spans = [["evolution.run", 9.0, 11.0, -1, {"steps": 5}]]
    assert tracer.evolution_steps(spans, sample.scaled) == \
        (5, pytest.approx(1.5 - 10 * ref))


def test_probe_samples_while_running():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 3
    assert all(d > 0 for _, d in probe.samples)


# -- the full harness at smoke size ----------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate_and_counts_repeat(name, tmp_path):
    w = smoke(name)
    scenario = write_scenario(ROOT, w, 3, tmp_path / "scenario.json")
    samples = run.closed_loop(w, scenario, tmp_path, 0.0,
                              ("light", "trace", "trace"), None)
    assert [s.problems for s in samples] == [[], [], []]
    stats = run.end_to_end(samples)
    assert all(stats[k][0] > 0 for k in run.END_TO_END_UNITS)
    problems = []
    layers = run.per_layer(samples, problems)
    assert problems == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    first, second = (tracer.layer_metrics(s.spans) for s in samples[1:])
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert layers["evolution.newton_iters"] > 0
    if w.command == "probe":
        assert layers["probes.seminorm_table_calls"] > 0


def test_gate_rejects_non_finite_and_nonzero_penalty(tmp_path):
    w = smoke("probe-elastic-long")
    scenario = write_scenario(ROOT, w, 0, tmp_path / "scenario.json")
    out_dir = tmp_path / "out"
    sample = run.run_child(w, scenario, out_dir, "light")
    assert checks.check_run(w, sample.exit_code, sample.spans, out_dir,
                            None) == []
    energy = out_dir / "energy.csv"
    lines = energy.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "nan"
    energy.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]))
    problems = checks.check_run(w, sample.exit_code, sample.spans, out_dir,
                                None)
    assert any("non-finite" in p for p in problems)
    assert any("e_pen" in p for p in problems)


def test_reference_mismatch_is_a_failure(tmp_path):
    w = smoke("probe-elastic-long")
    scenario = write_scenario(ROOT, w, 0, tmp_path / "scenario.json")
    out_dir = tmp_path / "out"
    sample = run.run_child(w, scenario, out_dir, "light")
    reference = checks.summarize(w, out_dir, [])
    assert checks.check_run(w, 0, sample.spans, out_dir, reference) == []
    reference["energy_summary"]["sup_sigdot"] *= 1.0 + 1e-4
    assert checks.check_run(w, 0, sample.spans, out_dir, reference)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "probe-elastic-long", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
