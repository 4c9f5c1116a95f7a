"""Scenario parsing, validation, benchmark library, report files, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plastprobe
from plastprobe import evolution, probes, report
from plastprobe import scenario as scenario_module
from plastprobe.cli import main as cli_main
from plastprobe.scenario import (BENCHMARKS, ScenarioError, benchmark_path,
                                 load_benchmark, parse_scenario,
                                 parse_scenario_dict, validate)


def minimal_config(**overrides):
    cfg = {
        "model": "kinematic", "d": 2, "n": 4, "T": 1.0, "N": 4, "mu": 0.1,
        "kappa": 1.0, "elastic": {"type": "identity"},
        "hardening": {"type": "identity"}, "boundary_mode": "mixed",
        "data": {"generator": "poly", "terms": [
            {"tpoly": [0.0, 1.0], "linear": [[0.0, 0.2], [0.2, 0.0]]}]},
        "allow_coarse_dt": True,
    }
    cfg.update(overrides)
    return cfg


def test_minimal_file_resolves_defaults(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(minimal_config()))
    scn = parse_scenario(path)
    assert scn.config["delta"] == 0.05
    assert scn.dt == pytest.approx(0.25)
    assert scn.config["cutoff"]["eps0"] == 0.15
    assert scn.name == "scn"


def test_mu_list_enables_sweep():
    scn = parse_scenario_dict(minimal_config(mu=[0.1, 0.01]))
    assert scn.mu == 0.1
    assert scn.mu_list == [0.1, 0.01]


def test_schema_violation_names_field():
    # parsing skips the metaschema check of the shipped schema: run it here
    scenario_module.SCHEMA_VALIDATOR.check_schema(scenario_module.SCHEMA)
    with pytest.raises(ScenarioError, match="kappa"):
        parse_scenario_dict(minimal_config(kappa=0.0))
    with pytest.raises(ScenarioError, match="model"):
        parse_scenario_dict(minimal_config(model="perfect"))
    with pytest.raises(ScenarioError, match="generator"):
        parse_scenario_dict(minimal_config(
            data={"generator": "mystery", "terms": [{"tpoly": [1]}]}))


def test_schema_probe_fields_are_the_fields_a_history_reads():
    # a probe field the schema admits is one FieldHistory.read serves,
    # from a field that run() can record
    schema_fields = scenario_module.SCHEMA["properties"]["probes"]["items"][
        "properties"]["field"]["enum"]
    assert tuple(schema_fields) == tuple(evolution.SOURCE)
    assert set(evolution.SOURCE.values()) <= set(evolution.RECORDED)


def test_hardening_model_mismatch_rejected():
    with pytest.raises(ScenarioError, match="kinematic"):
        parse_scenario_dict(minimal_config(
            hardening={"type": "modulus", "H": 1.0}))
    with pytest.raises(ScenarioError, match="isotropic"):
        parse_scenario_dict(minimal_config(
            model="isotropic", hardening={"type": "identity"}))


def test_validate_benchmarks_clean():
    for name in BENCHMARKS:
        scn = parse_scenario(benchmark_path(name))
        assert validate(scn) == [], name


def test_validate_flags_safety_load():
    cfg = minimal_config()
    cfg["data"]["terms"][0]["tpoly"] = [8.0, 1.0]   # huge initial stress
    scn = parse_scenario_dict(cfg)
    violations = validate(scn)
    assert any("safety load" in v for v in violations)


def test_validate_flags_coarse_dt():
    cfg = minimal_config(mu=0.001)
    cfg["allow_coarse_dt"] = False
    violations = validate(parse_scenario_dict(cfg))
    assert any("mu_min/2" in v for v in violations)


def test_validate_flags_bad_ellipticity_c1():
    cfg = minimal_config(c1=2.0)     # identity tensors cannot satisfy C1=2
    violations = validate(parse_scenario_dict(cfg))
    assert any("ellipticity" in v for v in violations)


def test_roundtrip_config_echo(tmp_path):
    scn = load_benchmark("elastic-only", n=4, N=2)
    grid = scn.grid()
    params = scn.material()
    _, energy = evolution.run(grid, params, scn.data, scn.T, scn.N,
                              record=None)
    out = report.emit_run_report(tmp_path / "out", scn, energy)
    echoed = json.loads((out / "report.json").read_text())["config"]
    scn2 = parse_scenario_dict(echoed)
    assert scn2.config == scn.config


def test_emit_probe_report_files(tmp_path):
    scn = load_benchmark("elastic-only", n=6, N=4)
    grid = scn.grid()
    hist, energy = evolution.run(grid, scn.material(), scn.data, scn.T, scn.N)
    pr = probes.run_probes(scn, hist)
    out = report.emit_run_report(tmp_path / "out", scn, energy,
                                 probe_report=pr)
    assert (out / "report.json").exists()
    assert (out / "energy.csv").exists()
    for row in pr.rows:
        assert (out / f"seminorm_{row.axis}_{row.field}_{row.mode}.csv").exists()
    # elastic run: penalty column identically zero
    lines = (out / "energy.csv").read_text().strip().splitlines()
    headers = lines[0].split(",")
    col = headers.index("e_pen")
    assert all(float(l.split(",")[col]) == 0.0 for l in lines[1:])


def test_reproducible_rerun_byte_identical(tmp_path):
    scn = load_benchmark("elastic-only", n=4, N=2)
    grid = scn.grid()
    blobs = []
    for sub in ("a", "b"):
        _, energy = evolution.run(grid, scn.material(), scn.data, scn.T,
                                  scn.N, record=None)
        out = report.emit_run_report(tmp_path / sub, scn, energy,
                                     reproducible=True)
        blobs.append(((out / "report.json").read_bytes(),
                      (out / "energy.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_cli_validate_ok_and_failure(tmp_path, capsys):
    assert cli_main(["validate", "elastic-only"]) == 0
    assert capsys.readouterr().out == "elastic-only: ok\n"
    safety = minimal_config()
    safety["data"]["terms"][0]["tpoly"] = [8.0, 1.0]
    # a probe on a tangential axis that d = 2 does not have
    axis = minimal_config(probes=[
        {"axis": "tangential-2", "field": "sigma", "mode": "sup"}])

    def data(generator, term):
        return minimal_config(data={"generator": generator, "terms": [term]})

    sine = {"tpoly": [0.0, 1.0], "amp": [1.0], "freq": [[1.0]]}
    cases = (
        (safety, "violation: safety load violated"),
        (axis, "violation: probe axis tangential-2 out of range for d=2\n"),
        (minimal_config(fit_window={"space": [0.5, 0.1]}),
         "violation: fit_window.space: [0.5, 0.1] needs lo < hi\n"),
        (minimal_config(fit_window={"space": ["a", 0.25]}),
         "error: schema violation at fit_window.space.0: "),
        (data("poly", {"tpoly": [0.0, 1.0], "linear": [[0, 1, 2]]}),
         "error: data.terms[0]: linear must have shape (2, 2), got (1, 3)\n"),
        (data("poly", {"tpoly": ["x", 1.0]}),
         "error: schema violation at data.terms.0.tpoly.0: "),
        (data("poly", 5), "error: schema violation at data.terms.0: "),
        (data("sine", sine),
         "error: data.terms[0]: amp must have shape (2,), got (1,)\n"))
    for cfg, message in cases:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli_main(["validate", str(bad)]) == 2
        # validate reports violations on stdout, the other commands on
        # stderr; a scenario that does not parse is one error on stderr
        out, err = capsys.readouterr()
        text = out + err
        assert text.startswith(message) and text.count("\n") == 1
        assert (err if message.startswith("violation") else out) == ""
        for command in ("run", "probe", "sweep"):
            assert cli_main([command, str(bad), "--out",
                             str(tmp_path / command)]) == 2
            assert capsys.readouterr() == ("", text)


def test_cli_probe_builds_one_cutoff(tmp_path, monkeypatch):
    # validate, record_plan and run_probes share the scenario's cutoff
    calls = []
    real = scenario_module.make_cutoff

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "make_cutoff", counting)
    scn_file = tmp_path / "scn.json"
    scn_file.write_text(json.dumps(minimal_config(n=6, N=4, probes=[
        {"axis": "time", "field": "sigma_dot", "mode": "integral"}])))
    assert cli_main(["probe", str(scn_file), "--out",
                     str(tmp_path / "p")]) == 0
    assert len(calls) == 1
    assert probes.record_plan(parse_scenario_dict(minimal_config(probes=[]))) \
        is None
    assert len(calls) == 1


def test_cli_validate_missing_file(tmp_path, capsys):
    # a missing file, a directory and a file that is not UTF-8 all exit 2
    # with one error line, as does a file that is not JSON
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "caf\xe9"}')
    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    for path in (tmp_path / "missing.json", tmp_path, not_utf8, not_json):
        assert cli_main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read scenario {path}: ")
        assert err.count("\n") == 1


def test_cli_run_and_probe(tmp_path):
    scn_file = tmp_path / "scn.json"
    cfg = minimal_config(n=6, N=4, probes=[
        {"axis": "tangential-1", "field": "sigma", "mode": "sup"}])
    scn_file.write_text(json.dumps(cfg))
    assert cli_main(["run", str(scn_file), "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "energy.csv").exists()
    assert cli_main(["probe", str(scn_file), "--out",
                     str(tmp_path / "p")]) == 0
    data = json.loads((tmp_path / "p" / "report.json").read_text())
    assert data["exponents"] is not None
    assert data["targets"] is not None


def test_cli_probe_meta_records_phases(tmp_path):
    # meta.json times the solve and the probes, reads the peak RSS after
    # each and gives the stored MiB and each field's kept box; every
    # other file stays byte-stable under --reproducible
    scn_file = tmp_path / "scn.json"
    cfg = minimal_config(n=6, N=4, probes=[
        {"axis": "time", "field": "sigma_dot", "mode": "integral"}])
    scn_file.write_text(json.dumps(cfg))
    for sub in ("a", "b"):
        assert cli_main(["probe", str(scn_file), "--out",
                         str(tmp_path / sub), "--reproducible"]) == 0
    meta = json.loads((tmp_path / "a" / "meta.json").read_text())
    assert meta["solve_seconds"] >= 0.0 and meta["probe_seconds"] >= 0.0
    assert meta["peak_rss_mb_after_solve"] > 0.0
    assert meta["peak_rss_mb_after_probes"] >= meta["peak_rss_mb_after_solve"]
    record = meta["record"]
    assert sorted(record) == ["ep", "sigma", "u", "xi"]
    assert record["ep"] == record["xi"] == record["u"] == [[0, 0], [0, 0]]
    scn = parse_scenario(scn_file)
    support = scn.cutoff().support
    assert record["sigma"] == [[s.start, s.stop] for s in support]
    cells = (support[0].stop - support[0].start) \
        * (support[1].stop - support[1].start)
    grid = scn.grid()
    assert meta["history_mb"] == (cfg["N"] + 1) * cells * grid.nqp * grid.m \
        * 8 / 2**20
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "report.json" in files
    for name in files:
        if name != "meta.json":
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes(), name


def test_cli_probe_notes_fit_windows_too_narrow_to_fit(tmp_path, capsys):
    # at n = 8 the space window [1/4, 1/4] holds one rung of 1/8, 1/4,
    # 1/2, and at N = 6 the time window [1/3, 1/4] is reversed: one note
    # per window, no violation, and no row gets a fitted exponent
    scn_file = tmp_path / "scn.json"
    cfg = load_benchmark("mixed-boundary-kinematic", n=8, N=6, mu=0.2,
                         allow_coarse_dt=True).config
    scn_file.write_text(json.dumps(cfg))
    assert cli_main(["probe", str(scn_file), "--out",
                     str(tmp_path / "p")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split("]")[0] for line in err] == [
        "note: fit window space [0.25, 0.25",
        "note: fit window time [0.3333, 0.25"]
    data = json.loads((tmp_path / "p" / "report.json").read_text())
    assert data["exponents"]
    assert all(row["s_hat"] is None for row in data["exponents"])
    # two rungs in each window: nothing to note
    assert probes.window_notes(load_benchmark(
        "mixed-boundary-kinematic", n=16, N=16, allow_coarse_dt=True)) == []


def test_cli_sweep(tmp_path):
    scn_file = tmp_path / "scn.json"
    scn_file.write_text(json.dumps(minimal_config(mu=[0.1, 0.05], N=4)))
    assert cli_main(["sweep", str(scn_file), "--out",
                     str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s" / "sweep_summary.json").read_text())
    assert len(summary["entries"]) == 2
    assert (tmp_path / "s" / summary["entries"][0]["dir"] /
            "report.json").exists()


def _newton_block_ok(block, N):
    assert len(block["iterations"]) == N
    assert all(isinstance(k, int) and k >= 0 for k in block["iterations"])
    assert 0.0 <= block["max_relative_residual"] <= evolution.NEWTON_RTOL


def test_cli_run_writes_newton_block(tmp_path):
    scn_file = tmp_path / "scn.json"
    scn_file.write_text(json.dumps(minimal_config(N=4)))
    assert cli_main(["run", str(scn_file), "--out", str(tmp_path / "r")]) == 0
    data = json.loads((tmp_path / "r" / "report.json").read_text())
    _newton_block_ok(data["newton"], 4)
    # the benchmark compares energy_summary's keys: the block stays out
    assert "newton" not in data["energy_summary"]
    header = (tmp_path / "r" / "energy.csv").read_text().splitlines()[0]
    assert header == ("time,e_pen,overshoot_linf,overshoot_l2,sigdot_l2,"
                      "xidot_l2,udot_h1,dissipation_cum")


def test_cli_sweep_entries_carry_newton_block(tmp_path):
    scn_file = tmp_path / "scn.json"
    scn_file.write_text(json.dumps(minimal_config(mu=[0.1, 0.05], N=4)))
    assert cli_main(["sweep", str(scn_file), "--out",
                     str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s" / "sweep_summary.json").read_text())
    assert len(summary["entries"]) == 2
    for entry in summary["entries"]:
        rep = json.loads((tmp_path / "s" / entry["dir"] /
                          "report.json").read_text())
        _newton_block_ok(rep["newton"], 4)
        assert "newton" not in rep["energy_summary"]
        # the same block as a run report of that mu
        scn = parse_scenario_dict(minimal_config(mu=rep["mu"], N=4))
        _, energy = evolution.run(scn.grid(), scn.material(), scn.data,
                                  scn.T, scn.N, record=None)
        assert rep["newton"] == json.loads(json.dumps(
            probes.newton_summary(energy)))


@pytest.mark.parametrize("command", ["run", "probe", "sweep"])
def test_cli_linear_solver_failure_exits_3(command, tmp_path, monkeypatch,
                                           capsys, solver_fault):
    # each solve made to fail where it arises: SuperLU before step 0, CG
    # on the first plastic tangent (step 1), the local update at step 0
    scn_file = tmp_path / "scn.json"
    scn_file.write_text(json.dumps(minimal_config(
        mu=[0.1, 0.05], N=2, data={"generator": "poly", "terms": [
            {"tpoly": [0.0, 1.0], "linear": [[0.0, 1.0], [1.0, 0.0]]}]})))
    for kind, step in (("splu", None), ("cg", 1), ("local", 0)):
        message = solver_fault(kind)
        if step is not None:
            message = f"step {step}: {message}"
        out = tmp_path / kind
        assert cli_main([command, str(scn_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        if command == "sweep":
            # the sweep records each failed mu and writes a partial report
            summary = json.loads((out / "sweep_summary.json").read_text())
            assert [e["failure"] for e in summary["entries"]] == [message] * 2
            assert "partial" in err
        else:
            # raised out of the command, mapped to 3 by main
            assert f"solver failure: {message}\n" in err
        monkeypatch.undo()


def test_cli_targets_output(capsys):
    assert cli_main(["targets", "--d", "2", "--model", "i",
                     "--boundary", "neumann"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma_normal"] == pytest.approx((-3 + np.sqrt(57)) / 8)


def test_cli_io_failure(tmp_path, capsys):
    scn_file = tmp_path / "scn.json"
    scn_file.write_text(json.dumps(minimal_config(N=2)))
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    assert cli_main(["run", str(scn_file), "--out", str(target)]) == 4
    assert "i/o failure: cannot create" in capsys.readouterr().err


def test_cli_sweep_blocked_mu_directory_exits_4(tmp_path, capsys):
    scn_file = tmp_path / "scn.json"
    scn_file.write_text(json.dumps(minimal_config(mu=[0.2, 0.1], N=2)))
    out = tmp_path / "s"
    out.mkdir()
    (out / "mu_2.000e-01").write_text("a file, not a directory")
    assert cli_main(["sweep", str(scn_file), "--out", str(out)]) == 4
    assert "i/o failure: cannot create" in capsys.readouterr().err


def test_console_script_help():
    # the child imports the package this process imported, installed or
    # found through pytest's pythonpath setting
    src = str(Path(plastprobe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "plastprobe.cli", "--help"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0
    assert "validate" in out.stdout


def test_package_data_ships_every_resource():
    # an installed package reads these files through importlib.resources;
    # without the schema even "import plastprobe" fails
    import fnmatch
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"][
            "plastprobe"]
    for rel in ["scenario.schema.json"] + [f"benchmarks/{name}.json"
                                           for name in BENCHMARKS]:
        assert (root / "src" / "plastprobe" / rel).is_file(), rel
        assert any(fnmatch.fnmatch(rel, g) for g in globs), rel


def test_validate_flags_incompatible_initial_data():
    # nonzero curved initial displacement: the pointwise-sampled sigma0(0)
    # does not reproduce E_h(u0(0)) at the quadrature points, so the
    # compatibility-derived plastic strain fails the trace-free requirement
    cfg = minimal_config(n=8)
    cfg["data"] = {"generator": "sine", "terms": [{
        "tpoly": [0.5, 1.0], "amp": [0.05, -0.04],
        "freq": [[1.7, 1.2], [1.1, 2.1]], "phase": [[0.3, 0.5], [1.0, 0.2]]}]}
    violations = validate(parse_scenario_dict(cfg))
    assert any("trace-free" in v for v in violations)
