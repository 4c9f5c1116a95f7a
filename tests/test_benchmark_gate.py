"""The benchmark's correctness gate at seed 0, in the test suite.

perfbench/run.py checks every timed run against perfbench/reference.json;
this runs each workload's seed-0 scenario once, at full size, through the
same child process and the same check, so a change to the bits the
reference pins fails here rather than only in a benchmark run.  The
harness modules are imported as perfbench/test_perfbench.py imports them.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, write_scenario  # noqa: E402


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_run_passes_the_reference_gate(name, tmp_path):
    w = WORKLOADS[name]
    scenario = write_scenario(ROOT, w, 0, tmp_path / "scenario.json")
    out_dir = tmp_path / "out"
    sample = run.run_child(w, scenario, out_dir, "light")
    reference = json.loads(run.REFERENCE.read_text())[name]
    assert checks.check_run(w, sample.exit_code, sample.spans, out_dir,
                            reference) == []
