"""Every benchmark workload's toy body through the benchmark's own output
gates (perfbench/checks.py), so a harness change that breaks the calls the
benchmark makes fails here.  perfbench/ is imported read-only."""
import sys
from pathlib import Path

import pytest

import nonlinbandit

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    from checks import Tally
    from workloads import WORKLOADS
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_body_passes_every_gate(tmp_path, name):
    workload = WORKLOADS[name](toy=True)
    tally = Tally()
    state = workload.setup(nonlinbandit)
    parts = workload.prepare(nonlinbandit, state, 1, 0)
    results = [workload.run_part(nonlinbandit, part, str(tmp_path)) for part in parts]
    workload.check(nonlinbandit, parts, results, tally, str(tmp_path))
    workload.check_once(nonlinbandit, 1, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages
