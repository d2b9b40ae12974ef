"""The benchmark's workloads run one round each against today's package.

``perfbench/`` calls the package's public functions with fixed signatures;
a change to those calls fails here, in the test suite, instead of in a
benchmark run.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workload  # noqa: E402


@pytest.mark.parametrize("workload_class", [workload.Train, workload.EvalGrid, workload.Crowd],
                         ids=["train", "eval-grid", "crowd"])
def test_one_round_without_failures(workload_class, tmp_path):
    bench = workload_class(7919, str(tmp_path))
    rnd = bench.round(workload.Timer(None, workload.HostSpeed()))
    assert rnd.failed == 0 and rnd.problems == []
    assert rnd.episodes > 0 and rnd.digest
