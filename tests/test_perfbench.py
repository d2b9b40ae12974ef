"""The benchmark's workloads run one round each against today's package.

``perfbench/`` calls the package's public functions with fixed signatures;
a change to those calls fails here, in the test suite, instead of in a
benchmark run.  Each round's outputs are pinned too.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workload  # noqa: E402


# Each round's outputs on seed 7919: the final parameters of ``train``, the
# ``metrics.json`` of ``eval-grid`` (both SHA-256) and the per-task accuracies
# of ``crowd``.  A refactor that keeps every output byte keeps these.
ROUND_DIGESTS = {
    workload.Train: "c2f80b8c16b81e59de24385443d9cb497cbee7f6213efaf920092eae117254b2",
    workload.EvalGrid: "9764227b96d62377b51f7d1e450da9014ed19470bb541abda7fdc0de1bfa92f6",
    workload.Crowd: "[0.84, 0.84, 0.68, 0.77, 0.72, 0.75, 0.76, 0.8, 0.81, 0.82, 0.73, 0.7, "
                    "0.72, 0.76, 0.72, 0.73, 0.81, 0.77, 0.81, 0.82]",
}


@pytest.mark.parametrize("workload_class", list(ROUND_DIGESTS),
                         ids=["train", "eval-grid", "crowd"])
def test_one_round_without_failures(workload_class, tmp_path):
    bench = workload_class(7919, str(tmp_path))
    rnd = bench.round(workload.Timer(None, workload.HostSpeed()))
    assert rnd.failed == 0 and rnd.problems == []
    assert rnd.episodes > 0
    assert rnd.digest == ROUND_DIGESTS[workload_class]
