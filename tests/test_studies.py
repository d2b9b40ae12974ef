"""The scripts under ``studies/`` run against today's package.

They call the package's public functions the way ``perfbench/`` does; a
change to those calls fails here, in the test suite, instead of in a study
run.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "studies"))

import c6_seeds  # noqa: E402
import c7_identifiability  # noqa: E402
from crowdmeta.encoder import EncoderConfig, init_params  # noqa: E402


def test_c7_study_reports_c7_win_count(monkeypatch, capsys):
    monkeypatch.setattr(c7_identifiability, "STEPS", (10,))
    c7_identifiability.main()
    rows = [line for line in capsys.readouterr().out.splitlines() if "em_steps=" in line]
    assert len(rows) == 1 and "em_steps= 10: " in rows[0]
    assert "DS wins 22/100" in rows[0]  # C7's count, tests/test_acceptance.py


@pytest.mark.parametrize("method", ["em", "mv"])
def test_c6_study_scores_an_untrained_encoder(method):
    test_data = c6_seeds.benchmark_dataset(12, 40, c6_seeds.BENCH_SEED + 3)
    params = init_params(EncoderConfig(8, (32,), 8, init_seed=42))
    accuracy = c6_seeds.bench_eval(c6_seeds.BENCH_SEED, params, method, 1, test_data)
    assert 0.0 <= accuracy <= 1.0 and np.isfinite(accuracy)
