"""Command-line harness: config parsing, artifacts, determinism, exit codes."""

import json
import os
import re

import numpy as np
import pytest

from crowdmeta.cli import main
from crowdmeta.config import ConfigError, load_config, parse_config_text, build_run_setup
from crowdmeta.encoder import EncoderConfig, init_params, save_checkpoint
from crowdmeta.episodes import sample_episode
from crowdmeta.seeding import stream

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

TINY_CONFIG = """
# smoke-scale run
synthetic_classes = 12
feature_dim = 5
cluster_spread = 0.5
examples_per_class = 24
split_fractions = 0.5,0.25,0.25
ways = 3
shots = 2
query_per_class = 4
annotators = 3
hidden_dims = 12
embed_dim = 5
em_steps = 2
max_iterations = 25
validation_interval = 10
patience = 5
val_episodes_per_task = 3
eval_tasks = 6
seed = 3
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_unknown_key_names_it(self):
        with pytest.raises(ConfigError, match="synthetic_clases"):
            parse_config_text("synthetic_clases = 10\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("seed = 1\nways = lots\n")

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# hi\n\nseed = 9  # trailing\n")
        assert values["seed"] == 9

    def test_lists_parse(self):
        values = parse_config_text("hidden_dims = 32,16\npseudo_dist = 0.2,0.5,0.3\n")
        assert values["hidden_dims"] == (32, 16)
        assert values["pseudo_dist"] == (0.2, 0.5, 0.3)

    def test_empty_value_means_unset(self):
        values = parse_config_text("val_dist =\n")
        assert values["val_dist"] is None

    def test_setup_builds(self, config_path):
        setup = build_run_setup(load_config(config_path))
        assert setup.meta.ways == 3
        assert setup.train_data.dim == 5
        assert not (set(setup.train_data.class_ids) & set(setup.test_data.class_ids))

    def test_split_smaller_than_ways_names_the_split(self):
        values = parse_config_text(TINY_CONFIG + "ways = 4\n")  # 12 classes: 6/3/3
        with pytest.raises(ConfigError, match="validation split has 3 of 12 classes"):
            build_run_setup(values)

    def test_readme_example_config_builds(self):
        text = open(README, encoding="utf-8").read()
        example = re.search(r"cat > run.cfg <<EOF\n(.*?)\nEOF\n", text, re.S).group(1)
        setup = build_run_setup(parse_config_text(example, source="README"))
        meta = setup.meta
        for i, split in enumerate((setup.train_data, setup.val_data, setup.test_data)):
            episode = sample_episode(split, meta.ways, meta.shots, meta.query_per_class,
                                     stream(0, "readme", i))
            assert episode.num_classes == meta.ways

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")


class TestMetaTrainCommand:
    def test_writes_artifacts(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["meta-train", "--config", config_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))
        assert os.path.exists(os.path.join(out, "training_log.tsv"))
        metrics = json.load(open(os.path.join(out, "metrics.json")))
        assert metrics["command"] == "meta-train"
        assert metrics["iterations_run"] == 25
        log_lines = open(os.path.join(out, "training_log.tsv")).read().splitlines()
        assert len(log_lines) == 25
        iteration, _, _, digest = log_lines[0].split("\t")
        assert iteration == "1"
        assert len(digest) == 12 and int(digest, 16) >= 0  # pseudo-annotation digest

    def test_ablation_flag_recorded(self, config_path, tmp_path):
        out = str(tmp_path / "ablate")
        code = main(["meta-train", "--config", config_path, "--out", out,
                     "--ablation", "no-pseudo-annotation"])
        assert code == 0
        metrics = json.load(open(os.path.join(out, "metrics.json")))
        assert metrics["ablation"] == "no-pseudo-annotation"
        assert metrics["pseudo_annotation"] is False

    def test_rerun_byte_identical_metrics(self, config_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["meta-train", "--config", config_path, "--out", out1, "--seed", "5"])
        main(["meta-train", "--config", config_path, "--out", out2, "--seed", "5"])
        blob1 = open(os.path.join(out1, "metrics.json"), "rb").read()
        blob2 = open(os.path.join(out2, "metrics.json"), "rb").read()
        assert blob1 == blob2
        ck1 = open(os.path.join(out1, "checkpoint.bin"), "rb").read()
        ck2 = open(os.path.join(out2, "checkpoint.bin"), "rb").read()
        assert ck1 == ck2

    def test_bad_config_key_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 1\n", encoding="utf-8")
        assert main(["meta-train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.fixture()
def checkpoint(config_path, tmp_path):
    out = str(tmp_path / "trained")
    main(["meta-train", "--config", config_path, "--out", out])
    return os.path.join(out, "checkpoint.bin")


class TestEvaluateCommand:
    def test_grid_produces_cells(self, config_path, checkpoint, tmp_path):
        out = str(tmp_path / "eval")
        code = main(["evaluate", "--checkpoint", checkpoint, "--config", config_path,
                     "--out", out, "--shots", "1,2", "--annotators", "3,5"])
        assert code == 0
        metrics = json.load(open(os.path.join(out, "metrics.json")))
        cells = metrics["cells"]
        assert len(cells) == 4
        assert [(c["shots"], c["annotators"]) for c in cells] == [
            (1, 3), (1, 5), (2, 3), (2, 5)
        ]
        for cell in cells:
            assert 0.0 <= cell["mean_acc"] <= 1.0
            assert cell["n_tasks"] == 6
            assert len(cell["annotator_audit"]) == 6

    def test_single_cell_default(self, config_path, checkpoint, tmp_path):
        out = str(tmp_path / "eval1")
        main(["evaluate", "--checkpoint", checkpoint, "--config", config_path,
              "--out", out])
        metrics = json.load(open(os.path.join(out, "metrics.json")))
        assert len(metrics["cells"]) == 1

    def test_spammer_ratio_sweep(self, config_path, checkpoint, tmp_path):
        out = str(tmp_path / "sweep")
        main(["evaluate", "--checkpoint", checkpoint, "--config", config_path,
              "--out", out, "--spammer-ratio", "0.1,0.4"])
        metrics = json.load(open(os.path.join(out, "metrics.json")))
        dists = [c["dist"] for c in metrics["cells"]]
        assert dists[0]["spammer"] == pytest.approx(0.1)
        assert dists[1]["spammer"] == pytest.approx(0.4)
        assert dists[1]["hammer"] == pytest.approx(0.5)

    def test_bad_spammer_ratio_is_usage_error(self, config_path, checkpoint, tmp_path, capsys):
        code = main(["evaluate", "--checkpoint", checkpoint, "--config", config_path,
                     "--out", str(tmp_path / "x"), "--spammer-ratio", "0.1,abc"])
        assert code == 1
        assert "--spammer-ratio expects comma-separated numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["evaluate"], ["baseline", "--method", "proto-mv"]])
    def test_checkpoint_dim_mismatch(self, command, config_path, tmp_path, capsys):
        path = str(tmp_path / "wide.bin")
        wide = EncoderConfig(8, (4,), 3, init_seed=0)  # the config's data are 5-dim
        save_checkpoint(path, wide, init_params(wide))
        code = main([*command, "--checkpoint", path, "--config", config_path,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "checkpoint input dim 8 does not match data dim 5" in capsys.readouterr().err

    def test_metrics_roundtrip(self, config_path, checkpoint, tmp_path):
        out = str(tmp_path / "rt")
        main(["evaluate", "--checkpoint", checkpoint, "--config", config_path,
              "--out", out])
        text = open(os.path.join(out, "metrics.json")).read()
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


class TestBaselineCommand:
    def test_ds_reports_recovery_and_accuracy(self, config_path, tmp_path):
        out = str(tmp_path / "ds")
        assert main(["baseline", "--method", "ds", "--config", config_path,
                     "--out", out]) == 0
        cell = json.load(open(os.path.join(out, "metrics.json")))["cells"][0]
        assert 0.0 <= cell["label_recovery_acc"] <= 1.0
        assert 0.0 <= cell["mean_acc"] <= 1.0

    def test_mv_and_ds_coincide_single_annotator(self, config_path, tmp_path):
        # exact coincidence needs one aggregation pass and a near-uniform
        # class prior; with em_steps > 1 or small b the Dirichlet smoothing
        # can flip labels of under-voted classes
        path = tmp_path / "single.cfg"
        path.write_text(TINY_CONFIG + "\nem_steps = 1\nclass_prior_strength = 100\n",
                        encoding="utf-8")
        outs = {}
        for method in ("mv", "ds"):
            out = str(tmp_path / method)
            main(["baseline", "--method", method, "--config", str(path),
                  "--out", out, "--annotators", "1"])
            outs[method] = json.load(open(os.path.join(out, "metrics.json")))["cells"][0]
        assert outs["mv"]["label_recovery_acc"] == outs["ds"]["label_recovery_acc"]

    def test_unknown_method_usage_error(self, config_path, tmp_path):
        assert main(["baseline", "--method", "bogus", "--config", config_path,
                     "--out", str(tmp_path / "x")]) == 1

    def test_proto_variant_requires_checkpoint(self, config_path, tmp_path):
        assert main(["baseline", "--method", "proto-mv", "--config", config_path,
                     "--out", str(tmp_path / "x")]) == 1

    def test_proto_ds_with_checkpoint(self, config_path, checkpoint, tmp_path):
        out = str(tmp_path / "pds")
        assert main(["baseline", "--method", "proto-ds", "--config", config_path,
                     "--checkpoint", checkpoint, "--out", out]) == 0


class TestVerifyCommand:
    def test_fast_suites_pass(self, capsys):
        assert main(["verify", "--suite", "estep-oracle"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] estep-oracle" in out
        assert "threshold 1e-12" in out

    def test_proto_equiv(self, capsys):
        assert main(["verify", "--suite", "proto-equiv"]) == 0
        assert "agreement" in capsys.readouterr().out

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "--suite", "nope"]) == 1
