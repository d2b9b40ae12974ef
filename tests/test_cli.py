"""Command-line harness: config parsing, artifacts, determinism, exit codes."""

import json
import math
import os
import re
import shlex
from collections import Counter

import numpy as np
import pytest

import loop_annotators
from crowdmeta import cli
from crowdmeta import metatrain as mt
from crowdmeta.annotators import AnnotatorDistribution
from crowdmeta.cli import main
from crowdmeta.config import ConfigError, load_config, parse_config_text, build_run_setup
from crowdmeta.encoder import EncoderConfig, init_params, save_checkpoint
from crowdmeta.episodes import sample_episode
from crowdmeta.seeding import stream
from crowdmeta.verify import check_em_monotone

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

    @pytest.mark.parametrize("key", ["seed", "ways", "label_column", "pseudo_annotation"])
    def test_blank_value_with_default_is_config_error(self, key, tmp_path, capsys):
        with pytest.raises(ConfigError, match=rf"^<config>:2: {key} needs a value$"):
            parse_config_text(f"# blank\n{key} =\n")
        path = tmp_path / "blank.cfg"
        path.write_text(TINY_CONFIG + f"{key} =\n", encoding="utf-8")
        assert main(["baseline", "--method", "mv", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"{key} needs a value" in capsys.readouterr().err

    def test_blank_list_is_empty(self, tmp_path, capsys):
        values = parse_config_text(TINY_CONFIG + "hidden_dims =\n")
        assert values["hidden_dims"] == ()
        assert build_run_setup(values).meta.encoder.hidden_dims == ()
        path = tmp_path / "blank.cfg"
        path.write_text(TINY_CONFIG + "pseudo_dist =\n", encoding="utf-8")
        assert main(["baseline", "--method", "mv", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 2
        assert "pseudo_dist needs three weights" in capsys.readouterr().err

    def test_setup_builds(self, config_path):
        setup = build_run_setup(load_config(config_path))
        assert setup.meta.ways == 3
        assert setup.train_data.dim == 5
        assert not (set(setup.train_data.class_ids) & set(setup.test_data.class_ids))

    def test_split_smaller_than_ways_names_the_split(self):
        values = parse_config_text(TINY_CONFIG + "ways = 4\n")  # 12 classes: 6/3/3
        with pytest.raises(ConfigError, match="validation split has 3 of 12 classes"):
            build_run_setup(values)

    def test_negative_split_fraction_names_it(self, tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(TINY_CONFIG + "split_fractions = 1.2,-0.1,-0.1\n", encoding="utf-8")
        assert main(["meta-train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "validation split fraction is -0.1" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_csv_cell_is_data_error(self, cell, tmp_path, capsys):
        rows = [f"{c},{c + 0.5 * j}" for c in range(30) for j in range(8)]
        rows[100] = f"{100 // 8},{cell}"
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("label,x\n" + "\n".join(rows) + "\n", encoding="utf-8")
        path = tmp_path / "csv.cfg"
        path.write_text(TINY_CONFIG + f"csv_path = {csv_path}\n", encoding="utf-8")
        out = tmp_path / "x"
        assert main(["meta-train", "--config", str(path), "--out", str(out)]) == 2
        assert f"row 102, column 'x': non-finite value {cell}" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_features_are_data_error(self, tmp_path, capsys):
        # finite features whose squared distances overflow leave every
        # class of some example without posterior mass
        rows = [f"{c},{(c + 0.5 * j) * 1e155}" for c in range(30) for j in range(8)]
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("label,x\n" + "\n".join(rows) + "\n", encoding="utf-8")
        path = tmp_path / "csv.cfg"
        path.write_text(TINY_CONFIG + f"csv_path = {csv_path}\n", encoding="utf-8")
        out = tmp_path / "x"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["meta-train", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "error: no class has positive posterior mass" in capsys.readouterr().err
        assert not out.exists()  # the error comes from training, before any output

    def test_readme_example_config_builds(self):
        text = open(README, encoding="utf-8").read()
        example = re.search(r"cat > run.cfg <<EOF\n(.*?)\nEOF\n", text, re.S).group(1)
        setup = build_run_setup(parse_config_text(example, source="README"))
        meta = setup.meta
        for i, split in enumerate((setup.train_data, setup.val_data, setup.test_data)):
            episode = sample_episode(split, meta.ways, meta.shots, meta.query_per_class,
                                     stream(0, "readme", i))
            assert episode.num_classes == meta.ways

    @pytest.mark.parametrize("command", [["evaluate", "--checkpoint", "nope.bin"],
                                         ["baseline", "--method", "mv"]])
    @pytest.mark.parametrize("tasks", [0, -3])
    def test_non_positive_eval_tasks_is_config_error(self, command, tasks, tmp_path, capsys):
        path = tmp_path / "few.cfg"
        path.write_text(TINY_CONFIG + f"eval_tasks = {tasks}\n", encoding="utf-8")
        out = tmp_path / "x"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 2
        assert f"eval_tasks must be >= 1 (got {tasks})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["tau", "class_prior_strength", "confusion_strength",
                                     "learning_rate"])
    def test_nan_positive_value_is_config_error(self, key, tmp_path, capsys):
        # NaN fails no `<= 0` test: it used to train to garbage or die in the E step
        path = tmp_path / "nan.cfg"
        path.write_text(TINY_CONFIG + f"{key} = nan\n", encoding="utf-8")
        out = tmp_path / "x"
        assert main(["meta-train", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"bad value for {key}: must be a finite number > 0, got 'nan'" in err
        assert not out.exists()

    @pytest.mark.parametrize("spread", ["nan", "inf", "-inf"])
    def test_non_finite_cluster_spread_is_config_error(self, spread, tmp_path, capsys):
        # it used to fail after --out existed, naming neither the key nor the line
        path = tmp_path / "spread.cfg"
        path.write_text(f"seed = 1\ncluster_spread = {spread}\n", encoding="utf-8")
        out = tmp_path / "x"
        assert main(["meta-train", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "spread.cfg:2: bad value for cluster_spread: must be a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, name", [
        ("examples_per_class", -3, "examples_per_class"),
        ("examples_per_class", 0, "examples_per_class"),
        ("feature_dim", -2, "dim"),
    ])
    def test_non_positive_synthetic_size_is_data_error(self, key, value, name, tmp_path, capsys):
        # negative sizes used to exit with numpy's "negative dimensions are
        # not allowed", and zero examples as too few classes for the split
        path = tmp_path / "size.cfg"
        path.write_text(TINY_CONFIG + f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "x"
        assert main(["meta-train", "--config", str(path), "--out", str(out)]) == 2
        assert f"error: {name} must be >= 1 (got {value})\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spread", ["0", "-0.5"])
    def test_non_positive_cluster_spread_builds(self, spread):
        values = parse_config_text(f"cluster_spread = {spread}\n")
        assert build_run_setup(values).values["cluster_spread"] == float(spread)

    def test_one_way_is_config_error_before_any_file(self, tmp_path, capsys):
        path = tmp_path / "one.cfg"
        path.write_text(TINY_CONFIG + "ways = 1\n", encoding="utf-8")
        out = tmp_path / "x"
        assert main(["meta-train", "--config", str(path), "--out", str(out)]) == 2
        assert "ways must be >= 2 (got 1)" in capsys.readouterr().err
        assert not out.exists()

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

    def test_ablation_is_the_config_value(self, config_path, tmp_path):
        # the flag sets pseudo_annotation = false, so run_id and the echo cover it
        key_path = tmp_path / "clean.cfg"
        key_path.write_text(TINY_CONFIG + "pseudo_annotation = false\n", encoding="utf-8")
        runs = {"base": [config_path], "flag": [config_path, "--ablation", "no-pseudo-annotation"],
                "key": [str(key_path)]}
        metrics, checkpoints = {}, {}
        for name, (path, *flags) in runs.items():
            out = str(tmp_path / name)
            assert main(["meta-train", "--config", path, "--out", out, *flags]) == 0
            metrics[name] = json.load(open(os.path.join(out, "metrics.json")))
            checkpoints[name] = open(os.path.join(out, "checkpoint.bin"), "rb").read()
        assert metrics["flag"]["config"]["pseudo_annotation"] is False
        assert metrics["flag"]["config"] == metrics["key"]["config"]
        assert metrics["flag"]["run_id"] == metrics["key"]["run_id"]
        assert metrics["flag"]["run_id"] != metrics["base"]["run_id"]
        assert checkpoints["flag"] == checkpoints["key"] != checkpoints["base"]

    def test_metrics_strict_json_without_validation(self, tmp_path):
        path = tmp_path / "short.cfg"
        path.write_text(TINY_CONFIG + "max_iterations = 3\n", encoding="utf-8")
        out = tmp_path / "short"
        assert main(["meta-train", "--config", str(path), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        text = (out / "metrics.json").read_text(encoding="utf-8")
        metrics = json.loads(text, parse_constant=reject)
        assert metrics["val_history"] == [] and metrics["best_val_accuracy"] is None

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--checkpoint", "x", "--config", "c"],
         "error: the following arguments are required: --out"),
        (["meta-train", "--config", "c", "--out", "o", "--ablation", "bogus"],
         "error: argument --ablation: invalid choice: 'bogus'"),
    ], ids=["missing-out", "bad-ablation"])
    def test_usage_error_says_what_is_wrong(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: crowdmeta") and err.splitlines()[-1].startswith(message)

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
        with open(os.path.join(out, "annotator_audit.jsonl"), encoding="utf-8") as fh:
            audit = [json.loads(line) for line in fh]
        for cell in cells:
            assert 0.0 <= cell["mean_acc"] <= 1.0
            assert 0.0 <= cell["label_recovery_acc"] <= 1.0
            assert cell["n_tasks"] == 6
            assert "annotator_audit" not in cell
            tasks = [line for line in audit if (line["shots"], line["annotators"])
                     == (cell["shots"], cell["annotators"])]
            assert [line["task"] for line in tasks] == list(range(6))
            assert all(len(line["profiles"]) == cell["annotators"] for line in tasks)

    @staticmethod
    def expected_audit(config_path, annotators, dists):
        """The audit lines of a grid of one shots value, by json.dumps of each task's dict."""
        setup = build_run_setup(load_config(config_path))
        shots = setup.meta.shots
        lines = []
        for dist in dists or [setup.eval_dist]:
            key = {"shots": shots, "annotators": annotators, "dist": dist.to_dict()}
            for i in range(setup.eval_tasks):
                label = cli._annotator_stream(shots, annotators, dist)
                rng = loop_annotators.row_generator(setup.meta.master_seed, label, (i,),
                                                    annotators, setup.meta.ways * shots)
                profiles, _ = loop_annotators.sample_annotator_pool(dist, annotators,
                                                                    setup.meta.ways, rng)
                dicts = [{"kind": p.kind.value} | ({} if p.q is None else {"q": p.q})
                         for p in profiles]
                lines.append(json.dumps(key | {"task": i, "profiles": dicts},
                                        sort_keys=True, separators=(",", ":")) + "\n")
        return lines

    @staticmethod
    def audit(out):
        with open(os.path.join(out, "annotator_audit.jsonl"), encoding="utf-8") as fh:
            return fh.readlines()

    def test_audit_lines_are_the_drawn_profiles(self, config_path, checkpoint, tmp_path):
        # each line, byte for byte, as written from the profiles that one
        # pool per task draws from its row of the cell's doubles
        out = str(tmp_path / "audit")
        assert main(["evaluate", "--checkpoint", checkpoint, "--config", config_path,
                     "--out", out, "--shots", "2", "--annotators", "4",
                     "--spammer-ratio", "0,0.5"]) == 0
        dists = [AnnotatorDistribution.expert_hammer_spammer(0.1, 0.9 - ratio, ratio)
                 for ratio in (0.0, 0.5)]
        assert self.audit(out) == self.expected_audit(config_path, 4, dists)

    @pytest.mark.parametrize("flags, annotators, weights", [
        (["--annotators", "4", "--dist", "0:0:1"], 4, (0.0, 0.0, 1.0)),
        (["--annotators", "4", "--dist", "1:0:0"], 4, (1.0, 0.0, 0.0)),
        (["--annotators", "1"], 1, None),
    ], ids=["spammers-only", "experts-only", "one-annotator"])
    def test_audit_lines_at_the_grid_edges(self, config_path, checkpoint, tmp_path,
                                           flags, annotators, weights):
        out = str(tmp_path / "audit")
        assert main(["evaluate", "--checkpoint", checkpoint, "--config", config_path,
                     "--out", out, *flags]) == 0
        dists = weights and [AnnotatorDistribution.expert_hammer_spammer(*weights)]
        lines = self.audit(out)
        assert lines == self.expected_audit(config_path, annotators, dists)
        profiles = [p for line in lines for p in json.loads(line)["profiles"]]
        assert len(profiles) == 6 * annotators
        if weights == (0.0, 0.0, 1.0):
            assert all(p == {"kind": "spammer"} for p in profiles)
        elif weights == (1.0, 0.0, 0.0):
            assert all(p["kind"] == "expert" and 0.8 < p["q"] <= 1.0 for p in profiles)

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

    def test_nan_dist_is_usage_error(self, config_path, checkpoint, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["evaluate", "--checkpoint", checkpoint, "--config", config_path,
                     "--out", str(out), "--dist", "nan:0.5:0.5"])
        assert code == 1
        assert "--dist: negative or NaN weight for expert" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", [["evaluate"], ["baseline", "--method", "proto-mv"]])
    def test_usage_error_before_checkpoint(self, command, config_path, tmp_path, capsys):
        code = main([*command, "--checkpoint", str(tmp_path / "nope.bin"), "--config",
                     config_path, "--out", str(tmp_path / "x"), "--shots", "abc"])
        assert code == 1
        assert "--shots expects comma-separated integers, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["evaluate"], ["baseline", "--method", "mv"]])
    @pytest.mark.parametrize("flag,text", [("--annotators", "0"), ("--annotators", "-2"),
                                           ("--annotators", "3,0"), ("--shots", ","),
                                           ("--shots", "0"), ("--spammer-ratio", ",")])
    def test_grid_flag_is_usage_error(self, command, flag, text, config_path, checkpoint,
                                      tmp_path, capsys):
        out = tmp_path / "x"
        code = main([*command, "--checkpoint", checkpoint, "--config", config_path,
                     "--out", str(out), flag, text])
        assert code == 1
        assert f"error: {flag} expects" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [10, 33])
    def test_truncated_checkpoint_is_data_error(self, size, config_path, checkpoint,
                                                tmp_path, capsys):
        cut = tmp_path / "cut.bin"
        cut.write_bytes(open(checkpoint, "rb").read()[:size])
        code = main(["evaluate", "--checkpoint", str(cut), "--config", config_path,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{cut}: truncated checkpoint" in capsys.readouterr().err

    def test_trailing_bytes_are_data_error(self, config_path, checkpoint, tmp_path, capsys):
        long = tmp_path / "long.bin"
        long.write_bytes(open(checkpoint, "rb").read() + b"\x00" * 3)
        code = main(["evaluate", "--checkpoint", str(long), "--config", config_path,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{long}: 3 trailing bytes" in capsys.readouterr().err

    def test_empty_checkpoint_path_is_data_error(self, config_path, tmp_path):
        out = tmp_path / "x"
        assert main(["evaluate", "--checkpoint", "", "--config", config_path,
                     "--out", str(out)]) == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("method", ["mv", "ds"])
    def test_raw_method_with_checkpoint_is_usage_error(self, method, config_path, checkpoint,
                                                       tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["baseline", "--method", method, "--config", config_path,
                     "--checkpoint", checkpoint, "--out", str(out)]) == 1
        assert f"error: method {method} scores raw features" in capsys.readouterr().err
        assert not out.exists()

    def test_proto_ds_with_checkpoint(self, config_path, checkpoint, tmp_path):
        out = str(tmp_path / "pds")
        assert main(["baseline", "--method", "proto-ds", "--config", config_path,
                     "--checkpoint", checkpoint, "--out", out]) == 0

    def test_cells_share_the_evaluate_schema(self, config_path, checkpoint, tmp_path):
        cells = {}
        for command in (["evaluate"], ["baseline", "--method", "proto-mv"]):
            out = str(tmp_path / command[0])
            assert main([*command, "--checkpoint", checkpoint, "--config", config_path,
                         "--out", out]) == 0
            cells[command[0]] = json.load(open(os.path.join(out, "metrics.json")))["cells"][0]
        assert set(cells["baseline"]) == set(cells["evaluate"]) | {"method"}


@pytest.fixture()
def grid_run(tmp_path):
    """A config with more test tasks than one evaluation chunk, and an untrained checkpoint."""
    config = tmp_path / "grid.cfg"
    config.write_text(TINY_CONFIG.replace("eval_tasks = 6", "eval_tasks = 40"),
                      encoding="utf-8")
    checkpoint = str(tmp_path / "init.bin")
    encoder = EncoderConfig(5, (12,), 5, init_seed=4)
    save_checkpoint(checkpoint, encoder, init_params(encoder))

    def run(command, out, *grid):
        """The cells and audit lines of one run; ``mv`` scores raw features."""
        argv = [*command, "--config", str(config), "--out", str(out), *grid]
        if command[-1] != "mv":
            argv += ["--checkpoint", checkpoint]
        assert main(argv) == 0
        audit = out / "annotator_audit.jsonl"
        return (json.loads((out / "metrics.json").read_text())["cells"],
                audit.read_text().splitlines() if audit.exists() else [])

    return run


class TestGridSharesEpisodes:
    """A grid draws and embeds each shots value's episodes once for all of its cells."""

    @pytest.mark.parametrize("command", [["evaluate"], ["baseline", "--method", "proto-mv"],
                                         ["baseline", "--method", "mv"]],
                             ids=["evaluate", "proto-mv", "mv"])
    def test_cell_matches_the_cell_run_alone(self, command, grid_run, tmp_path):
        cells, audit = grid_run(command, tmp_path / "grid", "--shots", "2,1",
                                "--annotators", "3,5", "--spammer-ratio", "0.2,0.5")
        specs = [(s, r, ratio) for s in (2, 1) for r in (3, 5) for ratio in (0.2, 0.5)]
        assert [(c["shots"], c["annotators"]) for c in cells] == [(s, r) for s, r, _ in specs]
        for i, (s, r, ratio) in enumerate(specs):
            alone, alone_audit = grid_run(command, tmp_path / f"alone{i}", "--shots", str(s),
                                          "--annotators", str(r), "--spammer-ratio", str(ratio))
            assert alone == [cells[i]]
            key = {k: cells[i][k] for k in ("shots", "annotators", "dist")}
            mine = [line for line in audit
                    if {k: json.loads(line)[k] for k in key} == key]
            assert mine == alone_audit
            assert len(mine) == (40 if command == ["evaluate"] else 0)

    def test_each_shots_value_drawn_and_embedded_once(self, grid_run, tmp_path, monkeypatch):
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def drawn(*args):
            episodes = mt_sample_episodes(*args)
            counts["episodes"] += len(episodes.support_y)
            return episodes

        mt_sample_episodes = mt.sample_episodes
        monkeypatch.setattr(mt, "sample_episodes", counted("sample_episodes", drawn))
        monkeypatch.setattr(mt, "forward", counted("forward", mt.forward))
        grid_run(["evaluate"], tmp_path / "grid", "--shots", "2,1,3", "--annotators", "3,5")
        chunks = 3 * math.ceil(40 / mt.EVAL_CHUNK)
        assert counts == {"episodes": 3 * 40, "sample_episodes": chunks, "forward": chunks}


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

    @pytest.mark.parametrize("value", ["warnx", "basic_format"])
    def test_unknown_log_level_usage_error(self, value, monkeypatch, capsys):
        # "warnx" used to log at INFO, and "basic_format" names a logging
        # attribute that is no level, which basicConfig rejected with a traceback
        monkeypatch.setenv("CROWDMETA_LOG", value)
        assert main(["verify", "--suite", "estep-oracle"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: CROWDMETA_LOG must be one of DEBUG, INFO, WARNING, ERROR, "
                       f"CRITICAL (got {value!r})\n")

    @pytest.mark.parametrize("value", ["debug", "Warning", ""])
    def test_level_names_any_case_or_unset(self, value, monkeypatch):
        monkeypatch.setenv("CROWDMETA_LOG", value)
        assert main(["verify", "--suite", "estep-oracle"]) == 0

    @pytest.mark.parametrize("em_steps", [0, 1])
    def test_monotone_check_needs_two_steps(self, em_steps):
        # one M step leaves nothing to compare: the check used to pass with delta inf
        with pytest.raises(ValueError, match="em_steps must be >= 2"):
            check_em_monotone(num_tasks=1, em_steps=em_steps)


def test_each_stream_label_takes_one_index_count(config_path, tmp_path, monkeypatch):
    # stream(m, label) and stream(m, label, 0) are one generator for master
    # seeds below 2**32, so no label may be used with two index counts; the
    # chunk draws, which have no such alias, keep one index count a label too
    from crowdmeta import config, episodes, verify
    counts = {}

    def wrap(module, name, index_count):
        original = getattr(module, name)

        def recording(master_seed, label, *args):
            counts.setdefault(label, set()).add(index_count(args))
            return original(master_seed, label, *args)

        monkeypatch.setattr(module, name, recording)

    for module in (config, verify):
        wrap(module, "stream", len)
    for module in (episodes, mt):
        wrap(module, "uniforms", lambda args: np.asarray(args[0]).shape[1])
    trained = str(tmp_path / "trained")
    assert main(["meta-train", "--config", config_path, "--out", trained]) == 0
    assert main(["evaluate", "--checkpoint", os.path.join(trained, "checkpoint.bin"),
                 "--config", config_path, "--out", str(tmp_path / "eval")]) == 0
    assert main(["baseline", "--method", "ds", "--config", config_path,
                 "--out", str(tmp_path / "ds")]) == 0
    assert {"episode", "pseudo-annotate", "val-episode", "test-episode"} <= set(counts)
    assert {label: n for label, n in counts.items() if len(n) > 1} == {}


def test_readme_commands_parse():
    text = open(README, encoding="utf-8").read()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    handlers = {"meta-train": cli.cmd_meta_train, "evaluate": cli.cmd_evaluate,
                "baseline": cli.cmd_baseline, "verify": cli.cmd_verify}
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("crowdmeta ")]
    assert len(lines) == 7
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.build_parser().parse_args(argv).func is handlers[argv[0]], line
