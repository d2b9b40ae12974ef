"""Synthetic data, class splits, episode sampling, CSV ingestion."""

import copy
from dataclasses import fields

import numpy as np
import pytest

import loop_episodes
from crowdmeta import episodes, seeding
from crowdmeta.episodes import (
    DataError,
    Episode,
    LabeledDataset,
    generate_synthetic,
    load_csv,
    sample_episode,
    sample_episodes,
    split_classes,
)
from crowdmeta.seeding import stream


class TestGenerateSynthetic:
    def test_zero_spread_collapses_to_centers(self):
        data = generate_synthetic(3, 4, 0.0, 5, seed=0)
        for c in data.class_ids:
            rows = data.features[data.labels == c]
            np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))

    def test_deterministic(self):
        a = generate_synthetic(4, 3, 1.0, 6, seed=9)
        b = generate_synthetic(4, 3, 1.0, 6, seed=9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_shape(self):
        data = generate_synthetic(50, 8, 1.0, 40, seed=1)
        assert data.features.shape == (2000, 8)
        assert len(data.class_ids) == 50

    def test_too_few_classes(self):
        with pytest.raises(DataError):
            generate_synthetic(1, 2, 1.0, 5, seed=0)

    @pytest.mark.parametrize("dim, examples, name, size", [
        (2, 0, "examples_per_class", 0),  # used to fail as too few classes for the split
        (2, -3, "examples_per_class", -3),  # used to fail in numpy: negative dimensions
        (-2, 5, "dim", -2),
        (0, 5, "dim", 0),
    ])
    def test_non_positive_size_rejected(self, dim, examples, name, size):
        with pytest.raises(DataError, match=rf"^{name} must be >= 1 \(got {size}\)$"):
            generate_synthetic(3, dim, 1.0, examples, seed=0)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf")])
    def test_non_finite_spread_rejected(self, spread):
        with pytest.raises(DataError, match="cluster spread must be finite"):
            generate_synthetic(3, 2, spread, 5, seed=0)


class TestSplitClasses:
    def test_counts(self):
        data = generate_synthetic(10, 2, 1.0, 4, seed=2)
        train, val, test = split_classes(data, (0.8, 0.1, 0.1), seed=0)
        assert len(train.class_ids) == 8
        assert len(val.class_ids) == 1
        assert len(test.class_ids) == 1

    def test_partition_is_disjoint_and_complete(self):
        data = generate_synthetic(13, 2, 1.0, 4, seed=3)
        train, val, test = split_classes(data, (0.6, 0.2, 0.2), seed=1)
        groups = [set(train.class_ids), set(val.class_ids), set(test.class_ids)]
        assert groups[0] | groups[1] | groups[2] == set(data.class_ids)
        assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])

    def test_deterministic(self):
        data = generate_synthetic(9, 2, 1.0, 4, seed=4)
        a = split_classes(data, (0.5, 0.25, 0.25), seed=5)
        b = split_classes(data, (0.5, 0.25, 0.25), seed=5)
        assert a[0].class_ids == b[0].class_ids

    def test_nonzero_fraction_needs_a_class(self):
        data = generate_synthetic(2, 2, 1.0, 4, seed=5)
        with pytest.raises(DataError, match="too few classes"):
            split_classes(data, (0.9, 0.05, 0.05), seed=0)

    def test_fractions_must_sum_to_one(self):
        data = generate_synthetic(4, 2, 1.0, 4, seed=6)
        with pytest.raises(DataError, match="sum to 1"):
            split_classes(data, (0.5, 0.2, 0.2), seed=0)


class TestSampleEpisode:
    def test_paper_shape_four_way_one_shot(self):
        data = generate_synthetic(10, 3, 1.0, 15, seed=7)
        episode = sample_episode(data, 4, 1, 10, stream(0, "ep"))
        assert len(episode.support_y) == 4
        assert len(episode.query_y) == 40
        assert sorted(set(episode.support_y)) == [0, 1, 2, 3]

    def test_support_query_disjoint(self):
        data = generate_synthetic(6, 2, 1.0, 12, seed=8)
        for i in range(20):
            episode = sample_episode(data, 3, 2, 4, stream(i, "disjoint"))
            support_rows = {tuple(x) for x in episode.support_x}
            query_rows = {tuple(x) for x in episode.query_x}
            assert not support_rows & query_rows

    def test_same_stream_same_episode(self):
        data = generate_synthetic(6, 2, 1.0, 12, seed=9)
        a = sample_episode(data, 3, 2, 4, stream(3, "det"))
        b = sample_episode(data, 3, 2, 4, stream(3, "det"))
        np.testing.assert_array_equal(a.support_x, b.support_x)
        assert a.class_ids == b.class_ids

    def test_remap_is_sorted_bijection(self):
        data = generate_synthetic(9, 2, 1.0, 10, seed=10)
        episode = sample_episode(data, 4, 1, 2, stream(4, "remap"))
        assert episode.class_ids == tuple(sorted(episode.class_ids))
        for new_label, class_id in enumerate(episode.class_ids):
            original = data.features[data.labels == class_id]
            for row in episode.support_x[episode.support_y == new_label]:
                assert any(np.array_equal(row, orig) for orig in original)

    def test_two_class_minimal(self):
        data = generate_synthetic(4, 2, 1.0, 6, seed=13)
        episode = sample_episode(data, 2, 1, 2, stream(7, "min"))
        assert len(episode.support_y) == 2

    def test_shots_floor(self):
        data = generate_synthetic(5, 2, 1.0, 10, seed=14)
        with pytest.raises(DataError, match="at least one"):
            sample_episode(data, 2, 0, 2, stream(9, "bad"))

    def test_skips_small_classes(self):
        features = np.vstack([np.zeros((8, 2)), np.ones((8, 2)), 2 * np.ones((2, 2))])
        labels = np.array([0] * 8 + [1] * 8 + [2] * 2)
        data = LabeledDataset(features=features, labels=labels)
        episode = sample_episode(data, 2, 2, 3, stream(10, "skip"))
        assert 2 not in episode.class_ids

    def test_not_enough_classes(self):
        data = generate_synthetic(3, 2, 1.0, 4, seed=15)
        with pytest.raises(DataError, match="need 4"):
            sample_episode(data, 4, 1, 2, stream(11, "few"))


class TestStackEpisodes:
    """The oracles' stacking of per-task episodes, which the chunk decoders must match."""

    def test_leading_task_axis(self):
        data = generate_synthetic(10, 3, 1.0, 15, seed=7)
        episodes = [sample_episode(data, 4, 2, 5, stream(0, "stack", i)) for i in range(3)]
        stacked = loop_episodes.stack_episodes(episodes)
        assert stacked.num_classes == episodes[0].num_classes == 4
        assert stacked.class_ids.shape == (3, 4)
        for name, shape in [("support_x", (3, 8, 3)), ("support_y", (3, 8)),
                            ("query_x", (3, 20, 3)), ("query_y", (3, 20))]:
            got = getattr(stacked, name)
            assert got.shape == shape and got.dtype == getattr(episodes[0], name).dtype
            for i, episode in enumerate(episodes):
                assert got[i].tobytes() == getattr(episode, name).tobytes()
        for i, episode in enumerate(episodes):
            assert tuple(stacked.class_ids[i]) == episode.class_ids

    @pytest.mark.parametrize("ways, shots, query", [(3, 2, 5), (4, 1, 5), (4, 2, 4)])
    def test_unequal_shapes_rejected(self, ways, shots, query):
        data = generate_synthetic(10, 3, 1.0, 15, seed=7)
        episodes = [sample_episode(data, 4, 2, 5, stream(0, "stack")),
                    sample_episode(data, ways, shots, query, stream(1, "stack"))]
        with pytest.raises(ValueError):
            loop_episodes.stack_episodes(episodes)


class TestMatchesLoop:
    """One episode against the class-by-class row decode of ``loop_episodes``."""

    @staticmethod
    def uneven_dataset():
        # 7 classes of 4 to 16 examples: thresholds of 5 and 10 keep 6 and 3 of them
        sizes = [16, 4, 12, 5, 10, 7, 9]
        labels = np.repeat(np.arange(len(sizes)), sizes)
        features = stream(0, "uneven").standard_normal((len(labels), 3))
        return LabeledDataset(features=features, labels=labels)

    def test_same_draws(self):
        data = self.uneven_dataset()
        # (ways, shots, query), with the two thresholds 5 and 10 alternating
        # on one dataset's cache
        cases = [(3, 2, 3), (3, 4, 6), (4, 1, 4), (2, 7, 3)]
        for seed in range(200):
            ways, shots, query = cases[seed % len(cases)]
            rng = stream(seed, "oracle")
            copied = copy.deepcopy(rng)
            doubles = copied.random(ways + 2 * ways * (shots + query))
            got = sample_episode(data, ways, shots, query, rng)
            expected = loop_episodes.decode_row(data, ways, shots, query, doubles)
            assert type(got.class_ids) is tuple
            assert all(type(c) is int for c in got.class_ids)
            assert got.class_ids == tuple(expected.class_ids.tolist())
            for name in ("support_x", "support_y", "query_x", "query_y"):
                a, b = getattr(got, name), getattr(expected, name)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            assert rng.random() == copied.random()  # left just after the decoded doubles
        assert data.eligible_classes(5) == (0, 2, 3, 4, 5, 6)
        assert data.eligible_classes(10) == (0, 2, 4)


class TestSampleEpisodes:
    """The chunk draw against one row's doubles at a time, stacked (``loop_episodes``)."""

    @staticmethod
    def assert_same(got, expected):
        for f in fields(Episode):
            a, e = getattr(got, f.name), getattr(expected, f.name)
            assert a.dtype == e.dtype and a.shape == e.shape, f.name
            assert a.tobytes() == e.tobytes(), f.name

    def test_same_episodes_as_per_task_draws(self):
        data = TestMatchesLoop.uneven_dataset()  # classes of 16, 4, 12, 5, 10, 7 and 9
        # (ways, shots, query): 5 or 10 examples per class, where one class has
        # exactly that many; 3 classes for 3 ways and 6 for 6 make the first
        # draw's range [0, 0]
        cases = [(3, 2, 3), (3, 4, 6), (4, 1, 4), (2, 7, 3), (6, 1, 4), (2, 1, 1)]
        rows = [np.arange(33)[:, None], np.stack([np.full(32, 4), np.arange(32)], axis=1),
                np.array([[2**40, 0]]), np.zeros((5, 0), dtype=np.intp)]
        checked = 0
        for seed in range(12):
            for ways, shots, query in cases:
                for indices in rows:
                    got = sample_episodes(data, ways, shots, query, seed, "decode", indices)
                    self.assert_same(got, loop_episodes.sample_episodes(
                        data, ways, shots, query, seed, "decode", indices))
                    checked += len(indices)
        assert checked >= 2000

    @pytest.mark.parametrize("per_class", [40, 2000])
    def test_draws_do_not_grow_with_the_pools(self, per_class, monkeypatch):
        # ways + 2·ways·need doubles a task whatever the pool size: choosing
        # examples by the order of doubles over a whole pool would read O(pool)
        counts = []

        def recording(master_seed, label, indices, count):
            counts.append(count)
            return seeding.uniforms(master_seed, label, indices, count)

        monkeypatch.setattr(episodes, "uniforms", recording)
        ways, shots, query = 5, 2, 3
        data = generate_synthetic(8, 2, 1.0, per_class, seed=1)
        got = sample_episodes(data, ways, shots, query, 3, "pool", np.arange(16)[:, None])
        assert counts == [ways + 2 * ways * (shots + query)]
        picked = np.concatenate([got.support_x, got.query_x], axis=1)
        for task in picked:
            assert len(np.unique(task, axis=0)) == len(task)

    def test_support_is_uniform_over_a_full_class(self):
        # with need = pool, Floyd's first step draws in [0, 0]: only the
        # shuffle by the class's next doubles moves example 0 out of the support
        data = LabeledDataset(features=np.arange(10, dtype=float)[:, None],
                              labels=np.repeat([0, 1], 5))
        got = sample_episodes(data, 2, 1, 4, 5, "full", np.arange(20_000)[:, None])
        counts = np.bincount(got.support_x[:, 0, 0].astype(int), minlength=5)
        assert counts.min() > 3_700 and counts.max() < 4_300  # 4,000 expected, SD 57

    def test_same_errors(self):
        data = TestMatchesLoop.uneven_dataset()
        for args in [(4, 7, 3), (2, 0, 2), (2, 1, 0)]:
            with pytest.raises(DataError) as chunk:
                sample_episodes(data, *args, 1, "err", [[0]])
            with pytest.raises(DataError) as one:
                sample_episode(data, *args, stream(1, "err", 0))
            assert str(chunk.value) == str(one.value)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_small_file(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1.0,2.0,cat\n0.5,1.5,dog\n3,4,cat\n")
        data = load_csv(path, "label")
        assert data.features.shape == (3, 2)
        np.testing.assert_array_equal(data.labels, [0, 1, 0])

    def test_label_ids_first_appearance(self, tmp_path):
        path = self.write(tmp_path, "x,label\n1,dog\n2,cat\n3,dog\n4,emu\n")
        data = load_csv(path, "label")
        np.testing.assert_array_equal(data.labels, [0, 1, 0, 2])

    def test_label_column_position_free(self, tmp_path):
        path = self.write(tmp_path, "label,x,y\nm,1,2\nn,3,4\n")
        data = load_csv(path, "label")
        np.testing.assert_array_equal(data.features, [[1, 2], [3, 4]])

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DataError, match="header"):
            load_csv(path, "label")

    def test_no_data_rows(self, tmp_path):
        path = self.write(tmp_path, "a,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "label")

    def test_ragged_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1,2,x\n1,2\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path, "label")

    def test_non_numeric_feature_reports_line(self, tmp_path):
        path = self.write(tmp_path, "a,label\noops,x\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_row_and_column(self, tmp_path, cell):
        path = self.write(tmp_path, f"a,label,b\n1,x,2\n3,y,{cell}\n")
        with pytest.raises(DataError, match=f"row 3, column 'b': non-finite value {cell}"):
            load_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="no column"):
            load_csv(path, "label")
