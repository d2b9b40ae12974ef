"""Chunked evaluation, clean validation and baseline cells against their per-task loops."""

import tracemalloc

import numpy as np
import pytest

import loop_evaluate
from crowdmeta import baselines, em
from crowdmeta import metatrain as mt
from crowdmeta.annotators import AnnotatorDistribution
from crowdmeta.encoder import EncoderConfig, forward, init_params
from crowdmeta.episodes import generate_synthetic, sample_episode
from crowdmeta.seeding import stream

EHS = AnnotatorDistribution.expert_hammer_spammer
DIST = EHS(0.1, 0.7, 0.2)
HYPER = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=3)
DATA = generate_synthetic(num_classes=8, dim=5, cluster_spread=0.5, examples_per_class=30,
                          seed=11)
PARAMS = init_params(EncoderConfig(5, (8,), 4, init_seed=3))


def make_episodes(n, ways=3, shots=2, query=4, label="episode"):
    return [sample_episode(DATA, ways, shots, query, stream(7, label, i)) for i in range(n)]


def mixed_episodes():
    """Runs of different support size, class count and query size."""
    return (make_episodes(5, label="a")
            + make_episodes(40, shots=1, label="b")
            + make_episodes(3, ways=4, label="c")
            + make_episodes(2, query=5, label="d")
            + make_episodes(2, label="e"))


@pytest.fixture()
def adapt_batches(monkeypatch):
    """Task count of every ``em.adapt`` call, in order."""
    batches = []
    original = em.adapt

    def counted(support, hyper):
        batches.append(len(support.embeddings) if support.embeddings.ndim == 3 else 1)
        return original(support, hyper)

    monkeypatch.setattr(em, "adapt", counted)
    return batches


class TestEmbedEpisodes:
    def test_one_pass_per_chunk_and_input_kept(self, monkeypatch):
        episodes = mixed_episodes()
        raw = [(e.support_x.copy(), e.query_x.copy()) for e in episodes]
        passes = []

        def counted(x, params):
            passes.append(len(x))
            return forward(x, params)

        monkeypatch.setattr(mt, "forward", counted)
        embedded = mt.embed_episodes(PARAMS, episodes)
        assert len(passes) == 6  # the chunks of 5, 32, 8, 3, 2 and 2 tasks
        for episode, out, (support_x, query_x) in zip(episodes, embedded, raw, strict=True):
            assert episode.support_x.tobytes() == support_x.tobytes()
            assert episode.query_x.tobytes() == query_x.tobytes()
            assert out.support_x.tobytes() == forward(support_x, PARAMS).tobytes()
            assert out.query_x.tobytes() == forward(query_x, PARAMS).tobytes()
            assert (out.class_ids, out.support_y.tobytes(), out.query_y.tobytes()) == (
                episode.class_ids, episode.support_y.tobytes(), episode.query_y.tobytes())


class TestMatchesLoop:
    """Scores and draws against the per-task forms of ``loop_evaluate``."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 67])
    def test_evaluate_same_scores_and_profiles(self, n, adapt_batches):
        episodes = make_episodes(n)
        accuracies, recovery, kinds, q = loop_evaluate.evaluate(PARAMS, episodes, DIST, HYPER,
                                                                3, 5, "t")
        adapt_batches.clear()
        result = mt.evaluate(mt.embed_episodes(PARAMS, episodes), DIST, HYPER, 3, master_seed=5,
                             stream_label="t")
        assert result.accuracies.tobytes() == accuracies.tobytes()
        assert result.recovery.tobytes() == recovery.tobytes()
        assert result.annotator_kinds.tobytes() == kinds.tobytes()
        assert result.annotator_q.tobytes() == q.tobytes()
        assert (result.mean, result.stderr) == mt.mean_and_stderr(accuracies)
        full, rest = divmod(n, mt.EVAL_CHUNK)
        assert adapt_batches == [mt.EVAL_CHUNK] * full + ([rest] if rest else [])

    def test_mixed_shapes_chunk_at_every_change(self, adapt_batches):
        episodes = mixed_episodes()
        accuracies, recovery, kinds, q = loop_evaluate.evaluate(PARAMS, episodes, DIST, HYPER,
                                                                3, 5)
        adapt_batches.clear()
        result = mt.evaluate(mt.embed_episodes(PARAMS, episodes), DIST, HYPER, 3, master_seed=5)
        assert result.accuracies.tobytes() == accuracies.tobytes()
        assert result.recovery.tobytes() == recovery.tobytes()
        assert result.annotator_kinds.tobytes() == kinds.tobytes()
        assert result.annotator_q.tobytes() == q.tobytes()
        assert adapt_batches == [5, 32, 8, 3, 2, 2]

    def test_clean_validation_branch(self, adapt_batches):
        episodes = make_episodes(40) + make_episodes(3, shots=1, label="b")
        config = mt.MetaConfig(
            ways=3, shots=2, query_per_class=4, num_annotators=3, pseudo_dist=DIST,
            hyper=HYPER, encoder=EncoderConfig(5, (8,), 4, init_seed=3),
            pseudo_annotation=False,
        )
        expected = loop_evaluate.clean_validation_accuracy(PARAMS, episodes, HYPER)
        adapt_batches.clear()
        assert mt._validation_accuracy(PARAMS, episodes, config) == expected
        assert adapt_batches == [32, 8, 3]

    @pytest.mark.parametrize("method", ["mv", "ds", "proto-mv", "proto-ds"])
    def test_baseline_cell(self, method):
        params = PARAMS if method.startswith("proto-") else None
        episodes = make_episodes(70, shots=3)
        for r in (1, 4):
            self.check_baseline(params, episodes, method, r)

    def test_baseline_cell_mixed_shapes(self):
        episodes = mixed_episodes()
        for method in ("mv", "proto-ds"):
            params = PARAMS if method.startswith("proto-") else None
            self.check_baseline(params, episodes, method, 3)

    @staticmethod
    def check_baseline(params, episodes, method, r):
        """``evaluate`` with a baseline fit scores as the per-task baseline loop."""
        fit = baselines.fit_dawid_skene if method.endswith("ds") else baselines.fit_majority_vote
        embedded = episodes if params is None else mt.embed_episodes(params, episodes)
        result = mt.evaluate(embedded, DIST, HYPER, r, master_seed=9, stream_label="cell",
                             fit=fit)
        accuracy, recovery = loop_evaluate.baseline_scores(params, episodes, method, r, DIST,
                                                           HYPER, 9, "cell")
        assert result.accuracies.tobytes() == accuracy.tobytes()
        assert result.recovery.tobytes() == recovery.tobytes()


def transient_peak(num_tasks):
    """Traced peak of one ``evaluate`` call above the memory its result still holds."""
    episodes = mt.embed_episodes(PARAMS, make_episodes(num_tasks, shots=5, query=10))
    mt.evaluate(episodes[:2], DIST, HYPER, 7, master_seed=5)  # warm any caches
    tracemalloc.start()
    try:
        result = mt.evaluate(episodes, DIST, HYPER, 7, master_seed=5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.accuracies) == num_tasks
    return peak - held


class TestMemory:
    # Scoring is chunked, so what evaluation holds besides its result is one
    # chunk's arrays, whatever the task count.  Unchunked, 8 chunks of tasks
    # hold about 8 times the one-chunk peak.
    TOLERANCE = 1.25

    def test_transient_peak_flat_in_task_count(self):
        one = transient_peak(mt.EVAL_CHUNK)
        eight = transient_peak(8 * mt.EVAL_CHUNK)
        assert eight <= self.TOLERANCE * one, (one, eight)

