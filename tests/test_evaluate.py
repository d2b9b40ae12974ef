"""Evaluation of stacked chunks, clean validation and baseline cells against per-task loops."""

import tracemalloc

import numpy as np
import pytest

import loop_evaluate
from loop_episodes import stack_episodes
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


def chunks_of(episodes, params=PARAMS):
    """The episodes stacked as the producers stack them, embedded unless ``params`` is None."""
    chunks = [stack_episodes(episodes[i : i + mt.EVAL_CHUNK])
              for i in range(0, len(episodes), mt.EVAL_CHUNK)]
    return [c if params is None else mt.embed_episodes(params, c) for c in chunks]


def mixed_chunks():
    """A caller's raw chunks of different support size, class count and query size."""
    runs = [make_episodes(5, label="a"), make_episodes(32, shots=1, label="b"),
            make_episodes(8, shots=1, label="c"), make_episodes(3, ways=4, label="d"),
            make_episodes(2, query=5, label="e"), make_episodes(2, label="f")]
    return [stack_episodes(run) for run in runs], [e for run in runs for e in run]


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


@pytest.fixture()
def encoder_passes(monkeypatch):
    """Row count of every encoder pass of ``embed_episodes``, in order."""
    passes = []

    def counted(x, params):
        passes.append(len(x))
        return forward(x, params)

    monkeypatch.setattr(mt, "forward", counted)
    return passes


class TestEmbedEpisodes:
    @pytest.mark.parametrize("ways, shots, query", [(3, 2, 4), (4, 1, 5)])
    def test_one_pass_and_input_kept(self, ways, shots, query, encoder_passes):
        episodes = make_episodes(7, ways=ways, shots=shots, query=query)
        chunk = stack_episodes(episodes)
        raw = chunk.support_x.copy(), chunk.query_x.copy()
        out = mt.embed_episodes(PARAMS, chunk)
        assert encoder_passes == [7 * ways * (shots + query)]
        assert chunk.support_x.tobytes() == raw[0].tobytes()
        assert chunk.query_x.tobytes() == raw[1].tobytes()
        assert out.support_x.shape == (7, ways * shots, 4)
        assert out.query_x.shape == (7, ways * query, 4)
        for i, episode in enumerate(episodes):
            assert out.support_x[i].tobytes() == forward(episode.support_x, PARAMS).tobytes()
            assert out.query_x[i].tobytes() == forward(episode.query_x, PARAMS).tobytes()
            assert tuple(out.class_ids[i]) == episode.class_ids
            assert out.support_y[i].tobytes() == episode.support_y.tobytes()
            assert out.query_y[i].tobytes() == episode.query_y.tobytes()

    @pytest.mark.parametrize("ways, shots, query", [(3, 2, 4), (4, 1, 5)])
    def test_passes_of_whole_tasks_within_the_row_bound(self, ways, shots, query,
                                                        encoder_passes):
        # two full passes and a one-task last pass, each row with the bits of
        # one forward call over its own task's rows
        rows = ways * (shots + query)
        per_pass = mt.ENCODE_ROWS // rows
        episodes = make_episodes(2 * per_pass + 1, ways=ways, shots=shots, query=query)
        out = mt.embed_episodes(PARAMS, stack_episodes(episodes))
        assert encoder_passes == [per_pass * rows] * 2 + [rows]
        assert max(encoder_passes) <= mt.ENCODE_ROWS
        for i, episode in enumerate(episodes):
            u = forward(np.concatenate([episode.support_x, episode.query_x]), PARAMS)
            assert out.support_x[i].tobytes() == u[: ways * shots].tobytes()
            assert out.query_x[i].tobytes() == u[ways * shots :].tobytes()

    def test_task_over_the_row_bound_is_a_pass_of_its_own(self, encoder_passes, monkeypatch):
        episodes = make_episodes(3)  # 18 rows each
        monkeypatch.setattr(mt, "ENCODE_ROWS", 10)
        out = mt.embed_episodes(PARAMS, stack_episodes(episodes))
        assert encoder_passes == [18, 18, 18]
        for i, episode in enumerate(episodes):
            assert out.support_x[i].tobytes() == forward(episode.support_x, PARAMS).tobytes()
            assert out.query_x[i].tobytes() == forward(episode.query_x, PARAMS).tobytes()


class TestMatchesLoop:
    """Scores and draws against the per-task forms of ``loop_evaluate``."""

    C = mt.EVAL_CHUNK

    @pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 2 * C + 3],
                             ids=["1", "chunk-1", "chunk", "chunk+1", "2chunks+3"])
    def test_evaluate_same_scores_and_profiles(self, n, adapt_batches):
        episodes = make_episodes(n)
        accuracies, recovery, kinds, q = loop_evaluate.evaluate(PARAMS, episodes, DIST, HYPER,
                                                                3, 5, "t")
        adapt_batches.clear()
        result = mt.evaluate(chunks_of(episodes), DIST, HYPER, 3, master_seed=5,
                             stream_label="t")
        assert result.accuracies.tobytes() == accuracies.tobytes()
        assert result.recovery.tobytes() == recovery.tobytes()
        assert result.annotator_kinds.tobytes() == kinds.tobytes()
        assert result.annotator_q.tobytes() == q.tobytes()
        assert (result.mean, result.stderr) == mt.mean_and_stderr(accuracies)
        full, rest = divmod(n, mt.EVAL_CHUNK)
        assert adapt_batches == [mt.EVAL_CHUNK] * full + ([rest] if rest else [])

    def test_chunks_of_different_shapes(self, adapt_batches):
        chunks, episodes = mixed_chunks()
        accuracies, recovery, kinds, q = loop_evaluate.evaluate(PARAMS, episodes, DIST, HYPER,
                                                                3, 5)
        adapt_batches.clear()
        result = mt.evaluate([mt.embed_episodes(PARAMS, c) for c in chunks], DIST, HYPER, 3,
                             master_seed=5)
        assert result.accuracies.tobytes() == accuracies.tobytes()
        assert result.recovery.tobytes() == recovery.tobytes()
        assert result.annotator_kinds.tobytes() == kinds.tobytes()
        assert result.annotator_q.tobytes() == q.tobytes()
        assert adapt_batches == [5, 32, 8, 3, 2, 2]

    def test_clean_validation_branch(self, adapt_batches):
        full = mt.EVAL_CHUNK + 8
        episodes = make_episodes(full) + make_episodes(3, shots=1, label="b")
        chunks = chunks_of(episodes[:full], None) + [stack_episodes(episodes[full:])]
        config = mt.MetaConfig(
            ways=3, shots=2, query_per_class=4, num_annotators=3, pseudo_dist=DIST,
            hyper=HYPER, encoder=EncoderConfig(5, (8,), 4, init_seed=3),
            pseudo_annotation=False,
        )
        expected = loop_evaluate.clean_validation_accuracy(PARAMS, episodes, HYPER)
        adapt_batches.clear()
        assert mt._validation_accuracy(PARAMS, chunks, config) == expected
        assert adapt_batches == [mt.EVAL_CHUNK, 8, 3]

    @pytest.mark.parametrize("method", ["mv", "ds", "proto-mv", "proto-ds"])
    def test_baseline_cell(self, method):
        params = PARAMS if method.startswith("proto-") else None
        episodes = make_episodes(70, shots=3)
        chunks = chunks_of(episodes, None)
        for r in (1, 4):
            self.check_baseline(params, chunks, episodes, method, r)

    def test_baseline_cell_chunks_of_different_shapes(self):
        chunks, episodes = mixed_chunks()
        for method in ("mv", "proto-ds"):
            params = PARAMS if method.startswith("proto-") else None
            self.check_baseline(params, chunks, episodes, method, 3)

    @staticmethod
    def check_baseline(params, chunks, episodes, method, r):
        """``evaluate`` with a baseline fit on the raw ``chunks`` scores as the per-task loop."""
        fit = baselines.fit_dawid_skene if method.endswith("ds") else baselines.fit_majority_vote
        embedded = [c if params is None else mt.embed_episodes(params, c) for c in chunks]
        result = mt.evaluate(embedded, DIST, HYPER, r, master_seed=9, stream_label="cell",
                             fit=fit)
        accuracy, recovery = loop_evaluate.baseline_scores(params, episodes, method, r, DIST,
                                                           HYPER, 9, "cell")
        assert result.accuracies.tobytes() == accuracy.tobytes()
        assert result.recovery.tobytes() == recovery.tobytes()


class TestStackSize:
    """A task's results do not depend on the size of the stack it is scored in."""

    @pytest.mark.parametrize("fit", [mt.fit_em, baselines.fit_majority_vote,
                                     baselines.fit_dawid_skene], ids=["em", "mv", "ds"])
    def test_stack_size_changes_no_output_bit(self, fit, monkeypatch):
        episodes = make_episodes(200, shots=5, query=10)
        results = []
        for size, stacks in ((128, 2), (256, 1)):
            monkeypatch.setattr(mt, "EVAL_CHUNK", size)
            chunks = chunks_of(episodes)
            assert len(chunks) == stacks
            results.append(mt.evaluate(chunks, DIST, HYPER, 7, master_seed=5,
                                       stream_label="stack", fit=fit))
        split, whole = results
        for name in ("accuracies", "recovery", "annotator_kinds", "annotator_q"):
            assert getattr(split, name).tobytes() == getattr(whole, name).tobytes(), name


def transient_peak(num_tasks):
    """Traced peak of one ``evaluate`` call above the memory its result still holds."""
    chunks = chunks_of(make_episodes(num_tasks, shots=5, query=10))
    mt.evaluate(chunks[:1], DIST, HYPER, 7, master_seed=5)  # warm any caches
    tracemalloc.start()
    try:
        result = mt.evaluate(chunks, DIST, HYPER, 7, master_seed=5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.accuracies) == num_tasks
    return peak - held


def transient_embed_peak(num_tasks):
    """Traced peak of one ``embed_episodes`` call above the memory its result still holds."""
    chunk = stack_episodes(make_episodes(num_tasks, shots=5, query=10))
    mt.embed_episodes(PARAMS, chunk)  # warm any caches
    tracemalloc.start()
    try:
        out = mt.embed_episodes(PARAMS, chunk)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out.support_x) == num_tasks
    return peak - held


class TestMemory:
    # Scoring is chunked, so what evaluation holds besides its result is one
    # chunk's arrays, whatever the task count.  Unchunked, 8 chunks of tasks
    # hold about 8 times the one-chunk peak.
    TOLERANCE = 1.25
    # traced transient per task of one full stack at 5 shots and 7 annotators,
    # as measured at EVAL_CHUNK = 256 with numpy 2.4
    STACK_BYTES_PER_TASK = 6055

    def test_transient_peak_flat_in_task_count(self):
        one = transient_peak(mt.EVAL_CHUNK)
        eight = transient_peak(8 * mt.EVAL_CHUNK)
        assert eight <= self.TOLERANCE * one, (one, eight)

    def test_embedding_peak_flat_in_task_count(self):
        # the encoder's activations grow per row, and each pass holds at most
        # ENCODE_ROWS rows, whatever the chunk's task count
        one = transient_embed_peak(mt.EVAL_CHUNK)
        eight = transient_embed_peak(8 * mt.EVAL_CHUNK)
        assert eight <= self.TOLERANCE * one, (one, eight)

    def test_transient_per_task_of_a_full_stack(self):
        # the tests above compare chunk counts at one stack size, so they cannot
        # see a stack whose working set grows
        per_task = transient_peak(mt.EVAL_CHUNK) / mt.EVAL_CHUNK
        assert per_task <= self.TOLERANCE * self.STACK_BYTES_PER_TASK, per_task
