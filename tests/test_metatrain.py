"""Query loss, meta-gradient, Adam, the training loop, and evaluation."""

import logging
import math

import numpy as np
import pytest

import loop_annotators
import loop_em
import loop_episodes
import loop_metatrain
import loop_seeding
from loop_episodes import stack_episodes
from crowdmeta import em
from crowdmeta import metatrain as mt
from crowdmeta.annotators import (
    AnnotatorDistribution,
    annotate,
    pseudo_annotate,
    sample_annotator_pool,
)
from crowdmeta.encoder import EncoderConfig, EncoderParams, forward, init_params
from crowdmeta.episodes import Episode, generate_synthetic
from crowdmeta.seeding import stream
from crowdmeta.verify import episode_loss_value

EHS = AnnotatorDistribution.expert_hammer_spammer
HYPER = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=2)


def small_config(**overrides):
    defaults = dict(
        ways=3,
        shots=2,
        query_per_class=4,
        num_annotators=3,
        pseudo_dist=EHS(0.1, 0.7, 0.2),
        hyper=HYPER,
        encoder=EncoderConfig(5, (8,), 4, init_seed=0),
        max_iterations=30,
        validation_interval=10,
        patience=3,
        val_episodes_per_task=2,
        master_seed=7,
    )
    defaults.update(overrides)
    return mt.MetaConfig(**defaults)


def toy_classifier(prototypes, class_prior):
    return em.AdaptedClassifier(
        prototypes=np.asarray(prototypes, dtype=float),
        class_prior=np.asarray(class_prior, dtype=float),
        confusions=(),
        responsibilities=np.ones((1, len(class_prior))) / len(class_prior),
    )


def random_episode(seed, ways=3, shots=2, qpc=4, dim=5):
    rng = stream(seed, "mt-episode")
    support_y = np.repeat(np.arange(ways), shots)
    query_y = np.repeat(np.arange(ways), qpc)
    centers = rng.standard_normal((ways, dim)) * 2.0
    return Episode(
        class_ids=tuple(range(ways)),
        support_x=centers[support_y] + rng.standard_normal((len(support_y), dim)),
        support_y=support_y,
        query_x=centers[query_y] + rng.standard_normal((len(query_y), dim)),
        query_y=query_y,
    )


class TestQueryLoss:
    def test_collapsed_prototypes_give_log_k(self):
        classifier = toy_classifier(np.ones((4, 3)), np.full(4, 0.25))
        u = np.random.default_rng(0).standard_normal((6, 3))
        labels = np.array([0, 1, 2, 3, 0, 1])
        assert mt.query_loss(classifier, u, labels) == pytest.approx(math.log(4), rel=1e-15)

    def test_separation_decreases_loss(self):
        losses = []
        for gap in (1.0, 3.0, 9.0):
            classifier = toy_classifier([[0.0, 0.0], [gap, 0.0]], [0.5, 0.5])
            losses.append(mt.query_loss(classifier, np.zeros((1, 2)), np.array([0])))
        assert losses[0] > losses[1] > losses[2]
        assert all(loss < math.log(2) for loss in losses)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(1)
        protos = rng.standard_normal((3, 4))
        pi = rng.dirichlet(np.ones(3))
        classifier = toy_classifier(protos, pi)
        u = rng.standard_normal((7, 4))
        labels = rng.integers(3, size=7)
        naive = 0.0
        for n in range(7):
            scores = [
                -0.5 * float(np.sum((u[n] - protos[k]) ** 2)) + math.log(pi[k])
                for k in range(3)
            ]
            naive += math.log(sum(math.exp(s) for s in scores)) - scores[labels[n]]
        naive /= 7
        assert mt.query_loss(classifier, u, labels) == pytest.approx(naive, rel=1e-12)

    def test_empty_query_rejected(self):
        classifier = toy_classifier(np.zeros((2, 3)), [0.5, 0.5])
        with pytest.raises(ValueError, match="nonempty"):
            mt.query_loss(classifier, np.zeros((0, 3)), np.array([], dtype=int))

    @pytest.mark.parametrize("queries, labels", [(7, 1), (1, 7), (7, 6)])
    def test_label_count_mismatch_rejected(self, queries, labels):
        # one label per query: a single label must not broadcast over the queries
        classifier = toy_classifier(np.zeros((2, 3)), [0.5, 0.5])
        with pytest.raises(ValueError, match="do not match query embeddings"):
            mt.query_loss(classifier, np.zeros((queries, 3)), np.zeros(labels, dtype=int))

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_the_classes_rejected(self, label):
        # -1 would score the last class, and K would index past it
        classifier = toy_classifier(np.eye(3), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match=r"query labels must lie in \[0, 3\)"):
            mt.query_loss(classifier, np.zeros((2, 3)), np.array([0, label]))


def loss_pair(episode, annotations, config, hyper):
    """``episode_loss_and_grad``'s loss and ``episode_loss_value`` on one episode."""
    params = init_params(config)
    args = (episode.support_x, annotations, episode.num_classes, episode.query_x, episode.query_y, hyper)
    loss, _ = mt.episode_loss_and_grad(params, *args)
    return loss, episode_loss_value(params.flatten(), config, *args)


class TestUnrolledGraph:
    """The unrolled EM of ``episode_loss_and_grad``: its loss and its gradient."""

    def test_forward_matches_plain_adaptation(self):
        for seed in range(5):
            episode = random_episode(seed)
            annotations, _ = pseudo_annotate(
                episode.support_y, 3, EHS(0.1, 0.7, 0.2), 3, stream(seed, "mt-ann")
            )
            config = EncoderConfig(5, (8,), 4, init_seed=seed)
            loss, value = loss_pair(episode, annotations, config, HYPER)
            assert loss == value

    def test_forward_matches_on_sparse_annotations(self):
        episode = random_episode(11)
        maps = [dict(list({0: int(y), 1: int(y), 2: 0}.items())[: 1 + n % 3])
                for n, y in enumerate(episode.support_y)]
        annotations = em.label_matrix(maps, 3)
        config = EncoderConfig(5, (6,), 4, init_seed=3)
        loss, value = loss_pair(episode, annotations, config, HYPER)
        assert loss == value

    def test_graph_loss_matches_numpy_loss(self):
        # one EM step (no E step to reverse) and a deeper unroll
        episode = random_episode(21)
        annotations, _ = pseudo_annotate(
            episode.support_y, 3, EHS(0.1, 0.7, 0.2), 3, stream(21, "ann")
        )
        config = EncoderConfig(5, (8,), 4, init_seed=2)
        for em_steps in (1, 3):
            hyper = em.PriorHyperparams(em_steps=em_steps)
            loss, value = loss_pair(episode, annotations, config, hyper)
            assert loss == value

    @pytest.mark.parametrize("em_steps", [1, 2, 3])
    def test_sparse_labels_match_finite_differences(self, em_steps):
        # 30% of (example, annotator) pairs kept, plus a fifth annotator who
        # labels nothing and keeps the uniform prior-mean confusion
        episode = random_episode(40 + em_steps, ways=4, shots=3, qpc=3)
        rng = stream(40, "sparse", em_steps)
        _, confusions = sample_annotator_pool(EHS(0.2, 0.6, 0.2), 4, 4, rng)
        annotations = annotate(episode.support_y, confusions, rng, label_fraction=0.3)
        assert np.any((annotations >= 0).sum(axis=1) == 1)
        annotations = loop_em.with_silent_annotators(annotations, 5)
        config = EncoderConfig(5, (8,), 4, init_seed=em_steps)
        hyper = em.PriorHyperparams(em_steps=em_steps)
        args = (episode.support_x, annotations, 4, episode.query_x, episode.query_y, hyper)
        theta = init_params(config).flatten()
        _, grad = mt.episode_loss_and_grad(init_params(config), *args)
        for c in np.random.default_rng(em_steps).choice(theta.size, size=20, replace=False):
            step = 1e-5
            plus, minus = theta.copy(), theta.copy()
            plus[c] += step
            minus[c] -= step
            fd = (episode_loss_value(plus, config, *args)
                  - episode_loss_value(minus, config, *args)) / (2 * step)
            assert abs(fd - grad[c]) / max(1e-8, abs(fd), abs(grad[c])) < 1e-4


class TestBatchedGradient:
    """Four stacked episodes against the mean of four single-episode calls."""

    @staticmethod
    def batch(labels):
        episodes = [random_episode(60 + b, ways=4, shots=3, qpc=3) for b in range(4)]
        annotations = []
        for b, episode in enumerate(episodes):
            rng = stream(60, f"batched-{labels}", b)
            if labels == "clean":
                annotations.append(episode.support_y[:, None])
                continue
            # a fifth annotator labels nothing
            _, confusions = sample_annotator_pool(EHS(0.2, 0.6, 0.2), 4, 4, rng)
            fraction = 1.0 if labels == "dense" else 0.3
            labels_given = annotate(episode.support_y, confusions, rng, label_fraction=fraction)
            annotations.append(loop_em.with_silent_annotators(labels_given, 5))
        return episodes, np.stack(annotations)

    @pytest.mark.parametrize("em_steps", [1, 3])
    @pytest.mark.parametrize("labels", ["dense", "sparse", "clean"])
    def test_matches_mean_of_single_episodes(self, labels, em_steps):
        episodes, annotations = self.batch(labels)
        params = init_params(EncoderConfig(5, (8,), 4, init_seed=em_steps))
        hyper = em.PriorHyperparams(em_steps=em_steps)
        singles = [
            mt.episode_loss_and_grad(params, e.support_x, ann, 4, e.query_x, e.query_y, hyper)
            for e, ann in zip(episodes, annotations)
        ]
        loss, grad = mt.episode_loss_and_grad(
            params, np.stack([e.support_x for e in episodes]), annotations, 4,
            np.stack([e.query_x for e in episodes]), np.stack([e.query_y for e in episodes]),
            hyper,
        )
        mean_loss = np.mean([single[0] for single in singles])
        mean_grad = np.mean([single[1] for single in singles], axis=0)
        assert abs(loss - mean_loss) <= 1e-12 * abs(mean_loss)
        assert np.linalg.norm(grad - mean_grad) <= 1e-12 * np.linalg.norm(mean_grad)


class TestMetaGradient:
    """The training path: supports pseudo-annotated by the annotator draw, then the gradient."""

    @staticmethod
    def gradient(seed, config, params=None):
        """Episode ``seed``, its labels, its annotators (row (0,) of ``"pa"``), loss, gradient."""
        episode = random_episode(seed)
        params = init_params(config.encoder) if params is None else params
        labels, drawn = mt._draw_annotators(episode.support_y[None], config.pseudo_dist,
                                            config.num_annotators, 3, seed, "pa", [(0,)])
        loss, grad = mt.episode_loss_and_grad(params, episode.support_x, labels[0], 3,
                                              episode.query_x, episode.query_y, config.hyper)
        return episode, labels[0], drawn, loss, grad

    @staticmethod
    def assert_matches_finite_differences(config, seed, coordinates):
        episode, annotations, _, _, grad = TestMetaGradient.gradient(seed, config)
        theta = init_params(config.encoder).flatten()
        args = (config.encoder, episode.support_x, annotations, 3, episode.query_x,
                episode.query_y, config.hyper)
        for c in coordinates(theta.size):
            step = 1e-5
            plus, minus = theta.copy(), theta.copy()
            plus[c] += step
            minus[c] -= step
            fd = (episode_loss_value(plus, *args) - episode_loss_value(minus, *args)) / (2 * step)
            assert abs(fd - grad[c]) / max(1e-8, abs(fd), abs(grad[c])) < 1e-4

    def test_matches_finite_differences(self):
        config = small_config(hyper=em.PriorHyperparams(em_steps=2))
        self.assert_matches_finite_differences(
            config, 31, lambda n: np.random.default_rng(0).choice(n, size=12, replace=False))

    def test_converged_em_still_matches_finite_differences(self):
        # many EM steps: responsibilities and prototypes sit at a fixed point
        config = small_config(hyper=em.PriorHyperparams(em_steps=8))
        self.assert_matches_finite_differences(
            config, 32, lambda n: np.random.default_rng(1).choice(n, size=6, replace=False))

    def test_zero_weight_encoder_bias_gradient_vanishes(self):
        # with all embeddings identically zero every distance term is flat,
        # so the loss gradient w.r.t. the output bias is exactly zero
        config = small_config(encoder=EncoderConfig(5, (), 4, init_seed=0))
        params = EncoderParams(weights=[np.zeros((5, 4))], biases=[np.zeros(4)])
        _, _, _, loss, grad = self.gradient(33, config, params)
        np.testing.assert_array_equal(grad[-4:], 0.0)
        assert loss == pytest.approx(math.log(3), abs=0.3)

    def test_deterministic_given_seed(self):
        config = small_config()
        _, labels_a, drawn_a, loss_a, grad_a = self.gradient(34, config)
        _, labels_b, drawn_b, loss_b, grad_b = self.gradient(34, config)
        assert loss_a == loss_b
        np.testing.assert_array_equal(grad_a, grad_b)
        np.testing.assert_array_equal(labels_a, labels_b)
        assert drawn_a.confusions.tobytes() == drawn_b.confusions.tobytes()
        # the draw is the per-task pseudo-annotation of the same row's doubles
        truth = random_episode(34).support_y
        expected, confusions = pseudo_annotate(
            truth, 3, config.pseudo_dist, 3,
            loop_annotators.row_generator(34, "pa", (0,), 3, len(truth)))
        np.testing.assert_array_equal(labels_a, expected)
        assert drawn_a.confusions[0].tobytes() == np.stack(confusions).tobytes()

    def test_clean_path_digest(self):
        train, _ = make_tasks()
        config = small_config(pseudo_annotation=False, meta_batch=2)
        episodes, labels, digests = mt.training_block(train, config, range(1, 4))
        assert digests == ["clean"] * 3
        np.testing.assert_array_equal(labels, episodes.support_y[..., None])


class TestAdam:
    def test_zero_gradient_keeps_theta(self):
        config = small_config()
        state = mt.TrainState.from_params(init_params(config.encoder))
        before = state.theta.copy()
        mt.adam_update(state, np.zeros_like(state.theta), config)
        np.testing.assert_array_equal(state.theta, before)

    def test_first_step_closed_form(self):
        config = small_config(learning_rate=0.01)
        params = init_params(config.encoder)
        state = mt.TrainState.from_params(params)
        g = np.random.default_rng(2).standard_normal(state.theta.size)
        before = state.theta.copy()
        mt.adam_update(state, g, config)
        expected = before - 0.01 * g / (np.abs(g) + mt.ADAM_EPS)
        np.testing.assert_allclose(state.theta, expected, rtol=1e-12)

    def test_nonfinite_gradient_rejected(self):
        config = small_config()
        state = mt.TrainState.from_params(init_params(config.encoder))
        g = np.zeros_like(state.theta)
        g[0] = np.nan
        with pytest.raises(mt.NonFiniteGradientError):
            mt.adam_update(state, g, config)

    def test_shape_mismatch_rejected(self):
        config = small_config()
        state = mt.TrainState.from_params(init_params(config.encoder))
        with pytest.raises(ValueError, match="shape"):
            mt.adam_update(state, np.zeros(3), config)


def make_tasks():
    train = generate_synthetic(8, 5, 0.4, 30, seed=100)
    val = generate_synthetic(4, 5, 0.4, 30, seed=101)
    return train, val


class TestMetaTrain:
    def test_validation_accuracy_improves(self):
        train, val = make_tasks()
        config = small_config(max_iterations=250, validation_interval=50,
                              patience=10, learning_rate=3e-3)
        result = mt.meta_train([train], [val], config)
        first = result.val_history[0][1]
        assert result.best_val_accuracy > first - 1e-9
        assert result.best_val_accuracy > 0.5

    def test_log_rows_match_iterations(self):
        train, val = make_tasks()
        config = small_config(max_iterations=12, validation_interval=50)
        result = mt.meta_train([train], [val], config)
        assert [row.iteration for row in result.log] == list(range(1, 13))
        assert result.iterations_run == 12

    def test_early_stop_respects_patience(self):
        train, val = make_tasks()
        config = small_config(max_iterations=2000, validation_interval=5,
                              patience=2, learning_rate=1e-15)  # frozen in effect
        result = mt.meta_train([train], [val], config)
        # first validation sets the best; two non-improvements then stop
        assert result.stopped_early
        assert result.iterations_run == 15
        assert len(result.val_history) == 3

    def test_zero_learning_rate_forbidden(self):
        with pytest.raises(ValueError, match="learning_rate"):
            small_config(learning_rate=-1.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_forbidden(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            small_config(learning_rate=rate)

    def test_validations_logged_at_debug_level(self, caplog):
        train, val = make_tasks()
        config = small_config(max_iterations=2000, validation_interval=5,
                              patience=2, learning_rate=1e-15)  # stops after 3 validations
        with caplog.at_level(logging.DEBUG, logger="crowdmeta"):
            result = mt.meta_train([train], [val], config)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "crowdmeta" and r.levelno == logging.DEBUG]
        assert lines == [f"iteration {it}: validation accuracy {acc:.4f}, "
                         f"{bad} bad validations in a row"
                         for (it, acc), bad in zip(result.val_history, (0, 1, 2))]

    def test_ablation_runs_clean(self):
        train, val = make_tasks()
        config = small_config(max_iterations=10, pseudo_annotation=False)
        result = mt.meta_train([train], [val], config)
        assert all(row.pseudo_digest == "clean" for row in result.log)

    def test_clean_validation_scores_one_perfect_annotator(self):
        # without pseudo-annotation, validation adapts to the clean support
        # labels as the only annotator's and scores the query
        train, val = make_tasks()
        config = small_config(max_iterations=10, validation_interval=10,
                              val_episodes_per_task=5, pseudo_annotation=False)
        result = mt.meta_train([train], [val], config)
        params = result.final_params  # the parameters validated at iteration 10
        accuracies = []
        episodes = loop_episodes.sample_episodes(
            val, config.ways, config.shots, config.query_per_class, config.master_seed,
            "val-episode", [(0, j) for j in range(config.val_episodes_per_task)])
        for support_x, support_y, query_x, query_y in zip(
                episodes.support_x, episodes.support_y, episodes.query_x, episodes.query_y):
            support = em.SupportSet(forward(support_x, params), support_y[:, None],
                                    config.ways, 1)
            classifier = em.adapt(support, config.hyper)
            predicted = em.predict_labels(forward(query_x, params), classifier)
            accuracies.append(float(np.mean(predicted == query_y)))
        assert result.val_history == [(10, float(np.mean(accuracies)))]

    def test_pseudo_annotations_fresh_each_iteration(self):
        train, val = make_tasks()
        config = small_config(max_iterations=10)
        result = mt.meta_train([train], [val], config)
        digests = [row.pseudo_digest for row in result.log]
        assert len(set(digests)) > 1

    def test_full_run_deterministic(self):
        train, val = make_tasks()
        config = small_config(max_iterations=25, validation_interval=10)
        a = mt.meta_train([train], [val], config)
        b = mt.meta_train([train], [val], config)
        np.testing.assert_array_equal(a.params.flatten(), b.params.flatten())
        assert [(r.iteration, r.loss, r.pseudo_digest) for r in a.log] == [
            (r.iteration, r.loss, r.pseudo_digest) for r in b.log
        ]
        assert a.val_history == b.val_history

    def test_oracles_give_identical_theta(self, monkeypatch):
        # every draw of the loop against the loop forms of episode sampling,
        # the counter-based generator and annotator simulation
        train, val = make_tasks()
        config = small_config(max_iterations=20, validation_interval=10, meta_batch=2,
                              patience=1000, val_dist=EHS(0.3, 0.4, 0.3))
        fast = mt.meta_train([train], [val], config)
        monkeypatch.setattr(mt, "sample_episodes", loop_episodes.sample_episodes)
        monkeypatch.setattr(mt, "uniforms", loop_seeding.uniforms)
        monkeypatch.setattr(mt, "simulate_annotators", loop_annotators.simulate_block)
        slow = mt.meta_train([train], [val], config)
        assert fast.final_params.flatten().tobytes() == slow.final_params.flatten().tobytes()
        assert [(r.loss, r.pseudo_digest) for r in fast.log] == [
            (r.loss, r.pseudo_digest) for r in slow.log
        ]
        assert fast.val_history == slow.val_history and len(fast.val_history) == 2

    def test_validation_chunks_of_one_dataset(self):
        # EVAL_CHUNK + 28 validation episodes are chunks of EVAL_CHUNK and 28
        # consecutive episodes, episode j drawn from row (0, j)
        _, val = make_tasks()
        size = mt.EVAL_CHUNK
        config = small_config(val_episodes_per_task=size + 28)
        chunks = mt._validation_episodes(val, config)
        expected = loop_episodes.sample_episodes(
            val, config.ways, config.shots, config.query_per_class, config.master_seed,
            "val-episode", [(0, j) for j in range(size + 28)])
        assert [len(chunk.support_y) for chunk in chunks] == [size, 28]
        for chunk, start in zip(chunks, (0, size)):
            for name in ("class_ids", "support_x", "support_y", "query_x", "query_y"):
                part = getattr(expected, name)[start : start + size]
                assert getattr(chunk, name).tobytes() == part.tobytes()

    @pytest.mark.parametrize("sources, vals", [(0, 1), (2, 1), (1, 0), (1, 2)])
    def test_needs_one_source_and_one_validation_dataset(self, sources, vals, monkeypatch):
        def no_draw(*args):
            raise AssertionError("an episode was drawn before the dataset counts were checked")

        monkeypatch.setattr(mt, "sample_episodes", no_draw)
        train, val = make_tasks()
        with pytest.raises(ValueError, match=rf"\(got {sources} source and {vals} validation\)"):
            mt.meta_train([train] * sources, [val] * vals, small_config())


class TestTrainingBlocks:
    """The block-at-a-time draws against the per-iteration loop of ``loop_metatrain``."""

    @staticmethod
    def assert_same_run(train, val, config):
        fast = mt.meta_train([train], [val], config)
        slow = loop_metatrain.meta_train(train, val, config)
        for got, expected in [(fast.final_params, slow.final_params), (fast.params, slow.params)]:
            assert got.flatten().tobytes() == expected.flatten().tobytes()
        assert [(r.iteration, r.loss.hex(), r.pseudo_digest) for r in fast.log] == [
            (r.iteration, r.loss.hex(), r.pseudo_digest) for r in slow.log]
        assert fast.val_history == slow.val_history
        assert (fast.iterations_run, fast.stopped_early) == (slow.iterations_run,
                                                             slow.stopped_early)
        return fast

    @pytest.fixture()
    def blocks(self, monkeypatch):
        """The iterations of every block ``meta_train`` draws, in order."""
        drawn = []
        draw = mt.training_block

        def recording(source, config, iterations):
            drawn.append(list(iterations))
            return draw(source, config, iterations)

        monkeypatch.setattr(mt, "training_block", recording)
        return drawn

    @pytest.mark.parametrize("block, meta_batch, iterations, sizes", [
        (6, 2, 10, [3, 3, 3, 1]),  # the last block stops at max_iterations
        (5, 2, 7, [2, 2, 2, 1]),  # a block of whole meta-batches, one episode short
        (3, 4, 3, [1, 1, 1]),  # a meta-batch larger than the block
        (mt.TRAIN_BLOCK, 1, mt.TRAIN_BLOCK + 6, [mt.TRAIN_BLOCK, 6]),
    ])
    def test_iterations_not_a_multiple_of_the_block(self, monkeypatch, blocks, block,
                                                      meta_batch, iterations, sizes):
        monkeypatch.setattr(mt, "TRAIN_BLOCK", block)
        train, val = make_tasks()
        config = small_config(max_iterations=iterations, validation_interval=5, patience=1000,
                              meta_batch=meta_batch)
        self.assert_same_run(train, val, config)
        assert [len(b) for b in blocks] == sizes
        assert [i for b in blocks for i in b] == list(range(1, iterations + 1))

    def test_early_stop_in_the_middle_of_a_block(self, monkeypatch, blocks):
        monkeypatch.setattr(mt, "TRAIN_BLOCK", 8)  # 4 iterations a block
        train, val = make_tasks()
        config = small_config(max_iterations=2000, validation_interval=5, patience=2,
                              learning_rate=1e-15, meta_batch=2)  # stops at iteration 15
        result = self.assert_same_run(train, val, config)
        assert result.stopped_early and result.iterations_run == 15
        assert blocks[-1] == [13, 14, 15, 16]  # one block drawn, and one iteration unused

    def test_skipped_step_keeps_later_draws(self, monkeypatch):
        # a non-finite gradient at iteration 5, in the middle of a block of 3
        monkeypatch.setattr(mt, "TRAIN_BLOCK", 6)
        gradient = mt.episode_loss_and_grad
        calls = []

        def poisoned(*args):
            loss, grad = gradient(*args)
            calls.append(None)
            if len(calls) % 9 == 5:  # the 5th of each run's 9 iterations
                grad = np.full_like(grad, np.nan)
            return loss, grad

        monkeypatch.setattr(mt, "episode_loss_and_grad", poisoned)
        train, val = make_tasks()
        config = small_config(max_iterations=9, validation_interval=3, meta_batch=2)
        result = self.assert_same_run(train, val, config)
        assert [r.iteration for r in result.log if r.pseudo_digest.startswith("skipped")] == [5]
        assert len(result.log) == 9

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_embeddings_fail_mid_block(self, monkeypatch, value):
        # the block's labels are checked once, but each iteration's
        # embeddings still are: poison iteration 5, in the middle of a block of 3
        monkeypatch.setattr(mt, "TRAIN_BLOCK", 6)
        embed = mt.encoder.forward_recorded
        calls = []

        def poisoned(x, params):
            u, record = embed(x, params)
            calls.append(None)
            if len(calls) == 5:
                u = u.copy()
                u[7, 1] = value
            return u, record

        monkeypatch.setattr(mt.encoder, "forward_recorded", poisoned)
        train, val = make_tasks()
        config = small_config(max_iterations=9, validation_interval=9, meta_batch=2)
        with pytest.raises(ValueError, match="embeddings contain non-finite values"):
            mt.meta_train([train], [val], config)
        assert len(calls) == 5

    def test_sliced_support_set_matches_a_fresh_one(self):
        train, _ = make_tasks()
        config = small_config(meta_batch=2)
        episodes, labels, _ = mt.training_block(train, config, range(1, 9))
        checked = em.CheckedLabels.check(labels, episodes.num_classes)
        theta = init_params(config.encoder).flatten() + 0.01
        views = mt.encoder._read_layout(config.encoder, theta)
        params = EncoderParams.unflatten(config.encoder, theta)
        u = np.random.default_rng(0).standard_normal(episodes.support_x.shape[:-1] + (4,))
        for part in (slice(0, 2), slice(6, 8), slice(14, 16), slice(3, 4)):
            args = (episodes.num_classes, config.num_annotators)
            sliced = em.SupportSet(u[part], checked[part], *args)
            fresh = em.SupportSet(u[part], labels[part], *args)
            for name in ("onehot", "observed", "annotations"):
                got, expected = getattr(sliced, name), getattr(fresh, name)
                assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
                assert got.tobytes() == expected.tobytes()
            query = (episodes.num_classes, episodes.query_x[part], episodes.query_y[part],
                     config.hyper)
            loss, grad = mt.episode_loss_and_grad(views, episodes.support_x[part],
                                                  checked[part], *query)
            loss_ref, grad_ref = mt.episode_loss_and_grad(params, episodes.support_x[part],
                                                          labels[part], *query)
            assert loss.hex() == loss_ref.hex() and grad.tobytes() == grad_ref.tobytes()

    def test_ablation_draws_no_pseudo_annotations(self, monkeypatch):
        labels = []
        derive = mt.uniforms

        def recording(master_seed, label, *args):
            labels.append(label)
            return derive(master_seed, label, *args)

        monkeypatch.setattr(mt, "uniforms", recording)
        train, val = make_tasks()
        config = small_config(max_iterations=12, validation_interval=6,
                              pseudo_annotation=False, meta_batch=2)
        result = self.assert_same_run(train, val, config)
        assert all(r.pseudo_digest == "clean" for r in result.log)
        assert "pseudo-annotate" not in labels

class TestEvaluate:
    def test_perfect_annotators_easy_clusters(self):
        rng = stream(50, "easy")
        episodes = []
        for _ in range(5):
            centers = rng.standard_normal((3, 4)) * 40.0
            sy = np.repeat(np.arange(3), 3)
            qy = np.repeat(np.arange(3), 5)
            episodes.append(Episode(
                class_ids=(0, 1, 2),
                support_x=centers[sy] + 0.01 * rng.standard_normal((9, 4)),
                support_y=sy,
                query_x=centers[qy] + 0.01 * rng.standard_normal((15, 4)),
                query_y=qy,
            ))
        params = EncoderParams(weights=[np.eye(4)], biases=[np.zeros(4)])
        chunk = mt.embed_episodes(params, stack_episodes(episodes))
        result = mt.evaluate([chunk], EHS(1.0, 0.0, 0.0),
                             em.PriorHyperparams(em_steps=3), 3, master_seed=1)
        assert result.mean == 1.0

    def test_all_spammers_chance_level(self):
        rng = stream(51, "spam")
        episodes = []
        for _ in range(30):
            sy = np.repeat(np.arange(4), 2)
            qy = np.repeat(np.arange(4), 5)
            episodes.append(Episode(
                class_ids=(0, 1, 2, 3),
                support_x=rng.standard_normal((8, 4)),  # no cluster structure
                support_y=sy,
                query_x=rng.standard_normal((20, 4)),
                query_y=qy,
            ))
        params = EncoderParams(weights=[np.eye(4) * 0.01], biases=[np.zeros(4)])
        chunk = mt.embed_episodes(params, stack_episodes(episodes))
        result = mt.evaluate([chunk], EHS(0.0, 0.0, 1.0),
                             em.PriorHyperparams(em_steps=2), 3, master_seed=2)
        assert result.mean == pytest.approx(0.25, abs=0.06)

    def test_stderr_formula(self):
        rng = stream(52, "se")
        episodes = []
        for _ in range(6):
            centers = rng.standard_normal((2, 3)) * 2.0
            sy = np.repeat(np.arange(2), 2)
            qy = np.repeat(np.arange(2), 4)
            episodes.append(Episode(
                class_ids=(0, 1),
                support_x=centers[sy] + rng.standard_normal((4, 3)),
                support_y=sy,
                query_x=centers[qy] + rng.standard_normal((8, 3)),
                query_y=qy,
            ))
        params = EncoderParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        chunk = mt.embed_episodes(params, stack_episodes(episodes))
        result = mt.evaluate([chunk], EHS(0.1, 0.7, 0.2),
                             em.PriorHyperparams(em_steps=2), 3, master_seed=3)
        expected = np.std(result.accuracies, ddof=1) / np.sqrt(len(result.accuracies))
        assert result.stderr == pytest.approx(expected, rel=1e-12)

    def test_empty_episode_list_rejected(self):
        with pytest.raises(ValueError, match="empty episode list"):
            mt.evaluate([], EHS(0.1, 0.7, 0.2), HYPER, 3, master_seed=3)
