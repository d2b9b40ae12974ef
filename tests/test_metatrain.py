"""Query loss, meta-gradient, Adam, the training loop, and evaluation."""

import math

import numpy as np
import pytest

from crowdmeta import em
from crowdmeta import metatrain as mt
from crowdmeta.annotators import (
    AnnotatorDistribution,
    annotate,
    pseudo_annotate,
    sample_annotator_pool,
)
from crowdmeta.encoder import EncoderConfig, EncoderParams, forward, init_params
from crowdmeta.episodes import Episode, generate_synthetic, sample_episode
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


def loss_pair(episode, annotations, num_annotators, config, hyper):
    """``episode_loss_and_grad``'s loss and ``episode_loss_value`` on one episode."""
    params = init_params(config)
    args = (episode.support_x, annotations, episode.num_classes, num_annotators,
            episode.query_x, episode.query_y, hyper)
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
            loss, value = loss_pair(episode, annotations, 3, config, HYPER)
            assert loss == value

    def test_forward_matches_on_sparse_annotations(self):
        episode = random_episode(11)
        annotations = [dict(list({0: int(y), 1: int(y), 2: 0}.items())[: 1 + n % 3])
                       for n, y in enumerate(episode.support_y)]
        config = EncoderConfig(5, (6,), 4, init_seed=3)
        loss, value = loss_pair(episode, annotations, 3, config, HYPER)
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
            loss, value = loss_pair(episode, annotations, 3, config, hyper)
            assert loss == value

    @pytest.mark.parametrize("em_steps", [1, 3])
    def test_sparse_labels_match_finite_differences(self, em_steps):
        # 30% of (example, annotator) pairs kept, plus a fifth annotator who
        # labels nothing and keeps the uniform prior-mean confusion
        episode = random_episode(40 + em_steps, ways=4, shots=3, qpc=3)
        rng = stream(40, "sparse", em_steps)
        _, confusions = sample_annotator_pool(EHS(0.2, 0.6, 0.2), 4, 4, rng)
        annotations = annotate(episode.support_y, confusions, rng, label_fraction=0.3)
        assert any(len(ann) == 1 for ann in annotations)
        config = EncoderConfig(5, (8,), 4, init_seed=em_steps)
        hyper = em.PriorHyperparams(em_steps=em_steps)
        args = (episode.support_x, annotations, 4, 5, episode.query_x, episode.query_y, hyper)
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
                annotations.append([{0: int(y)} for y in episode.support_y])
                continue
            # at 30% a fifth annotator labels nothing
            _, confusions = sample_annotator_pool(EHS(0.2, 0.6, 0.2), 4, 4, rng)
            fraction = 1.0 if labels == "dense" else 0.3
            annotations.append(annotate(episode.support_y, confusions, rng, label_fraction=fraction))
        return episodes, annotations, 1 if labels == "clean" else 5

    @pytest.mark.parametrize("em_steps", [1, 3])
    @pytest.mark.parametrize("labels", ["dense", "sparse", "clean"])
    def test_matches_mean_of_single_episodes(self, labels, em_steps):
        episodes, annotations, num_annotators = self.batch(labels)
        params = init_params(EncoderConfig(5, (8,), 4, init_seed=em_steps))
        hyper = em.PriorHyperparams(em_steps=em_steps)
        singles = [
            mt.episode_loss_and_grad(params, e.support_x, ann, 4, num_annotators,
                                     e.query_x, e.query_y, hyper)
            for e, ann in zip(episodes, annotations)
        ]
        loss, grad = mt.episode_loss_and_grad(
            params, np.stack([e.support_x for e in episodes]), annotations, 4, num_annotators,
            np.stack([e.query_x for e in episodes]), np.stack([e.query_y for e in episodes]),
            hyper,
        )
        mean_loss = np.mean([single[0] for single in singles])
        mean_grad = np.mean([single[1] for single in singles], axis=0)
        assert abs(loss - mean_loss) <= 1e-12 * abs(mean_loss)
        assert np.linalg.norm(grad - mean_grad) <= 1e-12 * np.linalg.norm(mean_grad)


class TestMetaGradient:
    def test_matches_finite_differences(self):
        episode = random_episode(31)
        config = small_config(hyper=em.PriorHyperparams(em_steps=2))
        params = init_params(config.encoder)
        result = mt.meta_gradient(params, [episode], config, [stream(31, "pa")])
        # recover the exact annotations the gradient call used
        annotations, _ = pseudo_annotate(
            episode.support_y, config.num_annotators, config.pseudo_dist, 3,
            stream(31, "pa"),
        )
        theta = params.flatten()
        rng = np.random.default_rng(0)
        for c in rng.choice(theta.size, size=12, replace=False):
            step = 1e-5
            plus, minus = theta.copy(), theta.copy()
            plus[c] += step
            minus[c] -= step
            fd = (
                episode_loss_value(plus, config.encoder, episode.support_x,
                                   annotations, 3, config.num_annotators,
                                   episode.query_x, episode.query_y, config.hyper)
                - episode_loss_value(minus, config.encoder, episode.support_x,
                                     annotations, 3, config.num_annotators,
                                     episode.query_x, episode.query_y, config.hyper)
            ) / (2 * step)
            rel = abs(fd - result.grad[c]) / max(1e-8, abs(fd), abs(result.grad[c]))
            assert rel < 1e-4

    def test_converged_em_still_matches_finite_differences(self):
        # many EM steps: responsibilities and prototypes sit at a fixed point
        episode = random_episode(32)
        config = small_config(hyper=em.PriorHyperparams(em_steps=8))
        params = init_params(config.encoder)
        result = mt.meta_gradient(params, [episode], config, [stream(32, "pa")])
        annotations, _ = pseudo_annotate(
            episode.support_y, config.num_annotators, config.pseudo_dist, 3,
            stream(32, "pa"),
        )
        theta = params.flatten()
        for c in np.random.default_rng(1).choice(theta.size, size=6, replace=False):
            step = 1e-5
            plus, minus = theta.copy(), theta.copy()
            plus[c] += step
            minus[c] -= step
            fd = (
                episode_loss_value(plus, config.encoder, episode.support_x,
                                   annotations, 3, config.num_annotators,
                                   episode.query_x, episode.query_y, config.hyper)
                - episode_loss_value(minus, config.encoder, episode.support_x,
                                     annotations, 3, config.num_annotators,
                                     episode.query_x, episode.query_y, config.hyper)
            ) / (2 * step)
            assert abs(fd - result.grad[c]) / max(1e-8, abs(fd), abs(result.grad[c])) < 1e-4

    def test_zero_weight_encoder_bias_gradient_vanishes(self):
        # with all embeddings identically zero every distance term is flat,
        # so the loss gradient w.r.t. the output bias is exactly zero
        episode = random_episode(33)
        config = small_config(encoder=EncoderConfig(5, (), 4, init_seed=0))
        params = EncoderParams(weights=[np.zeros((5, 4))], biases=[np.zeros(4)])
        result = mt.meta_gradient(params, [episode], config, [stream(33, "pa")])
        bias_grad = result.grad[-4:]
        np.testing.assert_array_equal(bias_grad, 0.0)
        assert result.loss == pytest.approx(math.log(3), abs=0.3)

    def test_deterministic_given_seed(self):
        episode = random_episode(34)
        config = small_config()
        params = init_params(config.encoder)
        a = mt.meta_gradient(params, [episode], config, [stream(34, "pa")])
        b = mt.meta_gradient(params, [episode], config, [stream(34, "pa")])
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.grad, b.grad)
        assert a.pseudo_digest == b.pseudo_digest

    def test_clean_path_digest(self):
        episode = random_episode(35)
        config = small_config(pseudo_annotation=False)
        params = init_params(config.encoder)
        result = mt.meta_gradient(params, [episode], config, [stream(35, "pa")])
        assert result.pseudo_digest == "clean"


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
        expected = before - 0.01 * g / (np.abs(g) + config.eps)
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

    @pytest.mark.parametrize("name", ["beta1", "beta2"])
    @pytest.mark.parametrize("value", [1.0, -0.1])
    def test_adam_beta_outside_unit_interval_forbidden(self, name, value):
        with pytest.raises(ValueError, match=rf"Adam {name} must lie in \[0, 1\) \(got {value}\)"):
            small_config(**{name: value})

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
        for j in range(config.val_episodes_per_task):
            episode = sample_episode(val, config.ways, config.shots, config.query_per_class,
                                     stream(config.master_seed, "val-episode", 0, j))
            support = em.SupportSet(forward(episode.support_x, params),
                                    [{0: int(y)} for y in episode.support_y],
                                    episode.num_classes, 1)
            classifier = em.adapt(support, config.hyper)
            predicted = em.predict_labels(forward(episode.query_x, params), classifier)
            accuracies.append(float(np.mean(predicted == episode.query_y)))
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
        result = mt.evaluate(params, episodes, EHS(1.0, 0.0, 0.0),
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
        result = mt.evaluate(params, episodes, EHS(0.0, 0.0, 1.0),
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
        result = mt.evaluate(params, episodes, EHS(0.1, 0.7, 0.2),
                             em.PriorHyperparams(em_steps=2), 3, master_seed=3)
        expected = np.std(result.accuracies, ddof=1) / np.sqrt(len(result.accuracies))
        assert result.stderr == pytest.approx(expected, rel=1e-12)
