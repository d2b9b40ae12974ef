"""Majority voting, the labels-only confusion EM, and prototype fits."""

import itertools
import re

import numpy as np
import pytest

import loop_em
from crowdmeta import baselines, em
from crowdmeta.annotators import (AnnotatorDistribution, AnnotatorProfile, AnnotatorKind, annotate,
                                   profile_to_confusion, sample_annotator_pool)
from crowdmeta.seeding import stream

HYPER = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=10)


class TestMajorityVote:
    def test_plurality(self):
        labels, fractions = baselines.majority_vote([[0, 0, 1]], 2)
        assert labels[0] == 0
        np.testing.assert_allclose(fractions, [[2 / 3, 1 / 3]])

    def test_tie_takes_lowest_index(self):
        labels, _ = baselines.majority_vote([[0, 1]], 2)
        assert labels[0] == 0
        labels, _ = baselines.majority_vote([[1, 3]], 4)
        assert labels[0] == 1

    def test_unanimous_recovers_truth(self):
        truth = np.array([2, 0, 1, 1])
        labels, _ = baselines.majority_vote(np.stack([truth, truth], axis=1), 3)
        np.testing.assert_array_equal(labels, truth)

    def test_hard_labels_equal_argmax_of_ds_init(self):
        rng = stream(1, "mv-ds-init")
        truth = rng.integers(3, size=40)
        confusions = [profile_to_confusion(
            AnnotatorProfile(AnnotatorKind.HAMMER, q=0.7), 3)] * 4
        annotations = annotate(truth, confusions, rng)
        labels, _ = baselines.majority_vote(annotations, 3)
        init = em.init_responsibilities(em.one_hot_labels(annotations, 3))
        np.testing.assert_array_equal(labels, np.argmax(init, axis=1))

    def test_unannotated_rejected(self):
        with pytest.raises(em.UnannotatedExampleError, match="unannotated example at index 1"):
            baselines.majority_vote([[0, 1], [-1, -1]], 2)
        with pytest.raises(ValueError, match="em.label_matrix converts annotation maps"):
            baselines.majority_vote([{0: 1}], 2)


class TestDawidSkene:
    def test_single_annotator_one_step_smoothed_votes(self):
        annotations = em.label_matrix([{0: 0}, {0: 0}, {0: 1}], 1)
        hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=1)
        lam, pi, confusions = baselines.dawid_skene(annotations, 2, hyper)
        # closed form: one M step from one-hot votes, one reweighting
        onehot = loop_em.one_hot_annotations([{0: 0}, {0: 0}, {0: 1}], 2, 1)
        votes = em.init_responsibilities(onehot)
        pi_expected = em.class_prior_update(votes, 1.0)
        alpha = em.confusion_update(votes, onehot, 1.0)[0]
        scores = np.log(pi_expected)[None, :] + np.log(alpha)[[0, 0, 1], :]
        expected = np.exp(scores - em.logsumexp(scores, axis=1, keepdims=True))
        np.testing.assert_allclose(lam, expected, rtol=1e-12)
        assert np.all(np.argmax(lam, axis=1) == [0, 0, 1])
        assert np.all((lam > 0) & (lam < 1))  # smoothed, not one-hot

    def test_num_annotators_is_the_matrix_width(self):
        labels = np.array([[0, -1, 1], [1, 1, -1]])
        lam, _, confusions = baselines.dawid_skene(labels, 2, HYPER)
        assert confusions.shape == (3, 2, 2)
        again = baselines.dawid_skene(labels, 2, HYPER, num_annotators=3)
        assert lam.tobytes() == again[0].tobytes()
        with pytest.raises(ValueError, match="3 annotator columns, not num_annotators = 4"):
            baselines.dawid_skene(labels, 2, HYPER, num_annotators=4)

    def test_matches_brute_force_posterior(self):
        # one EM pass checked against dense linear-space Bayes, K=2 N=6 R=3
        rng = stream(2, "ds-oracle")
        truth = rng.integers(2, size=6)
        confusions_true = [
            profile_to_confusion(AnnotatorProfile(AnnotatorKind.HAMMER, q=0.75), 2),
            profile_to_confusion(AnnotatorProfile(AnnotatorKind.EXPERT, q=0.9), 2),
            np.full((2, 2), 0.5),
        ]
        annotations = annotate(truth, confusions_true, rng)
        for steps in (1, 2, 5):
            hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=steps)
            lam, pi, confusions = baselines.dawid_skene(annotations, 2, hyper)
            # replay the same EM with explicit loops
            lam_ref = em.init_responsibilities(em.one_hot_labels(annotations, 2))
            for _ in range(steps):
                pi_ref = (lam_ref.sum(0) + 1.0) / (2.0 + 6.0)
                alphas = []
                for r in range(3):
                    counts = np.full((2, 2), 1.0)
                    denom = np.full(2, 2.0)
                    for n, ann in enumerate(annotations):
                        if ann[r] >= 0:
                            counts[ann[r], :] += lam_ref[n]
                            denom += lam_ref[n]
                    alphas.append(counts / denom)
                new = np.zeros_like(lam_ref)
                for n, ann in enumerate(annotations):
                    for k in range(2):
                        p = pi_ref[k]
                        for r, y in loop_em.label_pairs(ann):
                            p *= alphas[r][y, k]
                        new[n, k] = p
                    new[n] /= new[n].sum()
                lam_ref = new
            np.testing.assert_allclose(lam, lam_ref, rtol=0, atol=1e-12)

    def test_beats_majority_vote_by_discounting_spammers(self):
        # identifiable mix: several consistent annotators plus spammers;
        # DS downweights the spammers that majority voting counts equally
        wins = 0
        trials = 30
        for t in range(trials):
            rng = stream(300 + t, "ds-vs-mv")
            truth = rng.integers(4, size=300)
            confusions = [
                profile_to_confusion(AnnotatorProfile(AnnotatorKind.HAMMER, q=0.75), 4),
                profile_to_confusion(AnnotatorProfile(AnnotatorKind.HAMMER, q=0.7), 4),
                profile_to_confusion(AnnotatorProfile(AnnotatorKind.EXPERT, q=0.85), 4),
                np.full((4, 4), 0.25),
                np.full((4, 4), 0.25),
            ]
            annotations = annotate(truth, confusions, rng)
            lam, _, _ = baselines.dawid_skene(annotations, 4, HYPER)
            ds_acc = np.mean(np.argmax(lam, axis=1) == truth)
            mv_labels, _ = baselines.majority_vote(annotations, 4)
            mv_acc = np.mean(mv_labels == truth)
            wins += ds_acc > mv_acc
        assert wins >= trials - 2

    def test_reduces_to_core_em_with_zero_embeddings(self):
        # zero embeddings put every Gaussian factor at the same value, so the
        # latent-space EM degenerates to the labels-only model exactly
        rng = stream(3, "ds-core")
        truth = rng.integers(3, size=10)
        dist = AnnotatorDistribution.expert_hammer_spammer(0.3, 0.4, 0.3)
        from crowdmeta.annotators import pseudo_annotate
        annotations, _ = pseudo_annotate(truth, 3, dist, 3, rng)
        hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=4)
        lam_ds, pi_ds, conf_ds = baselines.dawid_skene(annotations, 3, hyper)
        support = em.SupportSet(np.zeros((10, 2)), annotations, 3, 3)
        classifier = em.adapt(support, hyper)
        np.testing.assert_allclose(classifier.responsibilities, lam_ds,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(classifier.class_prior, pi_ds, rtol=0, atol=1e-12)
        for a, b in zip(classifier.confusions, conf_ds):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


    def test_stacked_tasks_match_each_task(self):
        rng = stream(6, "ds-stacked")
        pool = [profile_to_confusion(AnnotatorProfile(AnnotatorKind.HAMMER, q=0.7), 3),
                np.full((3, 3), 1.0 / 3.0)]
        tasks = [annotate(rng.integers(3, size=9), pool, rng, label_fraction=0.8)
                 for _ in range(4)]
        lam, pi, confusions = baselines.dawid_skene(np.stack(tasks), 3, HYPER, num_annotators=2)
        assert lam.shape == (4, 9, 3) and confusions.shape == (4, 2, 3, 3)
        for b, annotations in enumerate(tasks):
            one = baselines.dawid_skene(annotations, 3, HYPER, num_annotators=2)
            for stacked, single in zip((lam, pi, confusions), one):
                assert stacked[b].tobytes() == single.tobytes()

    def test_matches_loop_oracle_bytes(self):
        # em.adapt on a zero-width support against the labels-only loop of
        # loop_em in 720 cases: every K in 2..10 with every em_steps in 1..10,
        # single and stacked, dense and 30% labels, with and without a
        # silent annotator
        dist = AnnotatorDistribution.expert_hammer_spammer(0.2, 0.6, 0.2)
        cases = itertools.product(range(2, 11), range(1, 11), (None, 3), (1.0, 0.3), (False, True))
        for case, (k, steps, batch, fraction, silent) in enumerate(cases):
            rng = stream(case, "ds-oracle")
            r = int(rng.integers(1, 6))
            hyper = em.PriorHyperparams(b=float(rng.choice([0.5, 1.0, 4.0])),
                                        c=float(rng.choice([0.5, 1.0, 2.0])), em_steps=steps)
            tasks = []
            for _ in range(batch or 1):
                _, confusions = sample_annotator_pool(dist, r, k, rng)
                tasks.append(annotate(rng.integers(k, size=int(rng.integers(1, 25))), confusions,
                                      rng, label_fraction=fraction))
            if batch:
                size = min(len(t) for t in tasks)
                tasks = [t[:size] for t in tasks]
            labels = np.stack(tasks) if batch else tasks[0]
            if silent:
                labels = loop_em.with_silent_annotators(labels, r + 1)
            got = baselines.dawid_skene(labels, k, hyper, num_annotators=labels.shape[-1])
            expected = loop_em.dawid_skene(labels, k, hyper)
            for a, b in zip(got, expected):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), case


class TestPrototypeFromLabels:
    def test_hard_correct_labels_zero_tau_gives_class_means(self):
        rng = stream(4, "proto")
        labels = np.repeat(np.arange(3), 4)
        embeddings = rng.standard_normal((12, 5))
        fit = baselines.prototype_from_labels(
            embeddings, baselines.onehot(labels, 3), tau=0.0
        )
        for k in range(3):
            np.testing.assert_allclose(
                fit.classifier.prototypes[k],
                embeddings[labels == k].mean(axis=0),
                rtol=0, atol=1e-12,
            )
        assert fit.empty_classes == ()
        assert fit.classifier.confusions.shape == (0, 3, 3)  # label-free

    def test_soft_weights_match_m_step_prototypes(self):
        rng = stream(5, "proto-soft")
        embeddings = rng.standard_normal((8, 3))
        lam = rng.dirichlet(np.ones(4), size=8)
        fit = baselines.prototype_from_labels(embeddings, lam, tau=1.0, b=2.0)
        np.testing.assert_array_equal(
            fit.classifier.prototypes, em.prototype_update(lam, embeddings, 1.0)
        )
        np.testing.assert_array_equal(
            fit.classifier.class_prior, em.class_prior_update(lam, 2.0)
        )

    def test_empty_class_flagged_with_zero_prototype(self):
        embeddings = np.ones((3, 2))
        weights = np.zeros((3, 2))
        weights[:, 0] = 1.0
        fit = baselines.prototype_from_labels(embeddings, weights, tau=0.0)
        assert fit.empty_classes == (1,)
        np.testing.assert_array_equal(fit.classifier.prototypes[1], 0.0)

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError, match="label weights"):
            baselines.prototype_from_labels(np.ones((3, 2)), np.ones((4, 2)), tau=1.0)

    @pytest.mark.parametrize("row, message", [
        ([1.5, -0.5], "label weights contain negative entries"),
        ([0.0, 0.0], "label weights of example 1 sum to 0, not 1"),
        ([0.5, 1.0], "label weights of example 1 sum to 1.5, not 1"),
        ([np.nan, 1.0], "label weights contain non-finite values"),
    ])
    def test_weight_rows_validated(self, row, message):
        weights = np.array([[1.0, 0.0], row, [0.0, 1.0]])
        with pytest.raises(ValueError, match=re.escape(message)):
            baselines.prototype_from_labels(np.ones((3, 2)), weights, tau=1.0)

    def test_prior_strengths_validated(self):
        with pytest.raises(ValueError, match=r"tau >= 0 and b > 0 \(got tau=-1.0, b=1.0\)"):
            baselines.prototype_from_labels(np.ones((2, 2)), np.eye(2), tau=-1.0)

    @pytest.mark.parametrize("tau, b", [(float("nan"), 1.0), (float("inf"), 1.0),
                                        (1.0, float("nan")), (1.0, float("inf"))])
    def test_non_finite_prior_strengths_rejected(self, tau, b):
        # NaN fails no `< 0` test: tau=nan gave zero prototypes, b=inf a NaN class prior
        with pytest.raises(ValueError, match=r"needs finite tau >= 0 and b > 0"):
            baselines.prototype_from_labels(np.ones((2, 2)), np.eye(2), tau=tau, b=b)

    def test_stacked_tasks_match_each_task(self):
        rng = stream(7, "proto-stacked")
        embeddings = rng.standard_normal((3, 6, 4))
        weights = rng.dirichlet(np.ones(3), size=(3, 6))
        weights[1, :, 2] = 0.0  # task 1 leaves class 2 empty
        weights[1] /= weights[1].sum(axis=1, keepdims=True)
        fit = baselines.prototype_from_labels(embeddings, weights, tau=1.0, b=2.0)
        assert fit.empty_classes == ((), (2,), ())
        assert fit.classifier.confusions.shape == (3, 0, 3, 3)
        for b in range(3):
            one = baselines.prototype_from_labels(embeddings[b], weights[b], tau=1.0, b=2.0)
            assert fit.classifier.prototypes[b].tobytes() == one.classifier.prototypes.tobytes()
            assert fit.classifier.class_prior[b].tobytes() == one.classifier.class_prior.tobytes()

    def test_stacked_rows_validated(self):
        weights = np.tile(np.eye(2), (2, 1, 1))
        weights[1, 1] = [0.5, 1.0]
        with pytest.raises(ValueError, match=re.escape(
                "label weights of example 1 of task 1 sum to 1.5, not 1")):
            baselines.prototype_from_labels(np.ones((2, 2, 3)), weights, tau=1.0)
        with pytest.raises(ValueError, match="label weights must be"):
            baselines.prototype_from_labels(np.ones((2, 3)), weights, tau=1.0)
