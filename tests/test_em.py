"""Core EM: update rules, likelihoods, bound, posterior, adaptation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_em
from crowdmeta import em
from crowdmeta.annotators import (
    AnnotatorDistribution,
    AnnotatorKind,
    AnnotatorProfile,
    annotate,
    profile_to_confusion,
    pseudo_annotate,
    sample_annotator_pool,
)
from crowdmeta.seeding import stream


def make_support(embeddings, annotations, num_classes, num_annotators):
    return em.SupportSet(
        embeddings=np.asarray(embeddings, dtype=float),
        annotations=annotations,
        num_classes=num_classes,
        num_annotators=num_annotators,
    )


def random_task(seed, num_classes=3, size=6, num_annotators=2, dim=3, spread=1.0):
    rng = stream(seed, "em-test-task")
    truth = rng.integers(num_classes, size=size)
    dist = AnnotatorDistribution.expert_hammer_spammer(0.2, 0.6, 0.2)
    annotations, _ = pseudo_annotate(truth, num_annotators, dist, num_classes, rng)
    centers = rng.standard_normal((num_classes, dim)) * 2.0
    embeddings = centers[truth] + spread * rng.standard_normal((size, dim))
    return make_support(embeddings, annotations, num_classes, num_annotators)


HYPER = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=3)


def vote_fractions(annotations, num_classes, num_annotators=5):
    onehot = em.one_hot_annotations(annotations, num_classes, num_annotators)
    return em.init_responsibilities(onehot)


class TestInitResponsibilities:
    def test_split_votes(self):
        lam = vote_fractions([{0: 0, 1: 2}], 3)
        np.testing.assert_allclose(lam, [[0.5, 0.0, 0.5]])

    def test_unanimous(self):
        lam = vote_fractions([{0: 1, 1: 1, 2: 1}], 2)
        np.testing.assert_allclose(lam, [[0.0, 1.0]])

    def test_four_way_split(self):
        lam = vote_fractions([{0: 0, 1: 1, 2: 2, 3: 3}], 4)
        np.testing.assert_allclose(lam, [[0.25, 0.25, 0.25, 0.25]])

    def test_unannotated_example_rejected(self):
        with pytest.raises(em.UnannotatedExampleError, match="unannotated example"):
            vote_fractions([{0: 1}, {}], 2)

    @given(st.lists(st.dictionaries(st.integers(0, 4), st.integers(0, 3),
                                    min_size=1, max_size=5),
                    min_size=1, max_size=8))
    def test_rows_are_distributions(self, annotations):
        lam = vote_fractions(annotations, 4)
        assert np.all(lam >= 0.0)
        np.testing.assert_allclose(lam.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestMStep:
    def test_prototypes_single_example(self):
        support = make_support([[2.0, 0.0]], [{0: 0}], 2, 1)
        lam = np.array([[1.0, 0.0]])
        protos, _, _ = em.m_step(lam, support, em.PriorHyperparams(tau=1.0))
        np.testing.assert_allclose(protos[0], [1.0, 0.0])
        np.testing.assert_allclose(protos[1], [0.0, 0.0])

    def test_class_prior_counts(self):
        support = make_support(np.zeros((4, 2)), [{0: 0}] * 4, 2, 1)
        lam = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=float)
        _, pi, _ = em.m_step(lam, support, em.PriorHyperparams(b=1.0))
        np.testing.assert_allclose(pi, [4.0 / 6.0, 2.0 / 6.0])

    def test_confusion_counts(self):
        support = make_support(np.zeros((2, 2)), [{0: 0}, {0: 0}], 2, 1)
        lam = np.array([[1.0, 0.0], [1.0, 0.0]])
        _, _, confusions = em.m_step(lam, support, em.PriorHyperparams(c=1.0))
        assert confusions[0][0, 0] == pytest.approx(3.0 / 4.0)
        assert confusions[0][1, 0] == pytest.approx(1.0 / 4.0)

    def test_unlabeled_annotator_gets_uniform_confusion(self):
        # annotator 1 never labels anything in this task
        support = make_support(np.zeros((2, 2)), [{0: 0}, {0: 1}], 2, 2)
        lam = em.init_responsibilities(support.onehot)
        _, _, confusions = em.m_step(lam, support, HYPER)
        np.testing.assert_allclose(confusions[1], 0.5)

    def test_shape_mismatch_rejected(self):
        support = random_task(0)
        with pytest.raises(ValueError, match="shape"):
            em.m_step(np.ones((2, 2)), support, HYPER)

    def test_dirichlet_limit_flattens_class_prior(self):
        support = random_task(1, num_classes=4, size=10)
        lam = em.init_responsibilities(support.onehot)
        _, pi, _ = em.m_step(lam, support, em.PriorHyperparams(b=1e9))
        np.testing.assert_allclose(pi, 0.25, rtol=0, atol=1e-6)

    def test_smoothing_floors(self):
        # all of one class, single annotator always voting 0
        support = make_support(np.zeros((5, 2)), [{0: 0}] * 5, 3, 1)
        lam = em.init_responsibilities(support.onehot)
        _, pi, confusions = em.m_step(lam, support, HYPER)
        assert np.all(pi > 0.0)
        assert all(np.all(alpha > 0.0) for alpha in confusions)


class TestAnnotationLikelihood:
    ALPHA = np.array([[0.8, 0.2], [0.2, 0.8]])

    def test_single_annotator(self):
        support = make_support(np.zeros((1, 2)), [{0: 0}], 2, 1)
        a = em.annotation_likelihood(support, [self.ALPHA])
        np.testing.assert_allclose(a, [[0.8, 0.2]], rtol=1e-12)

    def test_two_annotators_multiply(self):
        support = make_support(np.zeros((1, 2)), [{0: 0, 1: 0}], 2, 2)
        a = em.annotation_likelihood(support, [self.ALPHA, self.ALPHA])
        np.testing.assert_allclose(a, [[0.64, 0.04]], rtol=1e-12)

    def test_spammers_are_uninformative(self):
        uniform = np.full((4, 4), 0.25)
        support = make_support(np.zeros((1, 2)), [{0: 2, 1: 3, 2: 0}], 4, 3)
        a = em.annotation_likelihood(support, [uniform] * 3)
        np.testing.assert_allclose(a, 0.25**3, rtol=1e-12)

    def test_zero_entry_rejected(self):
        support = make_support(np.zeros((1, 2)), [{0: 0}], 2, 1)
        with pytest.raises(ValueError, match="zero confusion entry"):
            em.annotation_likelihood(support, [np.eye(2)])


class TestDenseMatchesLoops:
    """The one-hot tensor products against the per-annotator loops of ``loop_em``."""

    FLIPPER = profile_to_confusion(  # rows 1 and 2 hold zeros, row 0 none
        AnnotatorProfile(AnnotatorKind.PAIRWISE_FLIPPER, q=0.7, flip_targets=(1, 0, 0)), 3
    )
    HAMMER = profile_to_confusion(AnnotatorProfile(AnnotatorKind.HAMMER, q=0.7), 3)

    def compare(self, support, lam, c=1.0):
        k, r = support.num_classes, support.num_annotators
        protos, pi, confusions = em.m_step(lam, support, em.PriorHyperparams(c=c))
        loops = loop_em.confusion_update(lam, support.annotations, r, k, c)
        np.testing.assert_allclose(confusions, loops, rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            em.annotation_log_likelihood(support, confusions),
            loop_em.annotation_log_likelihood(support.annotations, loops, k),
            rtol=1e-13, atol=1e-15,
        )
        np.testing.assert_allclose(
            em.e_step(support, protos, pi, confusions),
            loop_em.e_step(support.embeddings, support.annotations, protos, pi, loops),
            rtol=1e-12, atol=1e-15,
        )
        return confusions

    @pytest.mark.parametrize("seed", range(5))
    def test_sparse_labels(self, seed):
        rng = stream(seed, "dense-sparse")
        truth = rng.integers(4, size=30)
        _, true_confusions = sample_annotator_pool(
            AnnotatorDistribution.expert_hammer_spammer(0.2, 0.6, 0.2), 6, 4, rng
        )
        annotations = annotate(truth, true_confusions, rng, label_fraction=0.3)
        assert any(len(ann) == 1 for ann in annotations)
        support = make_support(rng.standard_normal((30, 3)), annotations, 4, 6)
        self.compare(support, rng.dirichlet(np.ones(4), size=30), c=0.5)

    def test_silent_annotator_gets_exact_uniform(self):
        rng = stream(7, "dense-silent")
        truth = rng.integers(3, size=12)
        annotations = annotate(truth, [self.HAMMER] * 3, rng, label_fraction=0.5)
        support = make_support(rng.standard_normal((12, 2)), annotations, 3, 4)
        confusions = self.compare(support, em.init_responsibilities(support.onehot))
        np.testing.assert_array_equal(confusions[3], np.full((3, 3), 1.0 / 3.0))

    def test_unhit_zero_entries_stay_finite(self):
        # the flipper only ever reports label 0, whose row has no zero
        annotations = [{0: 0, 1: 0}, {0: 1, 1: 0}, {0: 2}, {0: 1, 1: 0}]
        support = make_support(np.zeros((4, 2)), annotations, 3, 2)
        confusions = np.stack([self.HAMMER, self.FLIPPER])
        log_a = em.annotation_log_likelihood(support, confusions)
        assert np.all(np.isfinite(log_a))
        np.testing.assert_allclose(
            log_a, loop_em.annotation_log_likelihood(annotations, confusions, 3),
            rtol=1e-15, atol=0,
        )
        protos = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        pi = np.array([0.2, 0.3, 0.5])
        lam = em.e_step(support, protos, pi, confusions)
        assert np.all(np.isfinite(lam))
        np.testing.assert_allclose(
            lam, loop_em.e_step(support.embeddings, annotations, protos, pi, confusions),
            rtol=1e-13, atol=1e-15,
        )

    def test_hit_zero_entry_raises(self):
        annotations = [{0: 0, 1: 0}, {0: 1, 1: 2}]  # label 2 selects a row with zeros
        support = make_support(np.zeros((2, 2)), annotations, 3, 2)
        confusions = np.stack([self.HAMMER, self.FLIPPER])
        with pytest.raises(ValueError, match="zero confusion entry"):
            loop_em.annotation_log_likelihood(annotations, confusions, 3)
        with pytest.raises(ValueError, match="zero confusion entry"):
            em.annotation_log_likelihood(support, confusions)


class TestEStep:
    def test_full_symmetry(self):
        embeddings = [[0.0, 0.0]]
        support = make_support(embeddings, [{0: 0, 1: 1}], 2, 2)
        protos = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant from origin
        pi = np.array([0.5, 0.5])
        spam = np.full((2, 2), 0.5)
        lam = em.e_step(support, protos, pi, [spam, spam])
        np.testing.assert_allclose(lam, [[0.5, 0.5]], atol=1e-15)

    def test_uniform_confusions_reduce_to_gmm_posterior(self):
        support = random_task(2, num_classes=3, size=5, num_annotators=2)
        rng = stream(3, "gmm-check")
        protos = rng.standard_normal((3, 3))
        pi = rng.dirichlet(np.ones(3))
        uniform = np.full((3, 3), 1.0 / 3.0)
        lam = em.e_step(support, protos, pi, [uniform, uniform])
        # dense direct evaluation of the Gaussian-mixture posterior
        expected = np.zeros((support.size, 3))
        for n in range(support.size):
            for k in range(3):
                d2 = np.sum((support.embeddings[n] - protos[k]) ** 2)
                expected[n, k] = math.exp(-0.5 * d2) * pi[k]
            expected[n] /= expected[n].sum()
        np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-12)

    def test_matches_naive_linear_space(self):
        for t in range(20):
            support = random_task(100 + t, num_classes=4, size=8, num_annotators=3)
            lam0 = em.init_responsibilities(support.onehot)
            protos, pi, confusions = em.m_step(lam0, support, HYPER)
            fast = em.e_step(support, protos, pi, confusions)
            norm = (2 * math.pi) ** (-support.dim / 2)
            slow = np.zeros_like(fast)
            for n in range(support.size):
                for k in range(4):
                    gauss = norm * math.exp(
                        -0.5 * float(np.sum((support.embeddings[n] - protos[k]) ** 2))
                    )
                    a = 1.0
                    for r, y in support.annotations[n].items():
                        a *= confusions[r][y, k]
                    slow[n, k] = gauss * pi[k] * a
                slow[n] /= slow[n].sum()
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    def test_rows_stochastic_along_trajectory(self):
        support = random_task(4, num_classes=4, size=12, num_annotators=3)
        lam = em.init_responsibilities(support.onehot)
        for _ in range(5):
            protos, pi, confusions = em.m_step(lam, support, HYPER)
            np.testing.assert_allclose(pi.sum(), 1.0, rtol=0, atol=1e-12)
            for alpha in confusions:
                np.testing.assert_allclose(alpha.sum(axis=0), 1.0, rtol=0, atol=1e-12)
            lam = em.e_step(support, protos, pi, confusions)
            np.testing.assert_allclose(lam.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def naive_lower_bound(lam, support, protos, pi, confusions, hyper):
    """Term-by-term scalar-arithmetic evaluation of the bound."""
    total = 0.0
    norm = -0.5 * support.dim * math.log(2 * math.pi)
    for n in range(support.size):
        for k in range(support.num_classes):
            if lam[n, k] == 0.0:
                continue
            log_joint = norm - 0.5 * float(
                np.sum((support.embeddings[n] - protos[k]) ** 2)
            ) + math.log(pi[k])
            for r, y in support.annotations[n].items():
                log_joint += math.log(confusions[r][y, k])
            total += lam[n, k] * (log_joint - math.log(lam[n, k]))
    # prior terms
    K, M = protos.shape
    total += K * 0.5 * M * (math.log(hyper.tau) - math.log(2 * math.pi))
    total -= 0.5 * hyper.tau * float(np.sum(protos**2))
    total += (
        math.lgamma(K * (hyper.b + 1))
        - K * math.lgamma(hyper.b + 1)
        + hyper.b * float(np.sum(np.log(pi)))
    )
    for alpha in confusions:
        total += K * (math.lgamma(K * (hyper.c + 1)) - K * math.lgamma(hyper.c + 1))
        total += hyper.c * float(np.sum(np.log(alpha)))
    return total


class TestLowerBound:
    def test_tight_after_e_step(self):
        support = random_task(5, num_classes=3, size=8, num_annotators=2)
        lam = em.init_responsibilities(support.onehot)
        protos, pi, confusions = em.m_step(lam, support, HYPER)
        lam = em.e_step(support, protos, pi, confusions)
        q = em.lower_bound_q(lam, support, protos, pi, confusions, HYPER)
        lp = em.log_posterior(support, protos, pi, confusions, HYPER)
        assert q == pytest.approx(lp, abs=1e-9)

    def test_jensen_gap_away_from_posterior(self):
        support = random_task(6, num_classes=3, size=8, num_annotators=2)
        lam = em.init_responsibilities(support.onehot)
        protos, pi, confusions = em.m_step(lam, support, HYPER)
        posterior = em.e_step(support, protos, pi, confusions)
        off = 0.5 * posterior + 0.5 / 3.0  # pulled toward uniform
        q = em.lower_bound_q(off, support, protos, pi, confusions, HYPER)
        lp = em.log_posterior(support, protos, pi, confusions, HYPER)
        assert q < lp - 1e-6

    def test_matches_naive_summation(self):
        support = random_task(7, num_classes=3, size=6, num_annotators=2)
        lam = em.init_responsibilities(support.onehot)
        protos, pi, confusions = em.m_step(lam, support, HYPER)
        q = em.lower_bound_q(lam, support, protos, pi, confusions, HYPER)
        naive = naive_lower_bound(lam, support, protos, pi, confusions, HYPER)
        assert q == pytest.approx(naive, rel=1e-12)

    def test_zero_responsibility_entries_contribute_zero(self):
        support = make_support([[0.5, 0.0]], [{0: 0}], 2, 1)
        lam = np.array([[1.0, 0.0]])  # hard assignment
        protos, pi, confusions = em.m_step(lam, support, HYPER)
        q = em.lower_bound_q(lam, support, protos, pi, confusions, HYPER)
        assert math.isfinite(q)


class TestLogPosterior:
    def test_single_class_closed_form(self):
        u = np.array([[0.7, -0.2]])
        support = make_support(u, [{0: 0}], 1, 1)
        hyper = em.PriorHyperparams(tau=2.0, b=1.0, c=1.0)
        protos = np.array([[0.1, 0.3]])
        pi = np.array([1.0])
        confusions = [np.array([[1.0]])]
        got = em.log_posterior(support, protos, pi, confusions, hyper)
        d2 = float(np.sum((u[0] - protos[0]) ** 2))
        expected = -math.log(2 * math.pi) - 0.5 * d2  # ln N(u | mu, I), M = 2
        expected += 0.5 * 2 * (math.log(2.0) - math.log(2 * math.pi))
        expected += -0.5 * 2.0 * float(np.sum(protos**2))
        expected += math.lgamma(2.0) - math.lgamma(2.0)  # pi prior, K = 1
        expected += math.lgamma(2.0) - math.lgamma(2.0)  # confusion prior, K = 1
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_exhaustive_enumeration(self):
        support = random_task(8, num_classes=2, size=3, num_annotators=2)
        lam = em.init_responsibilities(support.onehot)
        protos, pi, confusions = em.m_step(lam, support, HYPER)
        got = em.log_posterior(support, protos, pi, confusions, HYPER)
        # enumerate all 2^3 joint label assignments
        norm = (2 * math.pi) ** (-support.dim / 2)
        total = 0.0
        for assignment in np.ndindex(*(2,) * support.size):
            p = 1.0
            for n, k in enumerate(assignment):
                gauss = norm * math.exp(
                    -0.5 * float(np.sum((support.embeddings[n] - protos[k]) ** 2))
                )
                a = 1.0
                for r, y in support.annotations[n].items():
                    a *= confusions[r][y, k]
                p *= gauss * pi[k] * a
            total += p
        expected = math.log(total) + em.log_prior(protos, pi, confusions, HYPER)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_monotone_across_em_iterations(self):
        hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=8)
        for t in range(40):
            support = random_task(200 + t, num_classes=3, size=10, num_annotators=3)
            lam = em.init_responsibilities(support.onehot)
            previous = None
            for _ in range(hyper.em_steps):
                protos, pi, confusions = em.m_step(lam, support, hyper)
                value = em.log_posterior(support, protos, pi, confusions, hyper)
                if previous is not None:
                    assert value >= previous - 1e-9
                previous = value
                lam = em.e_step(support, protos, pi, confusions)


class TestAdapt:
    def test_composition_matches_manual_steps(self):
        support = random_task(9, num_classes=3, size=9, num_annotators=2)
        hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=2)
        classifier = em.adapt(support, hyper)
        lam = em.init_responsibilities(support.onehot)
        for _ in range(2):
            protos, pi, confusions = em.m_step(lam, support, hyper)
            lam = em.e_step(support, protos, pi, confusions)
        np.testing.assert_array_equal(classifier.prototypes, protos)
        np.testing.assert_array_equal(classifier.class_prior, pi)
        np.testing.assert_array_equal(classifier.responsibilities, lam)

    def test_clean_unanimous_degenerates_to_class_means(self):
        rng = stream(10, "clean-task")
        ways, shots = 3, 4
        truth = np.repeat(np.arange(ways), shots)
        embeddings = rng.standard_normal((len(truth), 2))
        annotations = [{0: int(y), 1: int(y)} for y in truth]
        hyper = em.PriorHyperparams(tau=0.0, b=1.0, c=1.0, em_steps=1,
                                    allow_zero_tau=True)
        classifier = em.adapt(make_support(embeddings, annotations, ways, 2), hyper)
        for k in range(ways):
            np.testing.assert_allclose(
                classifier.prototypes[k], embeddings[truth == k].mean(axis=0),
                rtol=0, atol=1e-12,
            )

    def test_zero_tau_requires_explicit_override(self):
        with pytest.raises(ValueError, match="tau"):
            em.PriorHyperparams(tau=0.0)


class TestStackedSupport:
    """B episodes stacked on a leading axis against each episode run alone."""

    def episodes(self, seed, ways=4, size=12, num_annotators=5):
        # dense labels, 30% kept with a fifth annotator who labels nothing,
        # and an episode in which no annotator ever reports the last class
        rng = stream(seed, "stacked")
        dist = AnnotatorDistribution.expert_hammer_spammer(0.2, 0.6, 0.2)
        truth = np.repeat(np.arange(ways), size // ways)
        _, confusions = sample_annotator_pool(dist, num_annotators, ways, rng)
        _, sparse = sample_annotator_pool(dist, num_annotators - 1, ways, rng)
        annotations = [
            annotate(truth, confusions, rng),
            annotate(truth, sparse, rng, label_fraction=0.3),
            [{0: int(y) % (ways - 1), 2: 0} for y in truth],
        ]
        embeddings = rng.standard_normal((len(annotations), size, 3))
        return embeddings, annotations, ways, num_annotators

    def test_adapt_matches_each_episode(self):
        embeddings, annotations, k, r = self.episodes(1)
        stacked = em.SupportSet(embeddings, annotations, k, r)
        assert stacked.onehot.shape == (3, 12, r, k)
        for hyper in (em.PriorHyperparams(em_steps=3),
                      em.PriorHyperparams(tau=0.0, em_steps=1, allow_zero_tau=True)):
            together = em.adapt(stacked, hyper)
            for b in range(3):
                alone = em.adapt(em.SupportSet(embeddings[b], annotations[b], k, r), hyper)
                for name in ("prototypes", "class_prior", "confusions", "responsibilities"):
                    np.testing.assert_allclose(
                        getattr(together, name)[b], getattr(alone, name), rtol=1e-13, atol=0
                    )

    def test_m_and_e_steps_match_each_episode(self):
        embeddings, annotations, k, r = self.episodes(2)
        stacked = em.SupportSet(embeddings, annotations, k, r)
        lam = stream(2, "stacked-lam").dirichlet(np.ones(k), size=(3, 12))
        hyper = em.PriorHyperparams(tau=0.5, b=2.0, c=0.5)
        together = em.m_step(lam, stacked, hyper)
        responsibilities = em.e_step(stacked, *together)
        for b in range(3):
            support = em.SupportSet(embeddings[b], annotations[b], k, r)
            alone = em.m_step(lam[b], support, hyper)
            for got, expected in zip(together, alone):
                np.testing.assert_allclose(got[b], expected, rtol=1e-13, atol=0)
            np.testing.assert_allclose(
                responsibilities[b], em.e_step(support, *alone), rtol=1e-13, atol=0
            )

    def test_annotation_count_mismatch_rejected(self):
        embeddings, annotations, k, r = self.episodes(3)
        with pytest.raises(ValueError, match="annotation count"):
            em.SupportSet(embeddings, annotations[:2], k, r)
        with pytest.raises(ValueError, match="annotation count"):
            em.SupportSet(embeddings, [annotations[0], annotations[1][:-1], annotations[2]], k, r)

    def test_out_of_range_label_rejected(self):
        embeddings, annotations, k, r = self.episodes(4)
        annotations[2][5] = {0: k}
        with pytest.raises(ValueError, match=f"label {k} out of range at example 5"):
            em.SupportSet(embeddings, annotations, k, r)


class TestPredict:
    def build(self, protos, pi):
        return em.AdaptedClassifier(
            prototypes=np.asarray(protos, dtype=float),
            class_prior=np.asarray(pi, dtype=float),
            confusions=(),
            responsibilities=np.ones((1, len(pi))) / len(pi),
        )

    def test_equidistant_uniform_prior(self):
        classifier = self.build([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
        log_probs = em.predict_log_probs(np.zeros(2), classifier)
        np.testing.assert_allclose(log_probs, math.log(0.5), rtol=0, atol=1e-12)

    def test_nearest_prototype_wins(self):
        classifier = self.build([[0.0, 0.0], [10.0, 0.0]], [0.5, 0.5])
        assert em.predict_labels(np.zeros(2), classifier) == 0

    def test_prior_tilt(self):
        classifier = self.build([[1.0, 0.0], [-1.0, 0.0]], [0.9, 0.1])
        log_probs = em.predict_log_probs(np.zeros(2), classifier)
        assert np.argmax(log_probs) == 0
        assert log_probs[0] - log_probs[1] == pytest.approx(math.log(9.0), rel=1e-12)

    def test_batch_matches_single(self):
        classifier = self.build([[1.0, 0.0], [-1.0, 2.0]], [0.3, 0.7])
        rng = stream(11, "predict-batch")
        batch = rng.standard_normal((5, 2))
        stacked = np.stack([em.predict_log_probs(u, classifier) for u in batch])
        np.testing.assert_array_equal(em.predict_log_probs(batch, classifier), stacked)

    def test_dimension_mismatch(self):
        classifier = self.build([[1.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match="dimension"):
            em.predict_log_probs(np.zeros(3), classifier)

    def test_tie_breaks_to_lowest_index(self):
        classifier = self.build([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
        assert em.predict_labels(np.zeros(2), classifier) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_em_outputs_always_stochastic(seed):
    # AdaptedClassifier checks nothing at run time; these are the invariants
    # it used to check on every classifier adapt built, one episode or stacked
    rng = stream(seed, "prop-task")
    num_classes = int(rng.integers(2, 5))
    size = int(rng.integers(2, 10))
    num_annotators = int(rng.integers(1, 4))
    tasks = [random_task(seed + t, num_classes, size, num_annotators) for t in range(3)]
    stacked = make_support(np.stack([t.embeddings for t in tasks]),
                           [t.annotations for t in tasks], num_classes, num_annotators)
    for support in (tasks[0], stacked):
        classifier = em.adapt(support, HYPER)
        lam, pi, alpha = classifier.responsibilities, classifier.class_prior, classifier.confusions
        assert lam.shape == support.embeddings.shape[:-1] + (num_classes,)
        assert alpha.shape == support.onehot.shape[:-3] + (num_annotators, num_classes, num_classes)
        np.testing.assert_allclose(lam.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pi.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(alpha.sum(axis=-2), 1.0, rtol=0, atol=1e-12)
        assert np.all(lam >= 0.0) and np.all(pi > 0.0) and np.all(alpha > 0.0)
