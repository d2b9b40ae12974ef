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
    """A support set from a label matrix, or from hand-written annotation maps."""
    if not isinstance(annotations, np.ndarray):
        annotations = em.label_matrix(annotations, num_annotators)
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
    onehot = em.one_hot_labels(em.label_matrix(annotations, num_annotators), num_classes)
    return em.init_responsibilities(onehot)


ANNOTATION_MAPS = st.lists(st.dictionaries(st.integers(0, 4), st.integers(0, 3),
                                           min_size=1, max_size=5), min_size=1, max_size=8)


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

    @given(ANNOTATION_MAPS)
    def test_rows_are_distributions(self, annotations):
        lam = vote_fractions(annotations, 4)
        assert np.all(lam >= 0.0)
        np.testing.assert_allclose(lam.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestShortAxes:
    """The slice-by-slice reductions equal numpy's reduce bitwise, on both sides of the floors."""

    ROWS = (3, em.SHORT_AXIS_ROWS - 1, em.SHORT_AXIS_ROWS, 2560)

    @staticmethod
    def stack(rng, rows, k, axis, dtype):
        # ``rows`` rows of k entries along ``axis``; for axis -2, in stacks of 4 columns
        if axis == -1:
            shape = (rows, k)
        else:
            shape = (rows // 4, k, 4) if rows % 4 == 0 else (rows, k, 1)
        if dtype is np.intp:
            return rng.integers(-50, 50, shape)
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
        x[rng.random(shape) < 0.05] = 0.0
        x[rng.random(shape) < 0.05] = -0.0
        x.reshape(-1, *shape[-1:])[1] = -0.0  # an all -0.0 row for axis -1
        return x

    def test_floors(self):
        assert em._by_slices(np.empty((em.SHORT_AXIS_ROWS, 4)), -1)
        assert not em._by_slices(np.empty((em.SHORT_AXIS_ROWS - 1, 4)), -1)
        assert em._by_slices(np.empty((32, 4, 4)), -2)
        assert not em._by_slices(np.empty((4096, em.SHORT_AXIS)), -1)
        assert not em._by_slices(np.empty((4096, 1)), -1)

    @pytest.mark.parametrize("dtype", [np.float64, np.intp], ids=["float", "int"])
    @pytest.mark.parametrize("ufunc", [np.add, np.maximum], ids=["add", "maximum"])
    def test_reduce_matches_numpy(self, ufunc, dtype):
        rng = np.random.default_rng(0)
        for k in range(1, 13):
            for rows in self.ROWS:
                for axis in (-1, -2):
                    x = self.stack(rng, rows, k, axis, dtype)
                    want = ufunc.reduce(x, axis=axis, keepdims=True)
                    assert same_bits(em._reduce(ufunc, x, axis), want), (k, rows, axis)

    def test_reduce_propagates_nan(self):
        x = np.random.default_rng(1).standard_normal((em.SHORT_AXIS_ROWS, 4))
        x[5, 2] = x[9, 0] = np.nan
        for ufunc in (np.add, np.maximum):
            assert same_bits(em._reduce(ufunc, x), ufunc.reduce(x, axis=-1, keepdims=True))

    @pytest.mark.parametrize("dtype", [np.float64, np.intp], ids=["float", "int"])
    def test_argmax_matches_numpy_with_ties(self, dtype):
        # entries from {0, 1, 2} tie often: the first maximum wins
        rng = np.random.default_rng(2)
        for k in range(1, 13):
            for rows in self.ROWS:
                x = rng.integers(0, 3, (rows, k)).astype(dtype)
                assert same_bits(em._argmax(x), np.argmax(x, axis=-1)), (k, rows)
                if rows % 4 == 0:
                    stacked = x.reshape(4, rows // 4, k)
                    assert same_bits(em._argmax(stacked), np.argmax(stacked, axis=-1))

    def test_argmax_matches_numpy_on_nan_and_infinite_rows(self):
        # a row holding a NaN gives its first NaN's index, as np.argmax does
        rng = np.random.default_rng(3)
        for k in range(1, 13):
            for rows in self.ROWS:
                x = rng.choice([-np.inf, -1.0, 0.0, 1.0, np.inf], (rows, k))
                x[rng.random((rows, k)) < 0.1] = np.nan
                x[0] = -np.inf
                assert same_bits(em._argmax(x), np.argmax(x, axis=-1)), (k, rows)

    @staticmethod
    def views(rng, rows, k):
        """``(name, view, axis)``: views whose ``axis`` has k entries over ``rows`` rows or more."""
        labels = rng.integers(-1, k, (2 * rows, 1, 3))
        labels[..., 0] = rng.integers(0, k, (2 * rows, 1))
        checked = em.CheckedLabels.check(labels, k)
        start = em.LabelStart.of(checked, HYPER)[::2]
        wide = TestShortAxes.stack(rng, 2 * rows, k, -1, np.float64)
        tall = wide.reshape(k, 2 * rows)
        return [("every other row", wide[::2], -1), ("every other column", tall[:, ::2], -2),
                ("swapaxes", tall[:, :rows].swapaxes(-1, -2), -1),
                ("swapaxes", wide[:rows].swapaxes(-1, -2), -2),
                ("LabelStart slice", start.responsibilities, -1),
                ("LabelStart slice", start.confusions, -2),
                ("CheckedLabels slice", checked[1::2].onehot, -1),
                ("CheckedLabels slice", checked[1::2].onehot, -2)]

    @pytest.mark.parametrize("rows", ROWS[1:])
    def test_fold_matches_numpy_on_views(self, rows):
        rng = np.random.default_rng(7)
        for k in range(2, em.SHORT_AXIS):
            for name, x, axis in self.views(rng, rows, k):
                assert not x.flags.c_contiguous, name
                if name in ("every other row", "every other column", "swapaxes"):
                    assert em._by_slices(x, axis) == (rows >= em.SHORT_AXIS_ROWS), (name, axis)
                for ufunc in (np.add, np.maximum):
                    want = ufunc.reduce(x, axis=axis, keepdims=True)
                    assert same_bits(em._reduce(ufunc, x, axis), want), (name, k, axis, ufunc)
                if axis == -1:
                    assert same_bits(em._argmax(x), np.argmax(x, axis=-1)), (name, k)

    def test_stacked_em_updates_keep_their_bits(self):
        # a stack of evaluation's shape: 128 tasks, 20 examples, 7 annotators, 4 classes
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 4, (128, 20, 7))
        support = em.SupportSet(rng.standard_normal((128, 20, 5)), labels, 4, 7)
        lam = rng.dirichlet(np.ones(4), (128, 20))
        counts = support.onehot.reshape(128, 20, 28).swapaxes(-1, -2) @ lam
        counts = counts.reshape(128, 7, 4, 4)
        confusions = (counts + 1.0) / (counts.sum(axis=-2, keepdims=True) + 4.0)
        assert same_bits(em.confusion_update(lam, support.onehot, 1.0), confusions)
        protos, pi = rng.standard_normal((128, 4, 5)), rng.dirichlet(np.ones(4), 128)
        scores = em._posterior_log_scores(support, protos, pi, confusions)
        shift = scores.max(axis=-1, keepdims=True)
        log_norm = shift + np.log(np.exp(scores - shift).sum(axis=-1, keepdims=True))
        assert same_bits(em.e_step(support, protos, pi, confusions), np.exp(scores - log_norm))

    def test_vote_counts_as_products(self):
        rng = np.random.default_rng(4)
        for r in range(1, 65):
            onehot = (rng.random((3, 5, r, 4)) < 0.4).astype(np.float64)
            assert same_bits(np.ones(r) @ onehot, onehot.sum(axis=-2)), r

    def test_vote_fractions_keep_their_bits(self):
        rng = np.random.default_rng(5)
        for r in (1, 3, 7, 25):
            labels = rng.integers(0, 4, (128, 20, r))
            labels[rng.random(labels.shape) < 0.3] = -1
            labels[..., 0] = rng.integers(0, 4, (128, 20))
            onehot = em.one_hot_labels(labels, 4)
            votes = onehot.sum(axis=-2)
            assert same_bits(em.init_responsibilities(onehot),
                             votes / votes.sum(axis=-1, keepdims=True)), r


class TestLabelMatrix:
    """The label matrix and its one-hot tensor against the annotation-map loop of ``loop_em``."""

    @given(ANNOTATION_MAPS, st.integers(1, 3))
    def test_onehot_matches_loop_oracle(self, annotations, episodes):
        labels = em.label_matrix(annotations, 5)
        oracle = loop_em.one_hot_annotations(annotations, 4, 5)
        support = make_support(np.zeros((len(annotations), 2)), labels, 4, 5)
        np.testing.assert_array_equal(support.onehot, oracle)
        np.testing.assert_array_equal(support.observed, oracle.sum(axis=-1) == 1.0)
        stacked = make_support(np.zeros((episodes, len(annotations), 2)),
                               np.stack([labels] * episodes), 4, 5)
        np.testing.assert_array_equal(stacked.onehot, np.stack([oracle] * episodes))

    def test_missing_labels_are_minus_one(self):
        labels = em.label_matrix([{1: 2}, {0: 0, 2: 1}], 3)
        assert labels.dtype == np.intp
        np.testing.assert_array_equal(labels, [[-1, 2, -1], [0, -1, 1]])

    def test_fractional_label_rejected(self):
        # the matrix is integer, so a fractional label would otherwise truncate
        with pytest.raises(ValueError, match="label 0.5 out of range at example 1"):
            em.label_matrix([{0: 1}, {0: 0.5}], 1)

    @pytest.mark.parametrize("maps, message", [
        ([{0: 1}, {}], "unannotated example at index 1"),
        ([{0: 1}, {1: 2}], "label 2 out of range at example 1"),
        ([{0: 1}, {0: -1}], "label -1 out of range at example 1"),
        ([{0: 1}, {3: 0}], "annotator index 3 out of range at example 1"),
        ([{0: 1}, {-1: 0}], "annotator index -1 out of range at example 1"),
    ])
    def test_messages_match_loop_oracle(self, maps, message):
        with pytest.raises(ValueError, match=message):
            loop_em.one_hot_annotations(maps, 2, 3)
        with pytest.raises(ValueError, match=message):
            make_support(np.zeros((2, 2)), maps, 2, 3)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_matrix_messages(self, stacked):
        labels = np.array([[0, -1], [1, 0], [-1, 1]])

        def support(labels):
            lead = (2,) if stacked else ()
            return em.SupportSet(np.zeros(lead + (3, 2)),
                                 np.broadcast_to(labels, lead + labels.shape), 2, 2)

        support(labels)
        with pytest.raises(em.UnannotatedExampleError, match="unannotated example at index 2"):
            support(np.where(np.arange(3)[:, None] == 2, -1, labels))
        for bad in (2, -2):
            with pytest.raises(ValueError, match=f"label {bad} out of range at example 1"):
                support(np.where(labels == 1, bad, labels))
        with pytest.raises(ValueError, match="3 annotator columns, not num_annotators = 2"):
            support(loop_em.with_silent_annotators(labels, 3))

    @pytest.mark.parametrize("shape, message", [
        ((0, 3), r"annotations \(0, 3\) have no examples \(N = 0\)"),
        ((4, 0), r"annotations \(4, 0\) have no annotators \(R = 0\)"),
        ((2, 0, 3), r"annotations \(2, 0, 3\) have no examples \(N = 0\)"),
        ((0, 4, 3), r"annotations \(0, 4, 3\) have no tasks"),
    ])
    def test_empty_axis_named(self, shape, message):
        # numpy's own "zero-size array to reduction operation" message named no axis
        with pytest.raises(ValueError, match=message):
            em.one_hot_labels(np.zeros(shape, dtype=np.intp), 3)

    def test_support_without_examples_rejected(self):
        with pytest.raises(ValueError, match=r"no examples \(N = 0\)"):
            em.SupportSet(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.intp), 2, 2)

    def test_annotation_maps_rejected_by_the_ems_inputs(self):
        with pytest.raises(ValueError, match="em.label_matrix converts annotation maps"):
            em.SupportSet(np.zeros((2, 2)), [{0: 0}, {0: 1}], 2, 1)


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
        a = np.exp(em.annotation_log_likelihood(support, [self.ALPHA]))
        np.testing.assert_allclose(a, [[0.8, 0.2]], rtol=1e-12)

    def test_two_annotators_multiply(self):
        support = make_support(np.zeros((1, 2)), [{0: 0, 1: 0}], 2, 2)
        a = np.exp(em.annotation_log_likelihood(support, [self.ALPHA, self.ALPHA]))
        np.testing.assert_allclose(a, [[0.64, 0.04]], rtol=1e-12)

    def test_spammers_are_uninformative(self):
        uniform = np.full((4, 4), 0.25)
        support = make_support(np.zeros((1, 2)), [{0: 2, 1: 3, 2: 0}], 4, 3)
        a = np.exp(em.annotation_log_likelihood(support, [uniform] * 3))
        np.testing.assert_allclose(a, 0.25**3, rtol=1e-12)

    def test_zero_entry_rejected(self):
        support = make_support(np.zeros((1, 2)), [{0: 0}], 2, 1)
        with pytest.raises(ValueError, match="zero confusion entry"):
            em.annotation_log_likelihood(support, [np.eye(2)])


class TestZeroCheckPaths:
    """Confusions that are not strictly positive skip the fast path.

    pyproject turns every RuntimeWarning into an error, so a case that
    returns also warned of nothing.
    """

    # label 0 from annotator 0, label 1 from annotator 1: row 2 of each
    # annotator's matrix is selected by no label
    ANNOTATIONS = [{0: 0, 1: 1}, {0: 0}]
    ALPHA = np.full((2, 3, 3), 1.0 / 3.0)

    def likelihood(self, confusions):
        support = make_support(np.zeros((2, 2)), self.ANNOTATIONS, 3, 2)
        return support, em.annotation_log_likelihood(support, confusions)

    def test_runtime_warnings_are_errors(self):
        with pytest.raises(RuntimeWarning):
            np.log(np.zeros(1))

    def test_hit_zero_raises(self):
        confusions = self.ALPHA.copy()
        confusions[1, 1, 2] = 0.0
        with pytest.raises(ValueError, match="zero confusion entry hit by an observed label"):
            self.likelihood(confusions)

    def test_unhit_zero_is_finite(self):
        confusions = self.ALPHA.copy()
        confusions[:, 2, :] = [0.0, 0.0, 1.0]
        _, log_a = self.likelihood(confusions)
        np.testing.assert_array_equal(log_a, self.likelihood(self.ALPHA)[1])

    @pytest.mark.parametrize("zero", [None, (0, 2, 1)], ids=["nan", "nan-and-unhit-zero"])
    def test_nan_propagates_as_the_product_does(self, zero):
        # the selected row (0, 0) holds the NaN; unhit zeros contribute 0
        confusions = self.ALPHA.copy()
        confusions[0, 0, 1] = np.nan
        log_alpha = np.log(self.ALPHA)
        log_alpha[0, 0, 1] = np.nan
        if zero is not None:
            confusions[zero] = 0.0
        support, log_a = self.likelihood(confusions)
        np.testing.assert_array_equal(log_a, support.onehot.reshape(2, 6) @ log_alpha.reshape(6, 3))
        assert np.isnan(log_a[:, 1]).all() and np.isfinite(log_a[:, [0, 2]]).all()

    def test_nan_with_hit_zero_raises(self):
        confusions = self.ALPHA.copy()
        confusions[0, 0, 1] = np.nan
        confusions[1, 1, 0] = 0.0
        with pytest.raises(ValueError, match="zero confusion entry hit by an observed label"):
            self.likelihood(confusions)

    def test_negative_entry_warns(self):
        confusions = self.ALPHA.copy()
        confusions[0, 2, 2] = -0.5
        with pytest.raises(RuntimeWarning, match="invalid value"):
            self.likelihood(confusions)


class TestDenseMatchesLoops:
    """The one-hot tensor products against the per-annotator loops of ``loop_em``."""

    # an annotator who errs onto one fixed label per class: rows 1 and 2
    # hold zeros, row 0 none
    FLIPPER = np.array([[0.7, 1.0 - 0.7, 1.0 - 0.7],
                        [1.0 - 0.7, 0.7, 0.0],
                        [0.0, 0.0, 0.7]])
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
        assert np.any((annotations >= 0).sum(axis=1) == 1)
        support = make_support(rng.standard_normal((30, 3)), annotations, 4, 6)
        self.compare(support, rng.dirichlet(np.ones(4), size=30), c=0.5)

    def test_silent_annotator_gets_exact_uniform(self):
        rng = stream(7, "dense-silent")
        truth = rng.integers(3, size=12)
        annotations = annotate(truth, [self.HAMMER] * 3, rng, label_fraction=0.5)
        annotations = loop_em.with_silent_annotators(annotations, 4)
        support = make_support(rng.standard_normal((12, 2)), annotations, 3, 4)
        confusions = self.compare(support, em.init_responsibilities(support.onehot))
        np.testing.assert_array_equal(confusions[3], np.full((3, 3), 1.0 / 3.0))

    def test_unhit_zero_entries_stay_finite(self):
        # the flipper only ever reports label 0, whose row has no zero
        annotations = em.label_matrix([{0: 0, 1: 0}, {0: 1, 1: 0}, {0: 2}, {0: 1, 1: 0}], 2)
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
        annotations = em.label_matrix([{0: 0, 1: 0}, {0: 1, 1: 2}], 2)  # label 2 hits zeros
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
                    for r, y in loop_em.label_pairs(support.annotations[n]):
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

    @pytest.mark.parametrize("dim", [3, 0])
    def test_no_positive_mass_rejected(self, dim):
        # an all-zero class prior puts every score at -inf; normalizing them
        # would give NaN responsibilities instead of this error
        support = random_task(6, num_classes=3, size=5, num_annotators=2, dim=dim)
        protos, _, confusions = em.m_step(em.init_responsibilities(support.onehot), support, HYPER)
        with np.errstate(divide="ignore"), pytest.raises(
            ValueError, match="no class has positive posterior mass for some example"
        ):
            em.e_step(support, protos, np.zeros(3), confusions)


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
            for r, y in loop_em.label_pairs(support.annotations[n]):
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
                for r, y in loop_em.label_pairs(support.annotations[n]):
                    a *= confusions[r][y, k]
                p *= gauss * pi[k] * a
            total += p
        expected = math.log(total) + em.log_prior(protos, pi, confusions, HYPER)
        assert got == pytest.approx(expected, rel=1e-10)

    @staticmethod
    def assert_monotone(support, hyper):
        lam = em.init_responsibilities(support.onehot)
        previous = None
        for _ in range(hyper.em_steps):
            protos, pi, confusions = em.m_step(lam, support, hyper)
            value = em.log_posterior(support, protos, pi, confusions, hyper)
            if previous is not None:
                assert value >= previous - 1e-9
            previous = value
            lam = em.e_step(support, protos, pi, confusions)

    def test_monotone_across_em_iterations(self):
        hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=8)
        for t in range(40):
            self.assert_monotone(random_task(200 + t, num_classes=3, size=10, num_annotators=3),
                                 hyper)

    def test_monotone_at_zero_width(self):
        # C1 for Dawid-Skene: the EM on a zero-width support, dense and sparse
        dist = AnnotatorDistribution.expert_hammer_spammer(0.2, 0.6, 0.2)
        for t in range(200):
            k, r = 2 + t % 5, 2 + t % 4
            rng = stream(t, "zero-width-c1")
            _, confusions = sample_annotator_pool(dist, r, k, rng)
            labels = annotate(rng.integers(k, size=12), confusions, rng,
                              label_fraction=(1.0, 0.3)[t % 2])
            self.assert_monotone(em.SupportSet(np.zeros((12, 0)), labels, k, r),
                                 em.PriorHyperparams(em_steps=10))


class TestBackward:
    """``em.backward`` against central differences in the support embeddings."""

    @staticmethod
    def assert_matches_finite_differences(embeddings, annotations, num_classes, hyper, seed):
        r = annotations.shape[-1]

        def last_step(u):
            *_, last = em.iterate(em.SupportSet(u, annotations, num_classes, r), hyper)
            return last.prototypes, last.class_prior

        support = em.SupportSet(embeddings, annotations, num_classes, r)
        # the last confusions feed nothing the pass reads
        steps = list(em.iterate(support, hyper, last_confusions=False))
        rng = stream(seed, "backward-weights")
        # the scalar sum(w_protos * prototypes) + sum(w_pi * class prior)
        w_protos, w_pi = (rng.standard_normal(a.shape) for a in last_step(embeddings))
        grad = em.backward(support, hyper, steps, w_protos, w_pi)
        fd = np.empty_like(embeddings)
        for i in np.ndindex(embeddings.shape):
            values = []
            for sign in (1.0, -1.0):
                u = embeddings.copy()
                u[i] += sign * 1e-6
                protos, pi = last_step(u)
                values.append(np.sum(w_protos * protos) + np.sum(w_pi * pi))
            fd[i] = (values[0] - values[1]) / 2e-6
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("em_steps", [1, 2, 3])
    def test_stacked_sparse_labels(self, em_steps):
        # 30% of (example, annotator) pairs kept, a fifth annotator who labels nothing
        rng = stream(em_steps, "backward-stacked")
        dist = AnnotatorDistribution.expert_hammer_spammer(0.2, 0.6, 0.2)
        truth = np.repeat(np.arange(4), 3)
        annotations = []
        for _ in range(3):
            _, confusions = sample_annotator_pool(dist, 4, 4, rng)
            annotations.append(loop_em.with_silent_annotators(
                annotate(truth, confusions, rng, label_fraction=0.3), 5))
        annotations = np.stack(annotations)
        assert np.any((annotations >= 0).sum(axis=-1) == 1)
        embeddings = rng.standard_normal((3, 12, 3))
        hyper = em.PriorHyperparams(em_steps=em_steps)
        self.assert_matches_finite_differences(embeddings, annotations, 4, hyper, em_steps)

    @pytest.mark.parametrize("em_steps", [1, 2])
    def test_zero_tau_with_an_unnamed_class(self, em_steps):
        # nobody reports class 3, so its first prototype denominator is 0
        truth = np.repeat(np.arange(4), 3)
        annotations = em.label_matrix([{0: int(y) % 3, 1: 0} for y in truth], 2)
        embeddings = stream(em_steps, "backward-zero-tau").standard_normal((12, 3))
        hyper = em.PriorHyperparams(tau=0.0, em_steps=em_steps, allow_zero_tau=True)
        self.assert_matches_finite_differences(embeddings, annotations, 4, hyper, em_steps)


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

    def test_numpy_integer_em_steps(self):
        hyper = em.PriorHyperparams(em_steps=np.int64(2))
        assert hyper.em_steps == 2 and type(hyper.em_steps) is int
        for steps in (2.0, np.float64(2.0), 0, np.int64(0)):
            with pytest.raises(ValueError, match="em_steps must be an integer >= 1"):
                em.PriorHyperparams(em_steps=steps)

    def test_zero_tau_requires_explicit_override(self):
        with pytest.raises(ValueError, match="tau"):
            em.PriorHyperparams(tau=0.0)

    @pytest.mark.parametrize("field", ["tau", "b", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_prior_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite and > 0"):
            em.PriorHyperparams(**{field: value}, allow_zero_tau=True)


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
        annotations = np.stack([
            annotate(truth, confusions, rng),
            loop_em.with_silent_annotators(annotate(truth, sparse, rng, label_fraction=0.3),
                                           num_annotators),
            em.label_matrix([{0: int(y) % (ways - 1), 2: 0} for y in truth], num_annotators),
        ])
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

    def test_log_posterior_per_episode(self):
        # C1 on the stacked EM: one value per episode, never decreasing and
        # equal to that episode's value alone
        embeddings, annotations, k, r = self.episodes(5)
        stacked = em.SupportSet(embeddings, annotations, k, r)
        alone = [em.SupportSet(embeddings[b], annotations[b], k, r) for b in range(3)]
        hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=8)
        lam = em.init_responsibilities(stacked.onehot)
        previous = None
        for _ in range(hyper.em_steps):
            protos, pi, confusions = em.m_step(lam, stacked, hyper)
            values = em.log_posterior(stacked, protos, pi, confusions, hyper)
            assert values.shape == (3,)
            for b, support in enumerate(alone):
                single = em.log_posterior(support, protos[b], pi[b], confusions[b], hyper)
                assert isinstance(single, float)
                assert values[b] == pytest.approx(single, rel=1e-13, abs=0)
            if previous is not None:
                assert np.all(values >= previous - 1e-9)
            previous = values
            lam = em.e_step(stacked, protos, pi, confusions)

    def test_predict_matches_each_episode(self):
        embeddings, annotations, k, r = self.episodes(6)
        classifier = em.adapt(em.SupportSet(embeddings, annotations, k, r), HYPER)
        queries = stream(12, "predict-stacked").standard_normal((3, 5, 3))
        log_probs = em.predict_log_probs(queries, classifier)
        labels = em.predict_labels(queries, classifier)
        assert log_probs.shape == (3, 5, k) and labels.shape == (3, 5)
        for b in range(3):
            alone = em.AdaptedClassifier(*(getattr(classifier, name)[b] for name in (
                "prototypes", "class_prior", "confusions", "responsibilities")))
            np.testing.assert_allclose(log_probs[b], em.predict_log_probs(queries[b], alone),
                                       rtol=1e-13, atol=0)
            np.testing.assert_array_equal(labels[b], em.predict_labels(queries[b], alone))
        with pytest.raises(ValueError, match=r"dimension 4 does not match prototypes \(3\)"):
            em.predict_labels(np.zeros((3, 5, 4)), classifier)

    def test_annotation_count_mismatch_rejected(self):
        embeddings, annotations, k, r = self.episodes(3)
        with pytest.raises(ValueError, match="annotation count"):
            em.SupportSet(embeddings, annotations[:2], k, r)
        with pytest.raises(ValueError, match="annotation count"):
            em.SupportSet(embeddings, annotations[:, :-1], k, r)
        with pytest.raises(ValueError, match=f"{r - 1} annotator columns, not num_annotators = {r}"):
            em.SupportSet(embeddings, annotations[..., :-1], k, r)

    @pytest.mark.parametrize("em_steps", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 4, 64])
    def test_block_start_slices_match_a_start_per_slice(self, batch, em_steps):
        # training builds the label-only start once for a block of 64 episodes
        # and slices it per meta-batch: each slice must have the bits of the
        # start built on that meta-batch's labels alone.  Labels have gaps
        # (-1), and the last annotator labels nothing.
        rng = stream(batch, "block-start")
        labels = rng.integers(-1, 4, size=(64, 12, 5))
        labels[..., 0] = rng.integers(4, size=(64, 12))
        labels[..., -1] = -1
        hyper = em.PriorHyperparams(b=100.0, em_steps=em_steps)
        start = em.LabelStart.of(em.CheckedLabels.check(labels, 4), hyper)
        assert (start.log_a is None) == (em_steps == 1)
        for at in range(0, 64, batch):
            part = slice(at, at + batch)
            sliced = start[part]
            alone = em.LabelStart.of(em.CheckedLabels.check(labels[part].copy(), 4), hyper)
            for name in ("responsibilities", "class_mass", "class_prior", "confusions",
                         "log_a"):
                got, expected = getattr(sliced, name), getattr(alone, name)
                if expected is None:
                    assert got is None
                    continue
                assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
                assert got.tobytes() == expected.tobytes(), (name, at)

    def test_checked_labels_keep_the_shape_checks(self):
        # checked labels skip validation, not the checks against the embeddings
        embeddings, annotations, k, r = self.episodes(3)
        checked = em.CheckedLabels.check(annotations, k)
        with pytest.raises(ValueError, match="annotation count"):
            em.SupportSet(embeddings, checked[:2], k, r)
        with pytest.raises(ValueError, match="annotation count"):
            em.SupportSet(embeddings, checked[:, :-1], k, r)
        with pytest.raises(ValueError, match=f"{r - 1} annotator columns, not num_annotators = {r}"):
            em.SupportSet(embeddings, em.CheckedLabels.check(annotations[..., :-1], k), k, r)
        with pytest.raises(ValueError, match=f"checked for {k + 1} classes, not num_classes = {k}"):
            em.SupportSet(embeddings, em.CheckedLabels.check(annotations, k + 1), k, r)

    def test_out_of_range_label_rejected(self):
        embeddings, annotations, k, r = self.episodes(4)
        annotations[2, 5, 0] = k
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

    def test_labels_are_the_argmax_of_the_log_probs(self):
        rng = stream(13, "predict-argmax")
        classifier = self.build(rng.standard_normal((4, 5, 3)), rng.dirichlet(np.ones(5), size=4))
        queries = 2.0 * rng.standard_normal((4, 50, 3))
        log_probs = em.predict_log_probs(queries, classifier)
        labels = em.predict_labels(queries, classifier)
        assert labels.shape == (4, 50)
        top = np.sort(log_probs, axis=-1)
        unique = top[..., -1] > top[..., -2]
        assert unique.mean() > 0.9
        np.testing.assert_array_equal(labels[unique], np.argmax(log_probs, axis=-1)[unique])

    def test_single_vector_gives_a_0d_label(self):
        classifier = self.build([[1.0, 0.0], [-1.0, 2.0]], [0.3, 0.7])
        label = em.predict_labels(np.array([-1.0, 1.5]), classifier)
        assert np.ndim(label) == 0 and label == 1

    def test_stacked_tie_breaks_to_lowest_index(self):
        # every query is equidistant from the two classes it ties between
        classifier = self.build([[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                                 [[5.0, 5.0], [0.0, 1.0], [0.0, -1.0]]],
                                [[0.25, 0.25, 0.5], [0.2, 0.4, 0.4]])
        queries = np.array([[[0.0, -3.0], [0.0, -1.0]], [[3.0, 0.0], [-2.0, 0.0]]])
        scores = em.class_log_scores(queries, classifier.prototypes, classifier.class_prior)
        np.testing.assert_array_equal(scores[0, :, 0], scores[0, :, 1])
        np.testing.assert_array_equal(scores[1, :, 1], scores[1, :, 2])
        np.testing.assert_array_equal(em.predict_labels(queries, classifier), [[0, 0], [1, 1]])


class TestClassScores:
    """The class scores drop the row constant ``-0.5 |u_n|^2``, which no softmax or argmax sees."""

    @staticmethod
    def exact_log_scores(u, protos, pi, log_a=0.0):
        # the Gaussian scores from direct differences in long double: no digits lost far out
        u, protos, pi = (x.astype(np.longdouble) for x in (u, protos, pi))
        diff = u[..., :, None, :] - protos[..., None, :, :]
        return -0.5 * (diff * diff).sum(axis=-1) + np.log(pi)[..., None, :] + log_a

    @staticmethod
    def exact_softmax(scores):
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        return weights / weights.sum(axis=-1, keepdims=True)

    @staticmethod
    def episodes(offset, batch=4, ways=3, size=9, num_annotators=4):
        tasks = [random_task(70 + b, ways, size, num_annotators, dim=5) for b in range(batch)]
        support = make_support(np.stack([t.embeddings for t in tasks]) + offset,
                               np.stack([t.annotations for t in tasks]), ways, num_annotators)
        rng = stream(71, "class-scores")
        protos = rng.standard_normal((batch, ways, 5)) + offset
        pi = rng.dirichlet(np.ones(ways), batch)
        lam = rng.dirichlet(np.ones(ways), (batch, size))
        return support, protos, pi, em.confusion_update(lam, support.onehot, 1.0)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
    def test_adding_the_row_constant_gives_the_gaussian_scores(self, lead):
        rng = stream(72, "class-scores", len(lead))
        u, protos = rng.standard_normal(lead + (7, 5)), rng.standard_normal(lead + (4, 5))
        pi = rng.dirichlet(np.ones(4), lead or None)
        scores = em.class_log_scores(u, protos, pi)
        assert scores.shape == lead + (7, 4)
        oracle = -0.5 * em.squared_distances(u, protos) + np.log(pi)[..., None, :]
        np.testing.assert_allclose(scores - 0.5 * (u * u).sum(axis=-1)[..., None], oracle,
                                   rtol=1e-12, atol=0)

    def test_e_step_matches_loop_oracle_on_stacks(self):
        support, protos, pi, confusions = self.episodes(0.0)
        oracle = [loop_em.e_step(support.embeddings[b], support.annotations[b], protos[b], pi[b],
                                 list(confusions[b])) for b in range(len(protos))]
        np.testing.assert_allclose(em.e_step(support, protos, pi, confusions), np.stack(oracle),
                                   rtol=0, atol=1e-12)

    @staticmethod
    def assert_same_order_of_error(got, oracle, exact):
        # 1e4 out, both forms round sums of size |u| |mu| ~ 5e8, so neither keeps all digits.
        # The E step's scores keep that size through adding log a and subtracting the log
        # normalizer, two more roundings: over 20 other draws its error measured 1.1 to 1.7
        # times the expanded form's, and the log-softmax's 0.9 to 1.1 times.  Same digits.
        rms, oracle_rms = (float(np.sqrt(np.mean((x - exact) ** 2))) for x in (got, oracle))
        assert rms <= 2.0 * oracle_rms and np.abs(got - exact).max() < 1e-6, (rms, oracle_rms)

    def test_e_step_far_from_the_origin(self):
        support, protos, pi, confusions = self.episodes(1e4, batch=16, size=20)
        log_a = em.annotation_log_likelihood(support, confusions)
        exact = self.exact_softmax(self.exact_log_scores(support.embeddings, protos, pi, log_a))
        oracle = np.stack([loop_em.e_step(support.embeddings[b], support.annotations[b], protos[b],
                                          pi[b], list(confusions[b])) for b in range(len(protos))])
        self.assert_same_order_of_error(em.e_step(support, protos, pi, confusions), oracle, exact)

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_predictions_match_loop_oracle_on_stacks(self, offset):
        _, protos, pi, _ = self.episodes(offset)
        queries = stream(73, "class-scores-queries").standard_normal((len(protos), 40, 5)) + offset
        classifier = em.AdaptedClassifier(protos, pi, np.zeros((len(protos), 0, 3, 3)), None)
        log_probs = em.predict_log_probs(queries, classifier)
        labels = em.predict_labels(queries, classifier)
        oracle = np.stack([loop_em.predict_log_probs(*task) for task in zip(queries, protos, pi)])
        exact = np.log(self.exact_softmax(self.exact_log_scores(queries, protos, pi)))
        if offset == 0.0:
            np.testing.assert_allclose(log_probs, oracle, rtol=1e-12, atol=1e-12)
        else:
            self.assert_same_order_of_error(log_probs, oracle, exact)
        top = np.sort(exact, axis=-1)
        clear = top[..., -1] - top[..., -2] > 1e-6  # no rounding tie
        assert clear.mean() > 0.9
        want = np.argmax(exact, axis=-1)
        np.testing.assert_array_equal(labels[clear], want[clear])
        np.testing.assert_array_equal(np.argmax(oracle, axis=-1)[clear], want[clear])

    def test_vjp_matches_finite_differences_for_any_row_sums(self):
        rng = stream(74, "class-scores-vjp")
        u, protos = rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 4, 3))
        pi = rng.dirichlet(np.ones(4), 2)
        weights = rng.standard_normal((2, 5, 4)) + 1.0
        assert np.abs(weights.sum(axis=-1)).min() > 0.1  # not the gradient of a softmax input
        grads = em.class_log_scores_vjp(weights, u, protos, pi)
        args = [u, protos, pi]
        for i, grad in enumerate(grads):
            numeric = np.zeros_like(args[i])
            for idx in np.ndindex(args[i].shape):
                values = []
                for h in (1e-6, -1e-6):
                    moved = [a.copy() for a in args]
                    moved[i][idx] += h
                    values.append(np.sum(weights * em.class_log_scores(*moved)))
                numeric[idx] = (values[0] - values[1]) / 2e-6
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8, err_msg=str(i))


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
                           np.stack([t.annotations for t in tasks]), num_classes, num_annotators)
    for support in (tasks[0], stacked):
        classifier = em.adapt(support, HYPER)
        lam, pi, alpha = classifier.responsibilities, classifier.class_prior, classifier.confusions
        assert lam.shape == support.embeddings.shape[:-1] + (num_classes,)
        assert alpha.shape == support.onehot.shape[:-3] + (num_annotators, num_classes, num_classes)
        np.testing.assert_allclose(lam.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pi.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(alpha.sum(axis=-2), 1.0, rtol=0, atol=1e-12)
        assert np.all(lam >= 0.0) and np.all(pi > 0.0) and np.all(alpha > 0.0)
