"""Annotator profiles, confusion construction, and label sampling."""

import copy
import json
import re

import numpy as np
import pytest

import loop_annotators
from crowdmeta import annotators, em
from crowdmeta.annotators import (
    ACCURACY_RANGES,
    KINDS,
    AnnotatorDistribution,
    AnnotatorKind,
    AnnotatorProfile,
    annotate,
    block_size,
    profile_to_confusion,
    pseudo_annotate,
    sample_annotator_pool,
    simulate_annotators,
)
from crowdmeta.seeding import stream, stream_seed, uniforms


EHS = AnnotatorDistribution.expert_hammer_spammer


class TestDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EHS(0.5, 0.5, 0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EHS(-0.1, 0.9, 0.2)

    def test_nan_weight_rejected(self):
        # a NaN total fails no `> 1e-12` test, and NaN sorts no label into the CDF
        with pytest.raises(ValueError, match="NaN weight for expert"):
            EHS(float("nan"), 0.5, 0.5)

    def test_serializes(self):
        dist = EHS(0.1, 0.7, 0.2)
        assert dist.to_dict() == {"expert": 0.1, "hammer": 0.7, "spammer": 0.2}


class TestSampleProfile:
    """Annotator profiles as :func:`sample_annotator_pool` draws them."""

    def test_pure_expert_distribution(self):
        profiles, _ = sample_annotator_pool(EHS(1.0, 0.0, 0.0), 50, 4, stream(0, "profahs"))
        for profile in profiles:
            assert profile.kind is AnnotatorKind.EXPERT
            assert 0.8 < profile.q <= 1.0

    def test_degenerate_spammer(self):
        (profile,), _ = sample_annotator_pool(EHS(0.0, 0.0, 1.0), 1, 4, stream(1, "spam"))
        assert profile.kind is AnnotatorKind.SPAMMER
        assert profile.q is None

    def test_same_seed_same_profile(self):
        dist = EHS(0.2, 0.5, 0.3)
        a, _ = sample_annotator_pool(dist, 3, 4, stream(7, "det"))
        b, _ = sample_annotator_pool(dist, 3, 4, stream(7, "det"))
        assert a == b

    def test_q_ranges_hold_over_many_draws(self):
        profiles, _ = sample_annotator_pool(EHS(0.4, 0.4, 0.2), 400, 4, stream(2, "ranges"))
        for profile in profiles:
            if profile.kind in ACCURACY_RANGES:
                lo, hi = ACCURACY_RANGES[profile.kind]
                assert lo < profile.q <= hi

    def test_matches_loop(self):
        # pools of one, so each draw may take another class count; each pool
        # reads its block's two doubles, of which the loop replays what it needs
        dist = EHS(0.3, 0.4, 0.3)
        rng = stream(16, "one")
        copied = copy.deepcopy(rng)
        for k in range(2, 60):
            (profile,), _ = sample_annotator_pool(dist, 1, 2 + k % 9, rng)
            replay = loop_annotators.Replay(copied.random(block_size(1, 0)))
            assert profile == loop_annotators.sample_profile(dist, 2 + k % 9, replay)
        assert rng.random() == copied.random()

    def test_too_few_classes(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_annotator_pool(EHS(1.0, 0.0, 0.0), 1, 1, stream(5, "k1"))


class TestProfileToConfusion:
    def test_expert_088(self):
        alpha = profile_to_confusion(
            AnnotatorProfile(AnnotatorKind.EXPERT, q=0.88), 4
        )
        np.testing.assert_allclose(np.diag(alpha), 0.88)
        off = alpha[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.04)

    def test_spammer_uniform(self):
        alpha = profile_to_confusion(AnnotatorProfile(AnnotatorKind.SPAMMER), 4)
        np.testing.assert_allclose(alpha, 0.25)

    def test_matches_loop(self):
        for k in range(2, 11):
            for profile in (AnnotatorProfile(AnnotatorKind.SPAMMER),
                            AnnotatorProfile(AnnotatorKind.HAMMER, q=0.5000001),
                            AnnotatorProfile(AnnotatorKind.HAMMER, q=0.7),
                            AnnotatorProfile(AnnotatorKind.EXPERT, q=0.83),
                            AnnotatorProfile(AnnotatorKind.EXPERT, q=1.0)):
                alpha = profile_to_confusion(profile, k)
                oracle = loop_annotators.profile_to_confusion(profile, k)
                assert alpha.shape == (k, k) and alpha.tobytes() == oracle.tobytes()

    def test_every_kind_column_stochastic(self):
        rng = stream(6, "stoch")
        dists = [
            EHS(0.3, 0.3, 0.4),
            AnnotatorDistribution(((AnnotatorKind.SPAMMER, 0.4), (AnnotatorKind.HAMMER, 0.6))),
        ]
        for _ in range(200):
            dist = dists[int(rng.integers(2))]
            k = int(rng.integers(2, 7))
            (profile,), _ = sample_annotator_pool(dist, 1, k, rng)
            alpha = profile_to_confusion(profile, k)
            assert alpha.shape == (k, k) and np.all((alpha >= 0.0) & (alpha <= 1.0))
            np.testing.assert_allclose(alpha.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError, match="accuracy"):
            AnnotatorProfile(AnnotatorKind.EXPERT, q=0.5)
        with pytest.raises(ValueError, match="accuracy"):
            AnnotatorProfile(AnnotatorKind.HAMMER, q=0.9)
        with pytest.raises(ValueError, match="accuracy"):
            AnnotatorProfile(AnnotatorKind.HAMMER)
        with pytest.raises(ValueError, match="spammer has no accuracy"):
            AnnotatorProfile(AnnotatorKind.SPAMMER, q=0.5)


class TestAnnotate:
    def test_noiseless_identity(self):
        truth = np.array([0, 1, 2, 1, 0])
        annotations = annotate(truth, [np.eye(3), np.eye(3)], stream(7, "ident"))
        assert annotations.dtype == np.intp
        np.testing.assert_array_equal(annotations, np.stack([truth, truth], axis=1))

    def test_spammer_frequencies(self):
        truth = np.zeros(10_000, dtype=int)
        alpha = np.full((4, 4), 0.25)
        annotations = annotate(truth, [alpha], stream(8, "spamfreq"))
        votes = np.bincount(annotations[:, 0], minlength=4) / 10_000
        np.testing.assert_allclose(votes, 0.25, rtol=0, atol=0.02)

    def test_expert_accuracy_frequency(self):
        rng = stream(9, "expfreq")
        truth = rng.integers(4, size=10_000)
        alpha = profile_to_confusion(AnnotatorProfile(AnnotatorKind.EXPERT, q=0.9), 4)
        annotations = annotate(truth, [alpha], rng)
        hits = np.mean(annotations[:, 0] == truth)
        assert hits == pytest.approx(0.9, abs=0.02)

    def test_sparse_labeling_keeps_one_per_example(self):
        truth = np.zeros(500, dtype=int)
        confusions = [np.eye(2)] * 3
        annotations = annotate(truth, confusions, stream(10, "sparse"),
                               label_fraction=0.2)
        sizes = (annotations >= 0).sum(axis=1)
        assert np.all((annotations == -1) | (annotations == 0))
        assert min(sizes) >= 1
        assert np.mean(sizes) < 1.5  # far below the dense 3 labels/example

    def test_invalid_fraction(self):
        with pytest.raises(ValueError, match="label_fraction"):
            annotate(np.zeros(3, dtype=int), [np.eye(2)], stream(11, "bad"),
                     label_fraction=0.0)

    @pytest.mark.parametrize("truth, bad", [([0, -2, 1, 5], -2), ([0, 1, 3, -1], 3)])
    def test_true_labels_outside_the_classes_rejected_before_drawing(self, truth, bad):
        # a negative label would index a confusion column from the end
        rng = stream(11, "bad")
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"^true label {bad} is outside 0\.\.2$"):
            annotate(np.array(truth), [np.eye(3)] * 2, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("confusions, shape", [
        ([], r"\(0,\)"),
        ([np.eye(2)[0]], r"\(1, 2\)"),
        (np.ones((2, 3, 2)) / 3, r"\(2, 3, 2\)"),
        ([np.ones((1, 1))], r"\(1, 1, 1\)"),
        (np.empty((0, 2, 2)), r"\(0, 2, 2\)"),
    ], ids=["empty", "matrix", "not-square", "one-class", "no-annotator"])
    def test_confusions_not_an_annotator_stack_rejected_before_drawing(self, confusions, shape):
        rng = stream(11, "bad")
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"^confusions must be an \(R, K, K\) stack .* "
                                             rf"got shape {shape}$"):
            annotate(np.array([0, 1]), confusions, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("confusions, r, k", [
        ([np.eye(2) * np.nan], 0, 0),
        ([np.full((2, 2), -1.0)], 0, 0),
        ([np.eye(2), [[1.0, 0.5], [np.inf, 0.5]]], 1, 0),
        ([[[np.inf, 0.5], [-np.inf, 0.5]]], 0, 0),
        ([[[1.0, -0.5], [0.0, 1.5]]], 0, 1),
        ([np.eye(3), np.eye(3), [[0.5, 0.2, 0.3], [0.5, 0.2, 0.3], [0.0, 0.5, 0.4]]], 2, 1),
    ], ids=["nan", "negative", "infinite", "inf-and-minus-inf", "negative-summing-to-1",
            "sum-0.9"])
    def test_confusion_column_not_a_distribution_rejected_before_drawing(self, confusions, r,
                                                                          k):
        # a NaN column labels every example 0, a column of -1 every example 1
        rng = stream(11, "bad")
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"^annotator {r}'s confusion column {k} is not "
                                             rf"a distribution"):
            annotate(np.array([0, 1]), confusions, rng)
        assert rng.bit_generator.state == before

    def test_column_sums_within_the_tolerance_accepted(self):
        tol = annotators.COLUMN_SUM_TOLERANCE
        alpha = np.array([[0.75, 0.25], [0.25, 0.75]])
        rng = stream(11, "tolerance")
        annotate(np.array([0, 1]), [alpha + [[0.0, 0.0], [0.0, tol / 2]]], rng)
        # probabilities rounded to float32: a column sums to 1 + 1.5e-8
        annotate(np.array([0, 1]), [np.array([[0.7, 0.2], [0.3, 0.8]], dtype=np.float32)], rng)
        with pytest.raises(ValueError, match="^annotator 0's confusion column 1 "):
            annotate(np.array([0, 1]), [alpha + [[0.0, 0.0], [0.0, 2 * tol]]], rng)

    @pytest.mark.parametrize("truth, message", [
        ([0.7, 1.2], "true labels must be integers, got float64"),
        (np.array([True, False]), "true labels must be integers, got bool"),
        ([[0, 1]], r"true labels \(1, 2\) are not one task's \(N,\) vector"),
        (1, r"true labels \(\) are not one task's \(N,\) vector"),
    ], ids=["float", "bool", "2-d", "scalar"])
    def test_true_labels_not_an_integer_vector_rejected_before_drawing(self, truth, message):
        # float labels were truncated, and a (1, N) matrix gave a (1, N, 1) result
        for call in (lambda rng: annotate(truth, [np.eye(2)], rng),
                     lambda rng: pseudo_annotate(truth, 2, EHS(0.1, 0.7, 0.2), 2, rng)):
            rng = stream(11, "bad")
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match=rf"^{message}$"):
                call(rng)
            assert rng.bit_generator.state == before

    def test_any_integer_type_and_no_labels_accepted(self):
        rng = stream(11, "types")
        for truth in (np.array([1, 0], dtype=np.uint8), np.array([1, 0], dtype=np.int32)):
            labels = annotate(truth, [np.eye(2)], rng)
            assert labels.dtype == np.intp and labels.tolist() == [[1], [0]]
        assert annotate([], [np.eye(2)], rng).shape == (0, 1)  # no values to truncate

    @pytest.mark.parametrize("label_fraction", [np.nan, 2.0, 0.0, -0.5])
    def test_fraction_outside_unit_interval_rejected_before_drawing(self, label_fraction):
        rng = stream(11, "bad")
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"label_fraction must be in \(0, 1\]"):
            annotate(np.arange(3) % 2, [np.eye(2)] * 2, rng, label_fraction=label_fraction)
        assert rng.bit_generator.state == before


class TestPseudoAnnotate:
    def test_shape(self):
        truth = np.repeat(np.arange(4), 3)
        annotations, confusions = pseudo_annotate(
            truth, 5, EHS(0.1, 0.7, 0.2), 4, stream(12, "shape")
        )
        assert annotations.shape == (12, 5)
        assert np.all(annotations >= 0)
        assert len(confusions) == 5

    def test_deterministic(self):
        truth = np.repeat(np.arange(3), 2)
        dist = EHS(0.1, 0.7, 0.2)
        a1, c1 = pseudo_annotate(truth, 3, dist, 3, stream(13, "det"))
        a2, c2 = pseudo_annotate(truth, 3, dist, 3, stream(13, "det"))
        np.testing.assert_array_equal(a1, a2)
        for x, y in zip(c1, c2):
            np.testing.assert_array_equal(x, y)

    def test_fresh_draws_differ(self):
        truth = np.repeat(np.arange(3), 2)
        dist = EHS(0.1, 0.7, 0.2)
        _, c1 = pseudo_annotate(truth, 3, dist, 3, stream(14, "fresh", 1))
        _, c2 = pseudo_annotate(truth, 3, dist, 3, stream(14, "fresh", 2))
        assert any(not np.array_equal(x, y) for x, y in zip(c1, c2))

    def test_true_labels_outside_the_classes_rejected(self):
        rng = stream(12, "bad")
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^true label -2 is outside 0\.\.2$"):
            pseudo_annotate([-2, 0], 2, EHS(0.1, 0.7, 0.2), 3, rng)
        assert rng.bit_generator.state == before  # checked before the block is drawn

    def test_too_few_classes_rejected_before_drawing(self):
        for call in (lambda rng: pseudo_annotate([0, 0], 2, EHS(0.1, 0.7, 0.2), 1, rng),
                     lambda rng: sample_annotator_pool(EHS(0.1, 0.7, 0.2), 3, 1, rng)):
            rng = stream(12, "bad")
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match="at least 2 classes"):
                call(rng)
            assert rng.bit_generator.state == before

    @pytest.mark.parametrize("r", [-1, 0, 2.0, "3", True])
    def test_annotator_count_not_a_positive_integer_rejected_before_drawing(self, r):
        # -1 failed inside numpy, 0 gave an empty pool, and True, an int to
        # isinstance, failed inside numpy after the draw
        for call in (lambda rng: pseudo_annotate([0, 1], r, EHS(0.1, 0.7, 0.2), 3, rng),
                     lambda rng: sample_annotator_pool(EHS(0.1, 0.7, 0.2), r, 3, rng)):
            rng = stream(12, "bad")
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match=rf"^num_annotators must be an integer >= 1, "
                                                 rf"got {re.escape(repr(r))}$"):
                call(rng)
            assert rng.bit_generator.state == before

    def test_numpy_integer_annotator_count_accepted(self):
        labels, confusions = pseudo_annotate([0, 1], np.int64(2), EHS(0.1, 0.7, 0.2), 3,
                                             stream(12, "count"))
        assert labels.shape == (2, 2) and len(confusions) == 2

    def test_profiles_serialize(self):
        profiles, _ = sample_annotator_pool(EHS(0.3, 0.4, 0.3), 6, 4, stream(15, "ser"))
        for profile in profiles:
            d = json.loads(json.dumps(vars(profile)))
            assert d["kind"] in {k.value for k in AnnotatorKind}
            assert (d["q"] is None) == (profile.kind is AnnotatorKind.SPAMMER)


class TestMatchesLoops:
    """Per-task sampling against the per-annotator loops of ``loop_annotators``.

    Each package call reads one block of doubles; the loops replay them
    (``loop_annotators.Replay``), one ``Generator.choice`` per kind and one
    ``random`` per accuracy and per annotator's labels.
    """

    DISTS = (
        EHS(0.25, 0.25, 0.5),
        EHS(0.1, 0.7, 0.2),
        AnnotatorDistribution((  # zero weights leave flat CDF steps
            (AnnotatorKind.SPAMMER, 0.5),
            (AnnotatorKind.EXPERT, 0.0),
            (AnnotatorKind.HAMMER, 0.5),
        )),
    )

    @pytest.mark.parametrize("label_fraction", [1.0, 0.3, 0.05])
    def test_same_draws(self, label_fraction):
        kinds = set()
        for seed in range(300):
            dist = self.DISTS[seed % len(self.DISTS)]
            k, r, n = 2 + seed % 5, 1 + seed % 7, 1 + seed % 15
            fast = stream(seed, "oracle")
            slow = copy.deepcopy(fast)
            profiles, confusions = sample_annotator_pool(dist, r, k, fast)
            replay = loop_annotators.Replay(slow.random(block_size(r, 0)))
            expected = [loop_annotators.sample_profile(dist, k, replay) for _ in range(r)]
            assert list(profiles) == expected
            for alpha, profile in zip(confusions, expected):
                np.testing.assert_array_equal(alpha, profile_to_confusion(profile, k))
            truth = fast.integers(k, size=n)
            np.testing.assert_array_equal(truth, slow.integers(k, size=n))
            labels = annotate(truth, confusions, fast, label_fraction=label_fraction)
            maps = loop_annotators.annotate(truth, confusions, slow, label_fraction)
            assert labels.dtype == np.intp
            np.testing.assert_array_equal(labels, em.label_matrix(maps, r))
            assert fast.random() == slow.random()
            kinds.update(p.kind for p in profiles)
        assert kinds == set(AnnotatorKind)

    def test_pseudo_annotate_same_draws(self):
        kinds = set()
        for seed in range(300):
            dist = self.DISTS[seed % len(self.DISTS)]
            k, r = 2 + seed % 5, 1 + seed % 7
            truth = np.arange(1 + seed % 15) % k
            fast = stream(seed, "pseudo-oracle")
            slow = copy.deepcopy(fast)
            labels, confusions = pseudo_annotate(truth, r, dist, k, fast)
            replay = loop_annotators.Replay(slow.random(block_size(r, len(truth))))
            expected_labels, expected = loop_annotators.pseudo_annotate(truth, r, dist, k, replay)
            np.testing.assert_array_equal(labels, em.label_matrix(expected_labels, r))
            assert type(confusions) is tuple and len(confusions) == r
            for alpha, oracle in zip(confusions, expected):
                assert alpha.dtype == oracle.dtype and alpha.shape == oracle.shape
                assert alpha.tobytes() == oracle.tobytes()
            assert fast.random() == slow.random()
            probe = stream(seed, "pseudo-oracle")  # the annotators both drew
            kinds.update(loop_annotators.sample_profile(dist, k, probe).kind for _ in range(r))
        assert kinds == set(AnnotatorKind)


def test_label_counts_match_the_bool_sum():
    # a label is a count of cumulative probabilities below its draw; a draw
    # equal to one counts it as not below
    rng = np.random.default_rng(7)
    # a count above 255 needs more than the byte the product takes for smaller k
    for b, n, r, k in [(1, 100, 25, 10), (64, 12, 3, 4), (128, 20, 7, 4), (3, 1, 1, 2),
                       (1, 4, 2, 300)]:
        confusions = rng.dirichlet(np.ones(k), (b, r, k)).swapaxes(-1, -2)
        truth = rng.integers(k, size=(b, n))
        cum = np.cumsum(confusions, axis=-2).transpose(0, 3, 1, 2)
        columns = cum[np.arange(b)[:, None], truth]  # (B, N, R, K)
        draws = rng.random((b, r, n))
        draws[..., ::3] = columns[..., 0].swapaxes(-1, -2)[..., ::3]  # ties
        labels = annotators._draw_labels(confusions, truth, draws)
        expected = np.minimum((draws.swapaxes(-1, -2)[..., None] > columns).sum(axis=-1), k - 1)
        # the smallest unsigned type that holds k: a byte a label up to k = 256
        assert labels.dtype == np.min_scalar_type(k) and np.array_equal(labels, expected)


class TestSimulateAnnotators:
    """The chunk pass against one oracle pool and labelling per task.

    The chunk pass decodes blocks of uniforms: a block read from the
    tasks' generators against the oracle drawing from those generators,
    and a block of :func:`crowdmeta.seeding.uniforms`, as meta-training
    and evaluation draw it, against the oracle replaying that block.  The
    per-task functions are the chunk pass of their generator's next block.
    """

    DISTS = TestMatchesLoops.DISTS + (
        EHS(0.0, 0.0, 1.0),  # spammers only
        EHS(1.0, 0.0, 0.0),  # experts only
        EHS(0.0, 1.0, 0.0),  # hammers only: no spammer, every accuracy slot read
    )

    @staticmethod
    def assert_same(got, expected):
        for name in ("kinds", "q", "confusions"):
            a, e = getattr(got, name), getattr(expected, name)
            assert a.dtype == e.dtype and a.shape == e.shape, name
            assert a.tobytes() == np.ascontiguousarray(e).tobytes(), name
        # the chunk's labels take the smallest unsigned type that holds K, the loop's intp
        assert got.labels.dtype == np.min_scalar_type(got.confusions.shape[-1])
        assert got.labels.shape == expected.labels.shape
        assert np.array_equal(got.labels, expected.labels)

    def test_same_draws_as_per_task_loop(self):
        kinds = set()
        cases = [(b, r) for b in (1, 31, 32, 33) for r in (*range(1, 9), 25)]
        for i, (b, r) in enumerate(cases):
            dist = self.DISTS[i % len(self.DISTS)]
            k, n = 2 + i % 9, 1 + (i * 7) % 25
            truth = stream(i, "sim-truth").integers(k, size=(b, n))
            block = np.stack([stream(i, "sim", t).random(r * (2 + n)) for t in range(b)])
            got = simulate_annotators(truth, r, dist, k, block)
            expected = loop_annotators.simulate_annotators(
                truth, r, dist, k, [stream(i, "sim", t) for t in range(b)])
            self.assert_same(got, expected)
            self.assert_same(got, loop_annotators.simulate_block(truth, r, dist, k, block))
            block = uniforms(i, "sim", np.arange(b)[:, None], r * (2 + n))
            got = simulate_annotators(truth, r, dist, k, block)
            self.assert_same(got, loop_annotators.simulate_block(truth, r, dist, k, block))
            kinds.update(KINDS[c] for c in got.kinds.ravel().tolist())
        assert kinds == set(AnnotatorKind)

    @pytest.mark.parametrize("bit_generator", ["PCG64", "MT19937"])
    def test_per_task_is_the_chunk_decode_of_its_doubles(self, bit_generator):
        # any numpy Generator serves: the per-task functions read its doubles alone
        kinds = set()
        for seed in range(60):
            dist = self.DISTS[seed % len(self.DISTS)]
            k, r, n = 2 + seed % 9, (*range(1, 9), 25)[seed % 9], 1 + seed % 13
            truth = stream(seed, "one-truth").integers(k, size=(1, n))
            rng = np.random.Generator(getattr(np.random, bit_generator)(stream_seed(seed, "one")))
            copied = copy.deepcopy(rng)
            labels, confusions = pseudo_annotate(truth[0], r, dist, k, rng)
            expected = simulate_annotators(truth, r, dist, k, copied.random((1, block_size(r, n))))
            assert labels.dtype == np.intp
            assert labels.tobytes() == expected.labels[0].astype(np.intp).tobytes()
            assert np.stack(confusions).tobytes() == expected.confusions[0].tobytes()
            profiles, pool = sample_annotator_pool(dist, r, k, rng)
            expected = simulate_annotators(np.empty((1, 0), dtype=np.intp), r, dist, k,
                                           copied.random((1, block_size(r, 0))))
            got_kinds, got_q = loop_annotators.profile_arrays([profiles])
            np.testing.assert_array_equal(got_kinds, expected.kinds)
            np.testing.assert_array_equal(got_q, expected.q)
            assert np.stack(pool).tobytes() == expected.confusions[0].tobytes()
            assert rng.random() == copied.random()  # each left just after its block
            kinds.update(KINDS[c] for c in expected.kinds.ravel().tolist())
        assert kinds == set(AnnotatorKind)

    def test_pool_then_annotate_is_pseudo_annotate(self):
        # a pool's 2R doubles then its labels' R·N are the block pseudo_annotate
        # reads, whatever kinds the pool drew
        spammers = 0
        for seed in range(120):
            dist = self.DISTS[seed % 3]  # each has spammers
            k, r, n = 2 + seed % 9, (*range(1, 9), 25)[seed % 9], 1 + seed % 13
            truth = stream(seed, "pool-truth").integers(k, size=n)
            rng = stream(seed, "pool")
            copied = copy.deepcopy(rng)
            labels, confusions = pseudo_annotate(truth, r, dist, k, rng)
            profiles, pool = sample_annotator_pool(dist, r, k, copied)
            assert labels.tobytes() == annotate(truth, pool, copied).tobytes()
            assert np.stack(confusions).tobytes() == np.stack(pool).tobytes()
            assert rng.bit_generator.state == copied.bit_generator.state
            spammers += sum(p.kind is AnnotatorKind.SPAMMER for p in profiles)
        assert spammers > 0

    def test_two_fixed_slots_per_annotator(self):
        # annotator r's kind reads slot 2r and its accuracy slot 2r + 1, which
        # a spammer leaves unread; the labels start at slot 2R
        block = np.array([[0.9, 0.5,  # a spammer, its accuracy slot unread
                           0.05, 0.5,  # an expert of accuracy 1 - 0.5 · (1 - 0.8)
                           0.1, 0.5, 0.9,  # the spammer's labels: thirds of [0, 1)
                           0.5, 0.97, 0.01]])  # the expert's: right, then two wrong
        got = simulate_annotators(np.array([[0, 1, 2]]), 2, EHS(0.1, 0.7, 0.2), 3, block)
        assert [KINDS[c] for c in got.kinds[0]] == [AnnotatorKind.SPAMMER, AnnotatorKind.EXPERT]
        np.testing.assert_array_equal(got.q, [[np.nan, 1.0 - 0.5 * (1.0 - 0.8)]])
        np.testing.assert_array_equal(got.labels, [[[0, 0], [1, 2], [2, 0]]])

    def test_pools_and_sparse_labels_share_a_generator(self):
        # pools, sparse labels and 32-bit integer draws interleaved on one
        # generator: a pool reads its block's 2R doubles, which the loop
        # replays, and leaves the half-used 64-bit draw that
        # Generator.integers buffers
        for seed in range(60):
            dist = self.DISTS[seed % len(self.DISTS)]
            k, r = 2 + seed % 9, (*range(1, 9), 25)[seed % 9]
            fast = stream(seed, "shared")
            slow = copy.deepcopy(fast)
            for _ in range(4):
                n = 1 + int(fast.integers(25))
                assert n == 1 + int(slow.integers(25))
                truth = fast.integers(k, size=n)
                np.testing.assert_array_equal(truth, slow.integers(k, size=n))
                profiles, confusions = sample_annotator_pool(dist, r, k, fast)
                replay = loop_annotators.Replay(slow.random(block_size(r, 0)))
                expected, oracle = loop_annotators.sample_annotator_pool(dist, r, k, replay)
                assert profiles == expected
                assert np.stack(confusions).tobytes() == np.stack(oracle).tobytes()
                labels = annotate(truth, confusions, fast, label_fraction=0.3)
                maps = loop_annotators.annotate(truth, oracle, slow, label_fraction=0.3)
                np.testing.assert_array_equal(labels, em.label_matrix(maps, r))
            # 32-bit draws read the buffered half first, then whole draws
            assert fast.integers(1000, size=3).tolist() == slow.integers(1000, size=3).tolist()
            assert fast.random(3).tobytes() == slow.random(3).tobytes()

    @pytest.mark.parametrize("truth, bad", [([[0, 1], [-2, 5]], -2), ([[0, 3], [1, -1]], 3)])
    def test_true_labels_outside_the_classes_rejected(self, truth, bad):
        with pytest.raises(ValueError, match=rf"^true label {bad} is outside 0\.\.2$"):
            simulate_annotators(np.array(truth), 2, EHS(0.1, 0.7, 0.2), 3,
                                np.zeros((2, block_size(2, 2))))

    def test_true_labels_must_stack_the_tasks(self):
        with pytest.raises(ValueError, match="stack 2 tasks"):
            simulate_annotators(np.zeros((1, 3), dtype=int), 2, EHS(0.1, 0.7, 0.2), 2,
                                np.zeros((2, 10)))
        with pytest.raises(ValueError, match=r"need a \(1, 10\) uniform block"):
            simulate_annotators(np.zeros((1, 3), dtype=int), 2, EHS(0.1, 0.7, 0.2), 2,
                                np.zeros((1, 9)))
