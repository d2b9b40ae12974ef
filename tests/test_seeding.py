"""Stream derivation and the chunk draws against the loop forms of ``loop_seeding``."""

import re
from pathlib import Path

import numpy as np
import pytest

import loop_episodes
import loop_seeding
from crowdmeta import seeding
from crowdmeta.seeding import choose, stream, stream_seed, uniforms


@pytest.mark.parametrize("master_seed", [0, 2**32 + 5, -1, 2**64 - 1])
def test_same_generator_as_list_entropy(master_seed):
    for label in ("episode", "pseudo-annotate", "val-episode"):
        for indices in [(), (0,), (2**32,), (2**40,), (7, 0), (2**40, 2**32, 3), (np.int64(5),)]:
            fast = stream(master_seed, label, *indices)
            slow = loop_seeding.stream(master_seed, label, *indices)
            assert fast.bit_generator.state == slow.bit_generator.state
            np.testing.assert_array_equal(fast.random(3), slow.random(3))


def test_masked_master_seed_shares_the_stream():
    assert (stream(-1, "x", 3).bit_generator.state
            == stream(2**64 - 1, "x", 3).bit_generator.state)


def test_labels_and_indices_separate_streams():
    draws = {stream(3, label, *idx).random()
             for label in ("a", "b") for idx in [(), (1,), (2,), (1, 1)]}
    assert len(draws) == 8


def test_negative_index_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        stream(1, "x", 0, -1)
    with pytest.raises(ValueError, match="non-negative"):
        stream_seed(2**32 + 5, "x", -3)


class TestRawStreams:
    """Many rows' streams drawn as arrays against their loop form, one row at a time."""

    MASTER_SEEDS = (0, 7919, 2**32 - 1, 2**32 + 5, 2**64 - 1, -3)

    @staticmethod
    def index_rows(rng, rows, width):
        """Small indices, trailing zeros, and indices up to 2**64 - 1."""
        indices = rng.integers(0, 40, size=(rows, width), dtype=np.uint64)
        wide = rng.random((rows, width)) < 0.2
        indices[wide] = rng.integers(2**32, 2**64 - 1, size=int(wide.sum()), dtype=np.uint64,
                                     endpoint=True)
        if width:
            indices[rng.random(rows) < 0.2, -1] = 0
        return indices

    def test_same_raw_output_as_stream(self):
        rng = np.random.default_rng(12)
        checked = 0
        for master_seed in self.MASTER_SEEDS:
            for label in ("episode", "test-episode", "val-annotators"):
                for width in (0, 1, 2):
                    indices = self.index_rows(rng, 300 if width else 3, width)
                    count = int(rng.integers(1, 70))
                    got = uniforms(master_seed, label, indices, count)
                    assert got.dtype == np.float64 and got.shape == (len(indices), count)
                    expected = loop_seeding.uniforms(master_seed, label, indices, count)
                    assert got.tobytes() == expected.tobytes(), (master_seed, label, width)
                    checked += len(indices)
        assert checked >= 10**4

    def test_chunk_is_its_rows_one_by_one(self):
        indices = self.index_rows(np.random.default_rng(3), 200, 2)
        chunk = uniforms(11, "chunk", indices, 70)
        for t in range(len(indices)):
            assert chunk[t].tobytes() == uniforms(11, "chunk", indices[t : t + 1], 70).tobytes()
        # a longer draw extends a shorter one
        assert uniforms(11, "chunk", indices, 7).tobytes() == chunk[:, :7].copy().tobytes()

    def test_uniform_on_the_unit_interval(self):
        u = uniforms(7919, "uniformity", np.arange(2000)[:, None], 100).ravel()
        assert u.min() >= 0.0 and u.max() < 1.0
        # Kolmogorov-Smirnov against U(0, 1): 1.95 / sqrt(n) is the 0.1% critical value
        ordered = np.sort(u)
        n = len(u)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(steps - ordered), np.max(ordered - (steps - 1 / n)))
        assert ks < 1.95 / np.sqrt(n)
        # chi-squared over 100 bins: 99 degrees of freedom, mean 99 and SD 14
        counts = np.bincount((u * 100).astype(int), minlength=100)
        chi2 = np.sum((counts - n / 100) ** 2 / (n / 100))
        assert chi2 < 99 + 5 * 14

    @pytest.mark.parametrize("pairing", ["adjacent rows", "labels", "counters"])
    def test_uncorrelated(self, pairing):
        rows = np.arange(50_001)[:, None]
        if pairing == "adjacent rows":
            u = uniforms(5, "a", rows, 4)
            x, y = u[:-1].ravel(), u[1:].ravel()
        elif pairing == "labels":
            x, y = uniforms(5, "a", rows, 4).ravel(), uniforms(5, "b", rows, 4).ravel()
        else:
            u = uniforms(5, "a", rows, 5)
            x, y = u[:, :-1].ravel(), u[:, 1:].ravel()
        # a correlation of independent uniforms has SD 1 / sqrt(n)
        assert abs(np.corrcoef(x, y)[0, 1]) < 5 / np.sqrt(len(x))

    def test_trailing_zero_indices_are_distinct_streams(self):
        # unlike stream(), whose SeedSequence reads a missing word as 0
        assert stream(3, "z").random() == stream(3, "z", 0).random()
        rows = [uniforms(3, "z", np.zeros((1, width), dtype=np.intp), 4).tobytes()
                for width in (0, 1, 2)]
        assert len(set(rows)) == 3

    def test_masked_master_seed_shares_the_stream(self):
        assert uniforms(-1, "x", [[3]], 5).tobytes() == uniforms(2**64 - 1, "x", [[3]], 5).tobytes()

    def test_index_arrays_of_any_integer_type(self):
        expected = uniforms(1, "x", np.array([[3, 0], [2**33, 1]], dtype=np.uint64), 4)
        assert uniforms(1, "x", [[3, 0], [2**33, 1]], 4).tobytes() == expected.tobytes()
        assert uniforms(1, "x", np.array([[3, 0], [2**33, 1]]), 4).tobytes() == expected.tobytes()
        assert uniforms(1, "x", np.array([[3, 0], [2**33, 1]], dtype=np.int64),
                        4).tobytes() == expected.tobytes()

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            uniforms(1, "x", [[0], [-1]], 3)
        with pytest.raises(ValueError, match=r"\(T, L\) integer array"):
            uniforms(1, "x", [0, 1], 3)
        with pytest.raises(ValueError, match=r"\(T, L\) integer array"):
            uniforms(1, "x", [[0.5]], 3)


class TestChoose:
    """Floyd's algorithm over doubles against its loop form (``loop_episodes.floyd``)."""

    def test_same_subsets_as_loop_form(self):
        rng = np.random.default_rng(4)
        for size in (1, 2, 3, 5, 8):
            pool = size + rng.integers(0, 6, size=400)  # pool == size makes long chains
            u = rng.random((400, size))
            got = choose(u, pool, size)
            assert got.dtype == np.intp and got.shape == (400, size)
            for row, p, chosen in zip(u.tolist(), pool.tolist(), got.tolist()):
                assert chosen == loop_episodes.floyd(row, p, size)

    def test_every_subset_equally_likely(self):
        u = uniforms(7919, "floyd", np.arange(200_000)[:, None], 3)
        chosen = np.sort(choose(u, np.full(len(u), 7), 3), axis=1)
        subsets, counts = np.unique(chosen, axis=0, return_counts=True)
        assert len(subsets) == 35
        # 200,000 / 35 = 5,714 expected per subset, SD 75
        assert counts.min() > 5_714 - 5 * 75 and counts.max() < 5_714 + 5 * 75

    def test_largest_double_clamps_to_j(self):
        pool = np.array([1, 2, 3, 7, 1000, 2**31 - 1, 2**40 + 3])
        size = 1
        top = np.full((len(pool), size), 1 - 2.0**-53)
        assert choose(top, pool, size)[:, 0].tolist() == (pool - 1).tolist()
        top = np.full((1, 4), 1 - 2.0**-53)
        assert choose(top, np.array([9]), 4).tolist() == [[5, 6, 7, 8]]
        # each draw of 0 after the first repeats it, so each step takes its j
        assert choose(np.zeros((1, 4)), np.array([9]), 4).tolist() == [[0, 6, 7, 8]]


def test_no_module_reads_bit_generator_internals():
    # the chunk draws read crowdmeta's own generator, and the per-task paths
    # decode their numpy generator's doubles: nothing reads a bit generator's state
    package = Path(seeding.__file__).parent
    internals = re.compile(r"random_raw|advance\(|has_uint32|uinteger|\.state\b")
    readers = {path.name for path in package.glob("*.py")
               if internals.search(path.read_text(encoding="utf-8"))}
    assert readers == set()
