"""Stream derivation against the list-entropy formula of ``loop_seeding``."""

import re
from pathlib import Path

import numpy as np
import pytest

import loop_seeding
from crowdmeta import seeding
from crowdmeta.seeding import raw_streams, stream, stream_seed, uniforms


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
    """Streams derived as arrays against one generator per row."""

    MASTER_SEEDS = (0, 7919, 2**32 - 1, 2**32 + 5, 2**64 - 1, -3)

    @staticmethod
    def index_rows(rng, rows, width):
        """Small indices, trailing zeros, and indices of 2**32 and more (two entropy words)."""
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
                    got = raw_streams(master_seed, label, indices, count)
                    assert got.dtype == np.uint64 and got.shape == (len(indices), count)
                    for row, raw in zip(indices.tolist(), got):
                        expected = stream(master_seed, label, *row).bit_generator.random_raw(count)
                        assert raw.tobytes() == expected.tobytes(), (master_seed, label, row)
                    checked += len(indices)
        assert checked >= 10**4

    def test_uniforms_are_generator_random(self):
        raw = raw_streams(5, "u", np.arange(20)[:, None], 40)
        for i, row in enumerate(uniforms(raw)):
            assert row.tobytes() == stream(5, "u", i).random(40).tobytes()

    def test_index_arrays_of_any_integer_type(self):
        expected = raw_streams(1, "x", np.array([[3, 0], [2**33, 1]], dtype=np.uint64), 4)
        assert raw_streams(1, "x", [[3, 0], [2**33, 1]], 4).tobytes() == expected.tobytes()
        assert raw_streams(1, "x", np.array([[3, 0], [2**33, 1]]), 4).tobytes() == expected.tobytes()

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            raw_streams(1, "x", [[0], [-1]], 3)
        with pytest.raises(ValueError, match=r"\(T, L\) integer array"):
            raw_streams(1, "x", [0, 1], 3)
        with pytest.raises(ValueError, match=r"\(T, L\) integer array"):
            raw_streams(1, "x", [[0.5]], 3)

    def test_probe_names_the_numpy_version(self, monkeypatch):
        # a numpy that seeded PCG64 differently would fail the first call's check
        seeding._check_numpy.cache_clear()
        monkeypatch.setattr(seeding, "_PCG64_MULT", seeding._PCG64_MULT + 2)
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)} seeds"):
            raw_streams(1, "x", [[0]], 3)
        monkeypatch.undo()
        raw_streams(1, "x", [[0]], 3)  # the check runs again, and passes


def test_only_seeding_reads_bit_generator_internals():
    # the decoders that mirror numpy's Generator live in one module, so a
    # numpy that draws differently is handled there alone
    package = Path(seeding.__file__).parent
    readers = {path.name for path in package.glob("*.py")
               if re.search(r"random_raw|advance\(|has_uint32", path.read_text(encoding="utf-8"))}
    assert readers == {"seeding.py"}
