"""Tests for seeded random streams."""

import numpy as np
import pytest

from repro.sim.random import (
    PICK_BLOCK,
    UNIFORM_BLOCK,
    BufferedPicker,
    BufferedUniforms,
    RandomStreams,
)


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).stream("x").integers(0, 1 << 30, size=10)
        b = RandomStreams(7).stream("x").integers(0, 1 << 30, size=10)
        assert list(a) == list(b)

    def test_different_names_decorrelated(self):
        rs = RandomStreams(7)
        a = rs.stream("a").integers(0, 1 << 30, size=10)
        b = rs.stream("b").integers(0, 1 << 30, size=10)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").integers(0, 1 << 30, size=10)
        b = RandomStreams(2).stream("x").integers(0, 1 << 30, size=10)
        assert list(a) != list(b)

    def test_stream_is_cached(self):
        rs = RandomStreams(0)
        assert rs.stream("x") is rs.stream("x")

    def test_fork_is_deterministic(self):
        a = RandomStreams(5).fork("tag3").stream("offset").integers(0, 100, size=5)
        b = RandomStreams(5).fork("tag3").stream("offset").integers(0, 100, size=5)
        assert list(a) == list(b)

    def test_fork_salts_differ(self):
        rs = RandomStreams(5)
        a = rs.fork("tag3").stream("offset").integers(0, 1 << 30, size=10)
        b = rs.fork("tag4").stream("offset").integers(0, 1 << 30, size=10)
        assert list(a) != list(b)

    def test_fork_independent_of_parent_usage(self):
        rs1 = RandomStreams(5)
        rs1.stream("noise").random(100)  # consume parent entropy
        a = rs1.fork("t").stream("x").integers(0, 1 << 30, size=5)
        b = RandomStreams(5).fork("t").stream("x").integers(0, 1 << 30, size=5)
        assert list(a) == list(b)

    def test_seed_property(self):
        assert RandomStreams(42).seed == 42

    @pytest.mark.parametrize(
        "seed, expected",
        [(0.5, None), (True, None), ("1", None), (np.int64(7), 7), (-7, -7)],
    )
    def test_seed_must_be_an_integer(self, seed, expected):
        if expected is None:
            with pytest.raises(ValueError, match="seed must be an integer"):
                RandomStreams(seed)
            return
        streams = RandomStreams(seed)
        assert type(streams.seed) is int and streams.seed == expected
        assert streams.seed_of("x") == RandomStreams(expected).seed_of("x")

    def test_stream_is_seeded_by_seed_of(self):
        rs = RandomStreams(11).fork("tag2")
        expected = np.random.default_rng(rs.seed_of("offset")).random(8)
        assert (rs.stream("offset").random(8) == expected).all()
        assert 0 <= rs.seed_of("offset") < 2**64


class TestBufferedStreams:
    """Block-buffered draws replay the scalar calls they replace."""

    def test_uniforms_match_scalar_random_across_refills(self):
        buffered = BufferedUniforms(RandomStreams(9).stream("slots"))
        scalar = RandomStreams(9).stream("slots")
        n = 3 * UNIFORM_BLOCK + 5
        drawn = [buffered.random() for _ in range(n)]
        assert drawn == [scalar.random() for _ in range(n)]
        assert all(type(x) is float for x in drawn)

    @pytest.mark.parametrize("high", range(1, 65))
    def test_picks_match_scalar_integers_across_refills(self, high):
        buffered = BufferedPicker(
            RandomStreams(high).fork("tag1").stream("offset"), high
        )
        scalar = RandomStreams(high).fork("tag1").stream("offset")
        n = 3 * PICK_BLOCK + 5
        drawn = [buffered(high) for _ in range(n)]
        assert drawn == [int(scalar.integers(0, high)) for _ in range(n)]
        assert all(type(x) is int for x in drawn)

    def test_picker_refuses_another_bound(self):
        picker = BufferedPicker(RandomStreams(0).stream("offset"), 8)
        with pytest.raises(ValueError, match="below 8"):
            picker(4)

    @pytest.mark.parametrize("taken", [0, 1, 37, UNIFORM_BLOCK - 1])
    def test_head_resumes_a_stream_with_unread_draws(self, taken):
        # A stream drawn as a block with ``taken`` values read: the
        # unread rest as head, then the same generator, continue it.
        gen = RandomStreams(4).stream("slots")
        block = gen.random(UNIFORM_BLOCK).tolist()
        resumed = BufferedUniforms(gen, head=block[taken:])
        scalar = RandomStreams(4).stream("slots")
        for _ in range(taken):
            scalar.random()
        n = 2 * UNIFORM_BLOCK
        assert [resumed.random() for _ in range(n)] == [
            scalar.random() for _ in range(n)
        ]

    def test_picker_head_comes_first(self):
        gen = RandomStreams(5).stream("offset")
        head = gen.integers(0, 16, size=10).tolist()[3:]
        picker = BufferedPicker(gen, 16, head=head)
        assert picker.gen is gen
        scalar = RandomStreams(5).stream("offset")
        expected = [int(scalar.integers(0, 16)) for _ in range(3 + 2 * PICK_BLOCK)]
        assert [picker(16) for _ in range(2 * PICK_BLOCK)] == expected[3:]
