"""Tests for packet structures (Fig. 5)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phy.oracles import find_ul_frames_reference
from repro.phy.packets import (
    DL_FRAME_BITS,
    DownlinkBeacon,
    MAX_PAYLOAD,
    MAX_TID,
    PacketError,
    UL_FRAME_BITS,
    UL_PREAMBLE,
    UplinkPacket,
    find_ul_frames,
)


class TestUplinkPacket:
    def test_frame_is_32_bits(self):
        assert UL_FRAME_BITS == 32
        assert len(UplinkPacket(0, 0).to_bits()) == 32

    @given(
        st.integers(min_value=0, max_value=MAX_TID),
        st.integers(min_value=0, max_value=MAX_PAYLOAD),
    )
    def test_roundtrip(self, tid, payload):
        pkt = UplinkPacket(tid, payload)
        assert UplinkPacket.from_bits(pkt.to_bits()) == pkt

    def test_supports_16_tags(self):
        assert MAX_TID == 15
        UplinkPacket(15, 0)
        with pytest.raises(ValueError):
            UplinkPacket(16, 0)

    def test_payload_12_bits(self):
        assert MAX_PAYLOAD == 4095
        with pytest.raises(ValueError):
            UplinkPacket(0, 4096)

    @given(
        st.integers(min_value=0, max_value=MAX_TID),
        st.integers(min_value=0, max_value=MAX_PAYLOAD),
        st.integers(min_value=8, max_value=31),
    )
    def test_corrupted_body_rejected(self, tid, payload, pos):
        bits = UplinkPacket(tid, payload).to_bits()
        bits[pos] ^= 1
        with pytest.raises(PacketError):
            UplinkPacket.from_bits(bits)

    def test_bad_preamble_rejected(self):
        bits = UplinkPacket(1, 2).to_bits()
        bits[0] ^= 1
        with pytest.raises(PacketError):
            UplinkPacket.from_bits(bits)

    def test_wrong_length_rejected(self):
        with pytest.raises(PacketError):
            UplinkPacket.from_bits([0] * 31)


class TestDownlinkBeacon:
    def test_frame_is_10_bits(self):
        assert DL_FRAME_BITS == 10
        assert len(DownlinkBeacon().to_bits()) == 10

    @given(st.booleans(), st.booleans(), st.booleans(), st.booleans())
    def test_roundtrip(self, ack, empty, reset, reserved):
        b = DownlinkBeacon(ack=ack, empty=empty, reset=reset, reserved=reserved)
        assert DownlinkBeacon.from_bits(b.to_bits()) == b

    def test_nack_is_absence_of_ack(self):
        assert DownlinkBeacon(ack=False).nack
        assert not DownlinkBeacon(ack=True).nack

    def test_dl_has_no_crc(self):
        # Sec. 4.2: 6-bit preamble + 4-bit CMD, nothing else.
        bits = DownlinkBeacon(ack=True, empty=True).to_bits()
        assert len(bits) == 6 + 4

    def test_bad_preamble_rejected(self):
        bits = DownlinkBeacon().to_bits()
        bits[0] ^= 1
        with pytest.raises(PacketError):
            DownlinkBeacon.from_bits(bits)


class TestFraming:
    def test_finds_frame_at_offset(self):
        pkt = UplinkPacket(5, 1234)
        stream = [0, 1, 1, 0, 0] + pkt.to_bits() + [1, 0]
        assert find_ul_frames(stream) == [pkt]

    def test_finds_multiple_frames(self):
        p1, p2 = UplinkPacket(1, 10), UplinkPacket(2, 20)
        stream = p1.to_bits() + [0, 0, 0] + p2.to_bits()
        assert find_ul_frames(stream) == [p1, p2]

    def test_corrupt_frame_skipped(self):
        bits = UplinkPacket(1, 10).to_bits()
        bits[20] ^= 1
        assert find_ul_frames(bits) == []

    def test_random_noise_yields_no_frames(self, rng):
        noise = list(rng.integers(0, 2, size=500))
        # A spurious CRC pass on random data has probability ~2^-8 per
        # preamble match; with a fixed seed this stream is clean.
        assert find_ul_frames(noise) == []

    def test_empty_stream(self):
        assert find_ul_frames([]) == []


class TestFramingDifferential:
    """``find_ul_frames`` jumps between preamble matches; the scalar
    oracle tests every position.  Same packets, always."""

    @staticmethod
    def _check(stream):
        expected = find_ul_frames_reference(list(stream))
        assert find_ul_frames(stream) == expected
        assert find_ul_frames(list(stream)) == expected
        assert find_ul_frames(tuple(bool(b) for b in stream)) == expected
        assert find_ul_frames(np.asarray(stream, dtype=np.uint8)) == expected
        assert find_ul_frames(np.asarray(stream, dtype=bool)) == expected
        assert find_ul_frames(np.asarray(stream, dtype=np.int64)) == expected
        return expected

    def test_random_streams(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            self._check(rng.integers(0, 2, size=int(rng.integers(0, 400))).tolist())

    def test_preamble_rich_streams(self):
        """Streams built from preamble fragments hit many parse attempts,
        including the occasional spurious CRC pass."""
        rng = np.random.default_rng(99)
        chunks = [list(UL_PREAMBLE), [1, 0], [1, 1], [0]]
        for _ in range(300):
            stream = []
            while len(stream) < 300:
                stream += chunks[int(rng.integers(0, len(chunks)))]
            self._check(stream)

    def test_planted_frames(self):
        rng = np.random.default_rng(5)
        n_planted = n_found = 0
        for _ in range(100):
            stream, planted = [], []
            for _ in range(int(rng.integers(1, 6))):
                stream += rng.integers(0, 2, size=int(rng.integers(0, 40))).tolist()
                pkt = UplinkPacket(int(rng.integers(0, MAX_TID + 1)),
                                   int(rng.integers(0, MAX_PAYLOAD + 1)))
                planted.append(pkt)
                stream += pkt.to_bits()
            found = self._check(stream)
            n_planted += len(planted)
            n_found += sum(p in found for p in planted)
        # A spurious match in the filler can swallow a planted frame.
        assert n_found > 0.9 * n_planted

    def test_back_to_back_frames(self):
        pkts = [UplinkPacket(t, 100 * t) for t in range(5)]
        stream = [b for p in pkts for b in p.to_bits()]
        assert self._check(stream) == pkts

    def test_overlapping_preambles(self):
        """A preamble inside the previous preamble's run: the scan must
        try each start, not skip past the first mismatch."""
        pkt = UplinkPacket(9, 321)
        stream = [1, 0, 1, 0] + pkt.to_bits()  # "1010" + "10101011..."
        assert self._check(stream) == [pkt]
        stream = list(UL_PREAMBLE[:6]) + pkt.to_bits() + [1, 0, 1]
        assert self._check(stream) == [pkt]

    def test_crc_failing_frame_just_before_a_valid_one(self):
        good = UplinkPacket(2, 2000)
        bad = UplinkPacket(1, 1000).to_bits()
        bad[20] ^= 1
        for gap in range(0, 10):
            stream = bad + [0] * gap + good.to_bits()
            assert self._check(stream) == [good]
        # The valid frame starts inside the failed one: a failed parse
        # advances by one bit, so it is still found.
        stream = bad[:12] + good.to_bits()
        assert self._check(stream) == [good]

    def test_short_streams(self):
        pkt = UplinkPacket(1, 1)
        bits = pkt.to_bits()
        assert self._check(bits[:-1]) == []
        assert self._check(bits) == [pkt]
        assert self._check([]) == []
