"""Packet structures (Sec. 4.2, Fig. 5).

Uplink frame (32 bits):   | Preamble 8 | TID 4 | Payload 12 | CRC 8 |
Downlink beacon (10 bits):| Preamble 6 | CMD 4 |

The DL beacon is deliberately minimal: every broadcast bit wakes every
tag for demodulation, so beacon length is standby power.  The 4-bit CMD
carries independent flags rather than an opcode, because a single
beacon must simultaneously convey the ACK/NACK verdict for the previous
slot, the EMPTY prediction for the current slot (Sec. 5.5), and the
occasional RESET; the fourth bit is RESERVED.  There is no tag ID and
no CRC in the DL — tags infer applicability from whether they
transmitted in the last slot (Sec. 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.phy.crc import append_crc8, bits_to_int, check_crc8, int_to_bits

#: Field widths (bits).
UL_PREAMBLE_BITS = 8
TID_BITS = 4
PAYLOAD_BITS = 12
CRC_FIELD_BITS = 8
UL_FRAME_BITS = UL_PREAMBLE_BITS + TID_BITS + PAYLOAD_BITS + CRC_FIELD_BITS

DL_PREAMBLE_BITS = 6
CMD_BITS = 4
DL_FRAME_BITS = DL_PREAMBLE_BITS + CMD_BITS

#: Preamble patterns.  The UL preamble has strong transitions for FM0
#: clock recovery; the DL preamble is a short unique marker.
UL_PREAMBLE = (1, 0, 1, 0, 1, 0, 1, 1)
DL_PREAMBLE = (1, 1, 1, 0, 1, 0)

#: The UL preamble as one byte per bit, the form the frame scan
#: searches for.
UL_PREAMBLE_BYTES = bytes(UL_PREAMBLE)

#: Maximum TID value with a 4-bit field (up to 16 tags, Sec. 4.2).
MAX_TID = (1 << TID_BITS) - 1
MAX_PAYLOAD = (1 << PAYLOAD_BITS) - 1


class PacketError(ValueError):
    """Raised when a frame cannot be parsed."""


@dataclass(frozen=True)
class UplinkPacket:
    """Sensor report from a tag: preamble + TID + payload + CRC."""

    tid: int
    payload: int

    def __post_init__(self) -> None:
        if not 0 <= self.tid <= MAX_TID:
            raise ValueError(f"TID {self.tid} does not fit in {TID_BITS} bits")
        if not 0 <= self.payload <= MAX_PAYLOAD:
            raise ValueError(
                f"payload {self.payload} does not fit in {PAYLOAD_BITS} bits"
            )

    def to_bits(self) -> List[int]:
        """Serialise to the 32-bit frame (CRC over TID + payload)."""
        body = int_to_bits(self.tid, TID_BITS) + int_to_bits(
            self.payload, PAYLOAD_BITS
        )
        return list(UL_PREAMBLE) + append_crc8(body)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "UplinkPacket":
        """Parse a frame; raises :class:`PacketError` on any violation."""
        if len(bits) != UL_FRAME_BITS:
            raise PacketError(
                f"UL frame must be {UL_FRAME_BITS} bits, got {len(bits)}"
            )
        if tuple(bits[:UL_PREAMBLE_BITS]) != UL_PREAMBLE:
            raise PacketError("UL preamble mismatch")
        body_and_crc = list(bits[UL_PREAMBLE_BITS:])
        if not check_crc8(body_and_crc):
            raise PacketError("UL CRC check failed")
        tid = bits_to_int(body_and_crc[:TID_BITS])
        payload = bits_to_int(body_and_crc[TID_BITS : TID_BITS + PAYLOAD_BITS])
        return cls(tid=tid, payload=payload)


@dataclass(frozen=True)
class DownlinkBeacon:
    """Reader beacon: slot boundary marker + 4 command flags."""

    ack: bool = False
    empty: bool = False
    reset: bool = False
    reserved: bool = False

    @property
    def nack(self) -> bool:
        """NACK is simply the absence of ACK (Sec. 5.3): tags that
        transmitted last slot treat a beacon without the ACK flag as a
        collision verdict."""
        return not self.ack

    def to_bits(self) -> List[int]:
        cmd = [
            1 if self.ack else 0,
            1 if self.empty else 0,
            1 if self.reset else 0,
            1 if self.reserved else 0,
        ]
        return list(DL_PREAMBLE) + cmd

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "DownlinkBeacon":
        if len(bits) != DL_FRAME_BITS:
            raise PacketError(
                f"DL frame must be {DL_FRAME_BITS} bits, got {len(bits)}"
            )
        if tuple(bits[:DL_PREAMBLE_BITS]) != DL_PREAMBLE:
            raise PacketError("DL preamble mismatch")
        cmd = bits[DL_PREAMBLE_BITS:]
        return cls(
            ack=bool(cmd[0]),
            empty=bool(cmd[1]),
            reset=bool(cmd[2]),
            reserved=bool(cmd[3]),
        )


def find_ul_frames(bits: Sequence[int]) -> List[UplinkPacket]:
    """Scan a decoded bit stream for valid UL frames.

    Slides the UL preamble across the stream and attempts a parse at
    each match; only CRC-clean frames are returned.  A clean frame is
    skipped whole, a failed parse moves on by one bit.  This is the
    framing step of the reader's receive chain.

    ``bits`` is any sequence of 0/1 (ints, bools) or a NumPy array;
    the scan jumps between preamble matches with ``bytes.find``.
    """
    if isinstance(bits, np.ndarray):
        bits = bits.astype(np.uint8, copy=False)
    stream = bytes(bits)
    packets: List[UplinkPacket] = []
    i = stream.find(UL_PREAMBLE_BYTES)
    while i >= 0:
        try:
            packets.append(
                UplinkPacket.from_bits(list(stream[i : i + UL_FRAME_BITS]))
            )
            i += UL_FRAME_BITS
        except PacketError:  # bad CRC, or the stream ends mid-frame
            i += 1
        i = stream.find(UL_PREAMBLE_BYTES, i)
    return packets
