"""Physical layer: line codes, packets, waveform modem, reader DSP."""

from repro.phy.crc import (
    append_crc8,
    bits_to_int,
    check_crc8,
    crc8_bits,
    crc8_bytes,
    int_to_bits,
)
from repro.phy.envelope import EnvelopeDetector, HysteresisComparator, edges
from repro.phy.fm0 import (
    Fm0DecodeResult,
    fm0_decode,
    fm0_encode,
    fm0_frame_duration_s,
    fm0_symbol_duration_s,
)
from repro.phy.iq import (
    ClusterResult,
    cluster_iq,
    detect_collision,
    detect_collision_iq,
    downconvert,
)
from repro.phy.cache import (
    TagTemplate,
    fast_path,
    fast_path_enabled,
    hit_ratios,
    leak_baseband,
    set_fast_path,
    tag_template,
)
from repro.phy.modem import (
    BackscatterUplink,
    FskOokDownlink,
    raw_bits_to_levels,
    receiver_noise_baseband,
)
from repro.phy.modulation import (
    LinkConfig,
    Modulation,
    all_link_configs,
    get_modulation,
    modulation_names,
    register_modulation,
)
from repro.phy.cook import ChirpOok
from repro.phy.fsk import BinaryFsk
from repro.phy.rate import (
    DEFAULT_LADDER,
    RateController,
    RateStep,
)
from repro.phy.packets import (
    DownlinkBeacon,
    PacketError,
    UplinkPacket,
    find_ul_frames,
)
from repro.phy.pie import (
    PieTimingModel,
    pie_decode,
    pie_duration_s,
    pie_encode,
    pie_packet_loss_probability,
)
from repro.phy.reader_dsp import BackPressureBuffer, DecodeOutcome, ReaderReceiveChain
from repro.phy.reader_tx import (
    JitteredPieTransmitter,
    PwmCarrierSynth,
    UsbCommandScheduler,
)

__all__ = [
    "append_crc8",
    "bits_to_int",
    "check_crc8",
    "crc8_bits",
    "crc8_bytes",
    "int_to_bits",
    "EnvelopeDetector",
    "HysteresisComparator",
    "edges",
    "Fm0DecodeResult",
    "fm0_decode",
    "fm0_encode",
    "fm0_frame_duration_s",
    "fm0_symbol_duration_s",
    "ClusterResult",
    "cluster_iq",
    "detect_collision",
    "detect_collision_iq",
    "downconvert",
    "TagTemplate",
    "fast_path",
    "fast_path_enabled",
    "hit_ratios",
    "leak_baseband",
    "set_fast_path",
    "tag_template",
    "BackscatterUplink",
    "FskOokDownlink",
    "raw_bits_to_levels",
    "receiver_noise_baseband",
    "LinkConfig",
    "Modulation",
    "all_link_configs",
    "get_modulation",
    "modulation_names",
    "register_modulation",
    "ChirpOok",
    "BinaryFsk",
    "DEFAULT_LADDER",
    "RateController",
    "RateStep",
    "DownlinkBeacon",
    "PacketError",
    "UplinkPacket",
    "find_ul_frames",
    "PieTimingModel",
    "pie_decode",
    "pie_duration_s",
    "pie_encode",
    "pie_packet_loss_probability",
    "BackPressureBuffer",
    "DecodeOutcome",
    "ReaderReceiveChain",
    "JitteredPieTransmitter",
    "PwmCarrierSynth",
    "UsbCommandScheduler",
]
