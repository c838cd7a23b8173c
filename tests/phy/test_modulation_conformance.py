"""Modulation conformance contract.

Every modulation registered in :mod:`repro.phy.modulation` — stock
FM0-over-OOK, chirp-OOK, binary FSK — must honour the same PHY
contract at every rate it offers:

* **round trip** — a frame synthesised through the real passband
  pipeline (tag component + leak + receiver noise at the decimated
  baseband) decodes back to the same (tid, payload) through
  :meth:`~repro.phy.reader_dsp.ReaderReceiveChain.decode_config`;
* **CRC integrity** — corrupting frame bits before line coding must
  not yield the original packet (the CRC gate rejects it);
* **template-cache parity** — the filtered-baseband template the fast
  path serves for a frame matches the reference synthesis to float
  reassociation error, and repeat lookups hit the cache;
* **decimation invariance** — decoding at a finer decimation than the
  modulation's declared geometry recovers the same packets (the
  declared decimation is an efficiency choice, not a correctness
  requirement).

New modulations plug in by registering — and are then held to this
suite automatically via the ``all_link_configs`` parametrisation.
"""

import math

import numpy as np
import pytest

from repro.phy import cache as phy_cache
from repro.phy.iq import downconvert
from repro.phy.modem import BackscatterUplink, receiver_noise_baseband
from repro.phy.modulation import (
    LinkConfig,
    all_link_configs,
    get_modulation,
    modulation_names,
)
from repro.phy.packets import UplinkPacket
from repro.phy.reader_dsp import ReaderReceiveChain
from repro.sim.random import RandomStreams

#: Operating point for the conformance captures: comfortably inside
#: every registered config's envelope (the weakest — legacy FM0 at
#: 3000 bps raw — still clears it across the pinned seeds).
AMPLITUDE_V = 0.008
NOISE_PSD_V2_PER_HZ = 4e-13
DELAY_S = 0.0015
LEAD_IN_S = 0.03
TAIL_S = 0.012
EXTRA_SAMPLES = 2000

CONFIGS = all_link_configs()
CONFIG_IDS = [config.label for config in CONFIGS]

TID = 5
PAYLOAD = 1234


@pytest.fixture(autouse=True)
def isolated_caches():
    phy_cache.clear_caches()
    yield
    phy_cache.clear_caches()


def _decode(config: LinkConfig, seed: int, bit_flips=(), decimation=None):
    """Synthesise one frame under ``config`` and run the real receive
    path; returns the decoded (tid, payload) pairs."""
    uplink = BackscatterUplink()
    chain = ReaderReceiveChain()
    mod = get_modulation(config.modulation)
    rate = config.bitrate_bps
    fs = uplink.sample_rate_hz
    if decimation is None:
        decimation = mod.decimation(fs, rate)
    rng = RandomStreams(seed).stream("conformance")
    packet = UplinkPacket(tid=TID, payload=PAYLOAD)
    component = uplink.tag_component(
        packet.to_bits(),
        rate,
        AMPLITUDE_V,
        phase_rad=float(rng.uniform(0, 2 * np.pi)),
        delay_s=DELAY_S,
        lead_in_s=LEAD_IN_S,
        tail_s=TAIL_S,
        bit_flips=bit_flips,
        modulation=config.modulation,
    )
    capture = uplink.capture_clean([component], extra_samples=EXTRA_SAMPLES)
    iq = downconvert(
        capture,
        fs,
        uplink.carrier_hz,
        cutoff_hz=mod.cutoff_hz(rate),
        decimation=decimation,
    )
    iq = iq + receiver_noise_baseband(
        len(iq),
        NOISE_PSD_V2_PER_HZ,
        fs,
        mod.cutoff_hz(rate),
        decimation,
        rng,
    )
    outcome = chain.decode_config(iq, fs / decimation, config)
    return sorted((p.tid, p.payload) for p in outcome.packets)


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_round_trip(config):
    assert (TID, PAYLOAD) in _decode(config, seed=7)


@pytest.mark.parametrize(
    "config",
    [LinkConfig("fm0_ook", 375.0), LinkConfig("cook", 3000.0),
     LinkConfig("fsk", 125.0)],
    ids=["fm0_ook@375", "cook@3000", "fsk@125"],
)
@pytest.mark.parametrize("seed", [1, 23])
def test_round_trip_across_seeds(config, seed):
    """Noise/phase realisations must not matter inside the envelope
    (one representative rate per modulation family)."""
    assert (TID, PAYLOAD) in _decode(config, seed=seed)


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_crc_rejects_corrupted_frame(config):
    """Flipped payload bits must never surface as the original packet
    — the CRC gate is modulation-independent."""
    assert (TID, PAYLOAD) not in _decode(config, seed=7, bit_flips=(14, 20))


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_decimation_invariance(config):
    """Halving the declared decimation (finer baseband) is outcome-
    neutral: the declared geometry is a cost knob, not a decode
    precondition."""
    mod = get_modulation(config.modulation)
    declared = mod.decimation(BackscatterUplink().sample_rate_hz,
                              config.bitrate_bps)
    finer = max(1, declared // 2)
    decoded = _decode(config, seed=7, decimation=finer)
    assert (TID, PAYLOAD) in decoded
    assert decoded == _decode(config, seed=7, decimation=declared)


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_template_cache_parity(config):
    """The cached filtered-baseband template reproduces the reference
    passband synthesis for every modulation, and repeat lookups are
    served from cache (same object)."""
    uplink = BackscatterUplink()
    mod = get_modulation(config.modulation)
    rate = config.bitrate_bps
    fs = uplink.sample_rate_hz
    decimation = mod.decimation(fs, rate)
    cutoff_hz = mod.cutoff_hz(rate)
    low_ratio = (
        uplink.pzt.absorptive_coefficient / uplink.pzt.reflective_coefficient
    )
    n_lead = int(round(LEAD_IN_S * fs))
    n_tail = int(round(TAIL_S * fs))
    phase = 0.7
    bits = UplinkPacket(tid=TID, payload=PAYLOAD).to_bits()
    raw = mod.line_encode(bits)

    template = phy_cache.tag_template(
        raw, rate, fs, uplink.carrier_hz, low_ratio, n_lead, n_tail,
        config.modulation,
    )
    again = phy_cache.tag_template(
        raw, rate, fs, uplink.carrier_hz, low_ratio, n_lead, n_tail,
        config.modulation,
    )
    assert again is template

    n_delay = int(round(DELAY_S * fs))
    n_capture = n_delay + template.n_body + EXTRA_SAMPLES
    m = -(-n_capture // decimation)
    fast = phy_cache.leak_baseband(
        n_capture, uplink.leak_amplitude_v, fs, uplink.carrier_hz,
        cutoff_hz, decimation,
    )[:m].copy()
    bc, bs = template.baseband(n_delay, n_capture, cutoff_hz, decimation)
    fast += (AMPLITUDE_V * math.cos(phase)) * bc[:m]
    fast -= (AMPLITUDE_V * math.sin(phase)) * bs[:m]

    component = uplink.tag_component(
        bits,
        rate,
        AMPLITUDE_V,
        phase_rad=phase,
        delay_s=DELAY_S,
        lead_in_s=LEAD_IN_S,
        tail_s=TAIL_S,
        modulation=config.modulation,
    )
    capture = uplink.capture_clean([component], extra_samples=EXTRA_SAMPLES)
    reference = downconvert(
        capture, fs, uplink.carrier_hz, cutoff_hz=cutoff_hz,
        decimation=decimation,
    )
    scale = float(np.max(np.abs(reference))) or 1.0
    np.testing.assert_allclose(fast, reference[:m], rtol=0,
                               atol=1e-9 * scale)


def test_registry_surface():
    """Registry invariants the adaptive stack leans on."""
    names = modulation_names()
    assert list(names) == sorted(names)
    assert {"fm0_ook", "cook", "fsk"} <= set(names)
    for config in CONFIGS:
        mod = get_modulation(config.modulation)
        assert config.bitrate_bps in mod.rates_bps
        assert config.label == (
            f"{config.modulation}@{config.bitrate_bps:g}"
        )
        assert mod.data_rate_bps(config.bitrate_bps) > 0
        assert mod.frame_raw_bits(32) >= 32
    with pytest.raises(KeyError):
        get_modulation("qam4096")


@pytest.mark.parametrize(
    "modulation, bitrate, field",
    [
        ("fm0_ook", math.nan, "bitrate_bps"),
        ("cook", 0.0, "bitrate_bps"),
        ("fm0_ook", -375.0, "bitrate_bps"),
        ("fsk", math.inf, "bitrate_bps"),
        ("fm0_ook", True, "bitrate_bps"),
        ("fm0_ook", "375", "bitrate_bps"),
        ("fm0_ook", None, "bitrate_bps"),
        ("", 375.0, "modulation"),
        (None, 375.0, "modulation"),
        (b"fm0_ook", 375.0, "modulation"),
    ],
)
def test_link_config_rejects_invalid_fields(modulation, bitrate, field):
    """An invalid config fails at construction, naming the field, not
    later deep in the link budget (NaN success, ZeroDivisionError)."""
    with pytest.raises(ValueError, match=field):
        LinkConfig(modulation, bitrate)


@pytest.mark.parametrize("bitrate", [375.0, 750, np.float64(1500.0), np.int64(125)])
def test_link_config_accepts_real_rates(bitrate):
    config = LinkConfig("fm0_ook", bitrate)
    assert config.bitrate_bps == bitrate
    # Not looked up at construction: unknown names fail on use only.
    assert LinkConfig("qam4096", bitrate).modulation == "qam4096"
