"""Tests for the integrated tag firmware (demod -> MAC -> mod)."""

import itertools

import numpy as np
import pytest

from repro.core.state_machine import TagState
from repro.core.tag_protocol import TagMac
from repro.hardware.tag_firmware import TURNAROUND_S, TagFirmware
from repro.phy.fm0 import fm0_decode
from repro.phy.packets import DownlinkBeacon, UplinkPacket, find_ul_frames
from repro.phy.reader_tx import JitteredPieTransmitter


def make_firmware(period=4, offsets=(0,), payload=77, **kwargs):
    it = iter(offsets)
    mac = TagMac("tagX", tid=3, period=period, offset_picker=lambda p: next(it))
    return TagFirmware(mac, payload_source=lambda: payload, **kwargs)


def feed_beacon(fw, beacon, start_s=0.0, rng=None, jitter=False):
    """Drive the firmware's edge interrupts with a beacon's waveform."""
    tx = JitteredPieTransmitter(raw_rate_bps=250.0)
    if jitter:
        edges = tx.transmit(beacon.to_bits(), rng, start_s=start_s)
    else:
        edges = tx.intended_edges(beacon.to_bits(), start_s=start_s)
    for t, level in edges:
        fw.on_comparator_edge(t, level)
    return edges[-1][0]


class TestFirmwarePipeline:
    def test_beacon_decodes_and_steps_mac(self):
        fw = make_firmware()
        feed_beacon(fw, DownlinkBeacon(empty=True))
        assert fw.beacons_decoded == 1
        assert fw.decisions == [True]
        assert fw.mac.slot_counter == 1

    def test_transmission_scheduled_after_turnaround(self):
        fw = make_firmware(period=4, offsets=(0,))
        end = feed_beacon(fw, DownlinkBeacon(empty=True))
        assert len(fw.transmissions) == 1
        tx = fw.transmissions[0]
        assert tx.start_s == pytest.approx(end + TURNAROUND_S, abs=1e-9)

    def test_scheduled_gpio_is_valid_fm0_frame(self):
        fw = make_firmware(payload=1234)
        feed_beacon(fw, DownlinkBeacon(empty=True))
        raw = [e.level for e in fw.transmissions[0].gpio_events]
        frames = find_ul_frames(fm0_decode(raw).bits)
        assert frames == [UplinkPacket(tid=3, payload=1234)]

    def test_ack_settles_through_full_pipeline(self):
        fw = make_firmware(period=4, offsets=(0,))
        t = feed_beacon(fw, DownlinkBeacon(empty=True))  # slot 0: transmits
        feed_beacon(fw, DownlinkBeacon(ack=True, empty=True), start_s=t + 1.0)
        assert fw.mac.state is TagState.SETTLE

    def test_watchdog_path(self):
        fw = make_firmware(period=4, offsets=(0, 2))
        feed_beacon(fw, DownlinkBeacon(empty=True))
        fw.on_watchdog()
        assert fw.mac.state is TagState.MIGRATE
        assert fw.mac.offset == 2

    def test_survives_usb_jitter(self, rng):
        fw = make_firmware(period=2, offsets=(0,), rng=rng)
        t = 0.0
        decoded_before = 0
        for k in range(10):
            t = feed_beacon(
                fw, DownlinkBeacon(ack=bool(k), empty=True), start_s=k * 1.0,
                rng=rng, jitter=True,
            )
        assert fw.beacons_decoded == 10

    def test_energy_bill_accumulates_per_activity(self):
        fw = make_firmware(period=1, offsets=(0,))
        for k in range(4):
            feed_beacon(fw, DownlinkBeacon(ack=True, empty=True), start_s=k * 1.0)
        counts = fw.meter.isr_counts
        assert counts["beacon"] == 4
        assert counts["edge"] >= 4 * 16
        assert counts["timer"] == 4 * 64  # one per raw bit per frame
        # Average current over the 4 s run sits between IDLE and RX
        # mode levels: mostly asleep, waking per slot.
        avg = fw.average_current_a(4.0)
        assert 0.5e-6 < avg < 12e-6

    def test_payload_masked_to_12_bits(self):
        fw = make_firmware(payload=0xFFFF)
        feed_beacon(fw, DownlinkBeacon(empty=True))
        assert fw.transmissions[0].packet.payload == 0xFFF
