"""The memo behind ``AcousticMedium.uplink_packet_success``.

Penalty-free results are memoised per (tag, bit rate, packet bits).
After every way the channel can change, a warmed medium must answer
exactly what a freshly built medium in the same state computes.
"""

import pytest

from repro.channel.biw import onvo_l60
from repro.channel.medium import AcousticMedium, ForeignCarrier
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.multireader import deployment_for

RATES = (93.75, 375.0, 3000.0)


def budget(medium):
    """Every tag's packet success at several rates and frame sizes."""
    return {
        (tag, rate, bits): medium.uplink_packet_success(tag, rate, bits)
        for tag in medium.tag_names()
        for rate in RATES
        for bits in (32, 64)
    }


def with_reader2():
    biw = onvo_l60()
    biw.add_mount("reader2", "cargo_front")
    return biw


class TestInvalidation:
    def test_junction_loss_fault(self):
        net = SlottedNetwork(
            {"tag1": 4, "tag4": 8, "tag11": 8},
            config=NetworkConfig(seed=3),
            faults=FaultSchedule(
                [FaultEvent(slot=2, duration=3, kind="junction_loss", magnitude=2.5)]
            ),
        )
        medium = net.medium
        clean = budget(medium)
        assert clean == budget(AcousticMedium())
        net.run(3)  # slot 2 applies the fault
        assert medium.biw.joint_loss_offset_db == 2.5
        cracked = onvo_l60()
        cracked.set_joint_loss_offset_db(2.5)
        faulted = budget(medium)
        assert faulted == budget(AcousticMedium(biw=cracked))
        assert faulted != clean
        net.run(3)  # slot 5 clears it
        assert medium.biw.joint_loss_offset_db == 0.0
        assert budget(medium) == clean

    def test_set_carrier(self):
        medium = AcousticMedium()
        clean = budget(medium)
        assert medium.set_carrier(92_000.0, response=0.4)
        fresh = AcousticMedium()
        fresh.set_carrier(92_000.0, response=0.4)
        retuned = budget(medium)
        assert retuned == budget(fresh)
        assert retuned != clean
        assert medium.set_carrier(fresh.carrier_frequency_hz, response=1.0)
        assert medium.set_carrier(AcousticMedium().carrier_frequency_hz)
        assert budget(medium) == clean

    def test_set_foreign_carriers(self):
        medium = AcousticMedium(biw=with_reader2())
        clean = budget(medium)
        foreign = [ForeignCarrier("reader2", medium.carrier_frequency_hz)]
        assert medium.set_foreign_carriers(foreign)
        fresh = AcousticMedium(biw=with_reader2())
        fresh.set_foreign_carriers(foreign)
        jammed = budget(medium)
        assert jammed == budget(fresh)
        assert jammed != clean
        assert medium.set_foreign_carriers(())
        assert budget(medium) == clean

    def test_links_dropped_through_another_medium(self):
        # A multi-reader deployment's media share one propagation
        # model; invalidating it through one medium must reach the
        # results the other one memoised from its links.
        deployment = deployment_for(2)
        first, second = (deployment.medium_for(r) for r in deployment.readers)
        budget(second)
        deployment.biw.set_joint_loss_offset_db(4.0)
        first.invalidate_channel_cache()
        assert budget(second) == {
            (tag, rate, bits): second._packet_success_of(tag, rate, bits, 0.0)
            for tag, rate, bits in budget(second)
        }


class TestBypass:
    def test_penalised_calls_are_not_memoised(self):
        medium = AcousticMedium()
        penalised = medium.uplink_packet_success("tag11", 3000.0, penalty_db=6.0)
        assert medium._packet_success == {}
        plain = medium.uplink_packet_success("tag11", 3000.0)
        assert penalised < plain
        again = medium.uplink_packet_success("tag11", 3000.0, penalty_db=6.0)
        assert again == penalised
        assert list(medium._packet_success) == [("tag11", 3000.0, 64)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bit_rate_bps=375.0, packet_bits=0),
            dict(bit_rate_bps=375.0, packet_bits=-8),
            dict(bit_rate_bps=0.0),
            dict(bit_rate_bps=-375.0),
        ],
    )
    def test_bad_inputs_raise_on_every_call(self, kwargs):
        medium = AcousticMedium()
        medium.uplink_packet_success("tag1", 375.0)
        for _ in range(3):
            with pytest.raises(ValueError):
                medium.uplink_packet_success("tag1", **kwargs)
