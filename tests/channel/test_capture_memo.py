"""The memo behind ``AcousticMedium.capture_verdict``.

A collision's capture verdict (the tag the reader may still decode and
its packet success, or none) is memoised per (transmitters, bit rate,
packet bits).  It must be the verdict ``observe_slot`` reaches on the
same slot, and after every way the channel can change, a warmed medium
must answer exactly what a freshly built medium in the same state
computes.
"""

from itertools import combinations

import pytest

from repro.channel.biw import onvo_l60
from repro.channel.medium import AcousticMedium, ForeignCarrier
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.multireader import deployment_for

RATES = (93.75, 375.0, 3000.0)

#: tag8 is the strongest tag and captures against the weakest ones;
#: tag1 and tag3 tie.
TAGS = ("tag1", "tag3", "tag5", "tag8", "tag10", "tag11", "tag12")


def collisions():
    return [c for k in (2, 3) for c in combinations(TAGS, k)] + [
        ("tag3", "tag1"),
        ("tag12", "tag8"),
        TAGS,
    ]


def verdicts(medium):
    """Every collision's verdict at several rates and frame sizes."""
    return {
        (tags, rate, bits): medium.capture_verdict(tags, rate, bits)
        for tags in collisions()
        for rate in RATES
        for bits in (32, 64)
    }


class _Zeros:
    """A slot stream whose every draw is 0.0, counting them: a
    captured tag always decodes, and the collision flag always rises."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        return 0.0


def with_reader2():
    biw = onvo_l60()
    biw.add_mount("reader2", "cargo_front")
    return biw


class TestMatchesObserveSlot:
    @pytest.mark.parametrize("rate", RATES)
    def test_verdicts_are_observe_slots(self, rate):
        medium = AcousticMedium()
        captured = 0
        for tags in collisions():
            strongest, success = medium.capture_verdict(tags, rate)
            rng = _Zeros()
            obs = medium.observe_slot(tags, rng, bit_rate_bps=rate)
            assert obs.decoded_tag == strongest
            assert obs.collision_detected
            if strongest is None:
                assert (rng.draws, success) == (1, 0.0)
            else:
                captured += 1
                assert rng.draws == 2
                assert success == medium.uplink_packet_success(strongest, rate)
        assert captured > 0

    def test_repeat_calls_are_memoised(self):
        medium = AcousticMedium()
        first = medium.capture_verdict(("tag8", "tag11"), 375.0)
        assert first[0] == "tag8"
        medium._captures[(("tag8", "tag11"), 375.0, 64)] = ("marker", 0.5)
        assert medium.capture_verdict(["tag8", "tag11"], 375.0) == ("marker", 0.5)

    def test_verdicts_listed_per_rate_in_resolution_order(self):
        medium = AcousticMedium()
        medium.capture_verdict(("tag8", "tag12"), 375.0)
        medium.capture_verdict(("tag1", "tag3"), 3000.0)
        medium.capture_verdict(("tag1", "tag5"), 375.0)
        medium.capture_verdict(("tag1", "tag5"), 375.0, 32)
        assert list(medium.capture_verdicts(375.0)) == [
            ("tag8", "tag12"),
            ("tag1", "tag5"),
        ]
        assert list(medium.capture_verdicts(3000.0)) == [("tag1", "tag3")]
        assert list(medium.capture_verdicts(375.0, 32)) == [("tag1", "tag5")]

    @pytest.mark.parametrize("tags", [(), ("tag8",)])
    def test_fewer_than_two_transmitters_raise_on_every_call(self, tags):
        medium = AcousticMedium()
        for _ in range(3):
            with pytest.raises(ValueError, match="two or more"):
                medium.capture_verdict(tags)
        assert medium.capture_verdicts() == {}


class TestInvalidation:
    def test_junction_loss_fault(self):
        net = SlottedNetwork(
            {"tag1": 4, "tag8": 8, "tag11": 8},
            config=NetworkConfig(seed=3),
            faults=FaultSchedule(
                [FaultEvent(slot=2, duration=3, kind="junction_loss", magnitude=2.5)]
            ),
        )
        medium = net.medium
        clean = verdicts(medium)
        assert clean == verdicts(AcousticMedium())
        net.run(3)  # slot 2 applies the fault
        cracked = onvo_l60()
        cracked.set_joint_loss_offset_db(2.5)
        faulted = verdicts(medium)
        assert faulted == verdicts(AcousticMedium(biw=cracked))
        assert faulted != clean
        net.run(3)  # slot 5 clears it
        assert verdicts(medium) == clean

    def test_set_carrier(self):
        medium = AcousticMedium()
        clean = verdicts(medium)
        assert medium.set_carrier(92_000.0, response=0.4)
        fresh = AcousticMedium()
        fresh.set_carrier(92_000.0, response=0.4)
        retuned = verdicts(medium)
        assert retuned == verdicts(fresh)
        assert retuned != clean
        assert medium.set_carrier(AcousticMedium().carrier_frequency_hz)
        assert verdicts(medium) == clean

    def test_set_foreign_carriers(self):
        medium = AcousticMedium(biw=with_reader2())
        clean = verdicts(medium)
        foreign = [ForeignCarrier("reader2", medium.carrier_frequency_hz)]
        assert medium.set_foreign_carriers(foreign)
        fresh = AcousticMedium(biw=with_reader2())
        fresh.set_foreign_carriers(foreign)
        jammed = verdicts(medium)
        assert jammed == verdicts(fresh)
        assert jammed != clean
        assert medium.set_foreign_carriers(())
        assert verdicts(medium) == clean

    def test_links_dropped_through_another_medium(self):
        # The media of a multi-reader deployment share one propagation
        # model; dropping its links through one must reach the verdicts
        # the other one memoised from them.
        deployment = deployment_for(2)
        first, second = (deployment.medium_for(r) for r in deployment.readers)
        before = verdicts(second)
        deployment.biw.set_joint_loss_offset_db(4.0)
        first.invalidate_channel_cache()
        assert second.capture_verdicts() == {}
        after = verdicts(second)
        assert after != before
        fresh = {}
        for key in after:
            second._captures.clear()
            fresh[key] = second.capture_verdict(*key)
        assert after == fresh
