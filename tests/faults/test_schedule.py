"""FaultEvent / FaultSchedule: validation, ordering, serialisation,
and seed-derived generation."""

import json

import pytest

from repro.faults.schedule import (
    ALL_KINDS,
    ALL_TAGS,
    DEFAULT_MAGNITUDES,
    FaultEvent,
    FaultSchedule,
)


class TestFaultEvent:
    def test_defaults_fill_magnitude(self):
        e = FaultEvent(slot=3, duration=2, kind="noise_burst")
        assert e.magnitude == DEFAULT_MAGNITUDES["noise_burst"]
        assert e.target == ALL_TAGS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(slot=0, duration=1, kind="gremlins")

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            FaultEvent(slot=-1, duration=1, kind="beacon_loss")

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(slot=0, duration=0, kind="beacon_loss")

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            FaultEvent(slot=0, duration=1, kind="beacon_loss", target="")

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError, match="magnitude"):
            FaultEvent(slot=0, duration=1, kind="noise_burst", magnitude=-3.0)

    def test_fractional_bit_flip_rejected(self):
        with pytest.raises(ValueError, match="bit_flip"):
            FaultEvent(slot=0, duration=1, kind="bit_flip", magnitude=0.5)

    def test_window_arithmetic(self):
        e = FaultEvent(slot=10, duration=4, kind="beacon_loss")
        assert e.clear_slot == 14
        assert not e.active_at(9)
        assert e.active_at(10)
        assert e.active_at(13)
        assert not e.active_at(14)

    def test_json_round_trip(self):
        e = FaultEvent(slot=5, duration=2, kind="attenuation", target="tag3",
                       magnitude=7.5, fault_id=9)
        assert FaultEvent.from_jsonable(e.to_jsonable()) == e


class TestFaultSchedule:
    def test_sequential_id_assignment(self):
        s = FaultSchedule(
            [
                FaultEvent(slot=8, duration=1, kind="beacon_loss"),
                FaultEvent(slot=2, duration=1, kind="ack_corrupt", target="tag1"),
            ]
        )
        # Input order determines ids; slot order determines iteration.
        assert [e.fault_id for e in s] == [1, 0]
        assert [e.slot for e in s] == [2, 8]

    def test_explicit_ids_kept_and_collisions_rejected(self):
        s = FaultSchedule(
            [FaultEvent(slot=0, duration=1, kind="beacon_loss", fault_id=5)]
        )
        assert s.events[0].fault_id == 5
        with pytest.raises(ValueError, match="unique"):
            FaultSchedule(
                [
                    FaultEvent(slot=0, duration=1, kind="beacon_loss", fault_id=5),
                    FaultEvent(slot=1, duration=1, kind="beacon_loss", fault_id=5),
                ]
            )

    def test_queries(self):
        s = FaultSchedule(
            [
                FaultEvent(slot=0, duration=4, kind="beacon_loss"),
                FaultEvent(slot=2, duration=1, kind="noise_burst"),
            ]
        )
        assert len(s) == 2
        assert bool(s)
        assert not bool(FaultSchedule([]))
        assert s.kinds() == ("beacon_loss", "noise_burst")
        assert [e.kind for e in s.active_at(2)] == ["beacon_loss", "noise_burst"]
        assert s.last_clear_slot == 4
        assert FaultSchedule([]).last_clear_slot == 0

    def test_shifted_preserves_everything_else(self):
        s = FaultSchedule([FaultEvent(slot=3, duration=2, kind="brownout",
                                      target="tag1")])
        moved = s.shifted(10)
        assert moved.events[0].slot == 13
        assert moved.events[0].duration == 2
        assert moved.events[0].fault_id == s.events[0].fault_id

    def test_json_round_trip_and_version_check(self):
        s = FaultSchedule.generate(seed=4, n_slots=100, tags=["tag1", "tag2"])
        assert FaultSchedule.from_jsonable(s.to_jsonable()) == s
        bad = s.to_jsonable()
        bad["version"] = 99
        with pytest.raises(ValueError, match="version"):
            FaultSchedule.from_jsonable(bad)

    def test_canonical_bytes_are_valid_sorted_json(self):
        s = FaultSchedule([FaultEvent(slot=1, duration=1, kind="crc_corrupt",
                                      target="tag2")])
        doc = json.loads(s.canonical_bytes())
        assert doc["events"][0]["kind"] == "crc_corrupt"
        # Identical schedules built separately share bytes and signature.
        twin = FaultSchedule([FaultEvent(slot=1, duration=1, kind="crc_corrupt",
                                         target="tag2")])
        assert twin.canonical_bytes() == s.canonical_bytes()
        assert twin.signature() == s.signature()
        assert s == twin and hash(s) == hash(twin)


class TestGenerate:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule.generate(seed=11, n_slots=500, tags=["tag1", "tag2"])
        b = FaultSchedule.generate(seed=11, n_slots=500, tags=["tag1", "tag2"])
        assert a == b
        assert a.signature() == b.signature()

    def test_different_seed_different_schedule(self):
        a = FaultSchedule.generate(seed=11, n_slots=500, tags=["tag1"],
                                   n_faults=8)
        b = FaultSchedule.generate(seed=12, n_slots=500, tags=["tag1"],
                                   n_faults=8)
        assert a != b

    def test_generated_fields_within_bounds(self):
        tags = ["tag1", "tag2", "tag3"]
        s = FaultSchedule.generate(seed=2, n_slots=300, tags=tags, n_faults=40,
                                   max_duration=6, start_slot=50)
        assert len(s) == 40
        for e in s:
            assert 50 <= e.slot < 300
            assert 1 <= e.duration <= 6
            assert e.kind in ALL_KINDS
            if e.kind == "reader_restart":
                assert e.target == "reader" and e.duration == 1
            elif e.kind in ("noise_burst", "junction_loss"):
                assert e.target == ALL_TAGS
            else:
                assert e.target in tags

    def test_kind_subset_respected(self):
        s = FaultSchedule.generate(seed=5, n_slots=100, tags=["tag1"],
                                   kinds=["beacon_loss", "brownout"],
                                   n_faults=20)
        assert set(s.kinds()) <= {"beacon_loss", "brownout"}

    def test_generate_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule.generate(seed=0, n_slots=10, tags=["tag1"],
                                   kinds=["nope"])
        with pytest.raises(ValueError, match="tag list"):
            FaultSchedule.generate(seed=0, n_slots=10, tags=[])
        with pytest.raises(ValueError, match="start_slot"):
            FaultSchedule.generate(seed=0, n_slots=10, tags=["tag1"],
                                   start_slot=10)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 0.5),
            ("seed", True),
            ("seed", "3"),
            ("n_slots", 10.5),
            ("n_faults", True),
            ("n_faults", 2.0),
            ("max_duration", 2.5),
            ("start_slot", 1.5),
        ],
    )
    def test_generate_rejects_non_integer_sizes_and_seeds(self, field, value):
        # int() would truncate each into another schedule: seed 0.5 into
        # seed 0's, n_faults=True into one fault.
        args = dict(seed=0, n_slots=10, n_faults=3, max_duration=2, start_slot=0)
        args[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            FaultSchedule.generate(tags=["tag1"], **args)

    def test_generate_takes_numpy_integers(self):
        import numpy as np

        a = FaultSchedule.generate(seed=np.int64(4), n_slots=np.int32(50),
                                   tags=["tag1"], n_faults=np.uint8(5))
        assert a == FaultSchedule.generate(seed=4, n_slots=50, tags=["tag1"],
                                           n_faults=5)
