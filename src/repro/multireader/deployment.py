"""Multi-reader geometry over the stock BiW (Sec. 6.3 discussion).

A single centrally-placed reader leaves the cargo tags with 2.7 V
harvests and 56 s charging times.  Distributing extra readers across
the BiW (a) lifts the worst-case harvest, since every tag associates
with its nearest reader, and (b) splits the coordination domain: each
reader runs its own slot allocation over its associated tags, with the
carrier-allocation planner (:mod:`repro.multireader.planner`) keeping
their simultaneous carriers out of each other's uplink bands.

:class:`MultiReaderDeployment` mounts extra readers on the stock BiW
and answers the geometric questions the rest of the subsystem asks:
which reader serves each tag best, which tags sit in overlap zones,
and what each reader's receive chain hears from the others.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.channel import acoustics
from repro.channel.biw import BiWModel, onvo_l60
from repro.channel.medium import AcousticMedium
from repro.channel.propagation import PropagationModel
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.hardware.harvester import EnergyHarvester

#: A tag whose second-best reader's carrier arrives within this margin
#: of the best reader's sits in an *overlap zone*: it is provisioned on
#: both readers and eligible for handoff when its home link degrades.
OVERLAP_MARGIN_DB = 6.0

#: Extra-reader vertex ladders for the figT reader-count × spacing
#: sweep.  "near" clusters the extra readers around the stock
#: middle-floor reader; "far" pushes them to the cargo bay and
#: dashboard, the BiW extremities.
READER_SPACING_PRESETS: Dict[str, Tuple[str, ...]] = {
    "near": ("mid_rear", "mid_left", "front_right_seat"),
    "far": ("cargo_front", "dashboard", "rear_floor_left"),
}


@dataclass(frozen=True)
class ReaderPlacement:
    """One reader: a name and the BiW vertex it is epoxied to."""

    name: str
    vertex: str


#: The stock second reader position evaluated by the extension bench:
#: in the cargo area, closest to the worst-harvesting tags.
DEFAULT_SECOND_READER = ReaderPlacement("reader2", "cargo_front")


class MultiReaderDeployment:
    """The ONVO L60 deployment with additional readers."""

    def __init__(
        self,
        extra_readers: Sequence[ReaderPlacement] = (DEFAULT_SECOND_READER,),
        biw: Optional[BiWModel] = None,
    ) -> None:
        self.biw = biw if biw is not None else onvo_l60()
        self.readers: List[str] = ["reader"]
        for placement in extra_readers:
            self.biw.add_mount(placement.name, placement.vertex)
            self.readers.append(placement.name)
        self.propagation = PropagationModel(self.biw)
        self._harvester = EnergyHarvester()
        self._media: Dict[str, AcousticMedium] = {}

    # -- association and harvest ------------------------------------------------

    def tag_names(self) -> List[str]:
        return sorted(
            (m for m in self.biw.mounts if m not in self.readers),
            key=lambda n: int("".join(c for c in n if c.isdigit()) or 0),
        )

    def best_reader(self, tag: str) -> str:
        """The reader whose carrier arrives strongest at ``tag``."""
        return max(
            self.readers,
            key=lambda r: self.propagation.link(r, tag).amplitude_v,
        )

    def covering_readers(
        self, tag: str, margin_db: float = OVERLAP_MARGIN_DB
    ) -> List[str]:
        """Readers whose carrier at ``tag`` is within ``margin_db`` of
        the strongest one, strongest first (ties broken by name).  A
        result longer than one marks an overlap-zone tag."""
        if margin_db < 0:
            raise ValueError("margin must be non-negative")
        ranked = sorted(
            self.readers,
            key=lambda r: (-self.propagation.link(r, tag).amplitude_v, r),
        )
        best_v = self.propagation.link(ranked[0], tag).amplitude_v
        floor = best_v * acoustics.db_to_amplitude_ratio(-margin_db)
        return [
            r for r in ranked if self.propagation.link(r, tag).amplitude_v >= floor
        ]

    def association(self) -> Dict[str, List[str]]:
        """Reader -> associated tags."""
        out: Dict[str, List[str]] = {r: [] for r in self.readers}
        for tag in self.tag_names():
            out[self.best_reader(tag)].append(tag)
        return out

    def medium_for(self, reader: str) -> AcousticMedium:
        """A cached per-reader receive channel: same BiW and propagation
        model, that reader as the source.  All media share the stock
        ``tag8`` reference anchor so backscatter amplitudes stay on one
        comparable scale across readers."""
        if reader not in self.readers:
            raise KeyError(f"unknown reader {reader!r}")
        medium = self._media.get(reader)
        if medium is None:
            medium = AcousticMedium(
                biw=self.biw, propagation=self.propagation, source=reader
            )
            self._media[reader] = medium
        return medium

    def harvest_voltage(self, tag: str) -> float:
        """PZT voltage from the tag's associated reader.

        Readers alternate carriers (time-interleaved), so a tag harvests
        from whichever serves it; simultaneous-carrier operation would
        add the contributions but needs interference management.
        """
        return self.propagation.link(self.best_reader(tag), tag).amplitude_v

    def charge_time_s(self, tag: str) -> float:
        return self._harvester.charge_time_s(self.harvest_voltage(tag))

    def worst_case_improvement(self) -> Tuple[float, float]:
        """(single-reader worst charge time, multi-reader worst)."""
        single = max(
            self._harvester.charge_time_s(
                self.propagation.link("reader", t).amplitude_v
            )
            for t in self.tag_names()
        )
        multi = max(self.charge_time_s(t) for t in self.tag_names())
        return single, multi

    # -- coordination ---------------------------------------------------------------

    def build_networks(
        self,
        tag_periods: Mapping[str, int],
        config: Optional[NetworkConfig] = None,
    ) -> Dict[str, SlottedNetwork]:
        """One slot-allocation network per reader over its tags.

        Readers interleave slots in time (reader k owns slots where
        ``slot % n_readers == k``), so each network sees a clean channel
        of its own; each tag's effective reporting period in wall-clock
        slots is its period times the reader count, which callers should
        account for when provisioning.  For simultaneous-carrier
        operation use :class:`repro.multireader.MultiReaderNetwork`,
        which models the cross-reader interference this scheme avoids.
        """
        base = config if config is not None else NetworkConfig()
        association = self.association()
        networks: Dict[str, SlottedNetwork] = {}
        for idx, reader in enumerate(self.readers):
            tags = {
                t: p for t, p in tag_periods.items() if t in association[reader]
            }
            if not tags:
                continue
            # Per-reader medium: same BiW, that reader as the source.
            medium = AcousticMedium(
                biw=self.biw,
                propagation=self.propagation,
                reference_tag=min(
                    tags, key=lambda t: self.propagation.link(reader, t).loss_db
                ),
                source=reader,
            )
            cfg = replace(base, seed=base.seed + 104_729 * idx)
            networks[reader] = SlottedNetwork(tags, medium, cfg)
        return networks


def deployment_for(
    n_readers: int, spacing: str = "far"
) -> MultiReaderDeployment:
    """A preset deployment with ``n_readers`` total readers at the
    named spacing (:data:`READER_SPACING_PRESETS`) — the figT sweep's
    configuration axis.  ``n_readers=1`` is the stock single-reader
    BiW."""
    if n_readers < 1:
        raise ValueError("need at least one reader")
    try:
        vertices = READER_SPACING_PRESETS[spacing]
    except KeyError:
        raise ValueError(
            f"unknown spacing {spacing!r}; "
            f"choose from {sorted(READER_SPACING_PRESETS)}"
        ) from None
    if n_readers - 1 > len(vertices):
        raise ValueError(
            f"spacing {spacing!r} supports at most {len(vertices) + 1} readers"
        )
    extras = tuple(
        ReaderPlacement(f"reader{i + 2}", vertices[i])
        for i in range(n_readers - 1)
    )
    return MultiReaderDeployment(extra_readers=extras)
