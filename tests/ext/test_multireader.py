"""Tests for the multi-reader spatial-multiplexing extension."""

import pytest

from repro.core.network import NetworkConfig
from repro.experiments.configs import pattern
from repro.multireader import (
    DEFAULT_SECOND_READER,
    MultiReaderDeployment,
    ReaderPlacement,
)


@pytest.fixture(scope="module")
def deployment():
    return MultiReaderDeployment()


class TestAssociation:
    def test_cargo_tags_switch_to_second_reader(self, deployment):
        assoc = deployment.association()
        assert "tag11" in assoc["reader2"]
        assert "tag10" in assoc["reader2"]

    def test_front_tags_keep_primary_reader(self, deployment):
        assoc = deployment.association()
        for t in ("tag1", "tag2", "tag5", "tag8"):
            assert t in assoc["reader"]

    def test_every_tag_associated_once(self, deployment):
        assoc = deployment.association()
        all_tags = [t for tags in assoc.values() for t in tags]
        assert sorted(all_tags) == sorted(deployment.tag_names())


class TestHarvestImprovement:
    def test_worst_case_charge_time_improves(self, deployment):
        single, multi = deployment.worst_case_improvement()
        assert single == pytest.approx(56.8, rel=0.05)
        assert multi < 0.8 * single

    def test_near_tags_unchanged(self, deployment):
        # tag8 stays with the primary reader at the same distance.
        assert deployment.best_reader("tag8") == "reader"
        assert deployment.charge_time_s("tag8") == pytest.approx(4.5, abs=0.1)

    def test_cargo_voltage_rises(self, deployment):
        v_single = deployment.propagation.link("reader", "tag11").amplitude_v
        v_multi = deployment.harvest_voltage("tag11")
        assert v_multi > 1.5 * v_single


class TestCoordination:
    def test_per_reader_networks_converge(self, deployment):
        nets = deployment.build_networks(
            pattern("c2").tag_periods(),
            NetworkConfig(seed=5, ideal_channel=True),
        )
        assert set(nets) == {"reader", "reader2"}
        for net in nets.values():
            assert net.run_until_converged(max_slots=50_000) is not None

    def test_smaller_domains_converge_faster_at_high_load(self, deployment):
        import numpy as np

        # Utilisation-1.0 is the regime where halving the domain helps.
        periods = pattern("c5").tag_periods()
        multi_times = []
        single_times = []
        for seed in range(4):
            nets = deployment.build_networks(
                periods, NetworkConfig(seed=seed, ideal_channel=True)
            )
            # Each reader's subdomain has utilisation well under 1.
            multi_times.append(
                max(
                    n.run_until_converged(max_slots=60_000) or 60_000
                    for n in nets.values()
                )
            )
            from repro.core.network import SlottedNetwork

            net = SlottedNetwork(
                periods, config=NetworkConfig(seed=seed, ideal_channel=True)
            )
            single_times.append(net.run_until_converged(max_slots=60_000) or 60_000)
        assert np.median(multi_times) < np.median(single_times)

    def test_custom_placement(self):
        d = MultiReaderDeployment(
            extra_readers=(ReaderPlacement("reader_front", "dashboard"),)
        )
        assert "reader_front" in d.readers
        assert d.best_reader("tag2") in ("reader", "reader_front")
