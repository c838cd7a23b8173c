"""Guards on the public API surface.

Every exported item must exist, be importable from its subpackage, and
carry a docstring; the generated API index must be rebuildable.
"""

import importlib
import inspect

import pytest

SUBPACKAGES = [
    "repro",
    "repro.sim",
    "repro.perf",
    "repro.telemetry",
    "repro.channel",
    "repro.hardware",
    "repro.phy",
    "repro.phy.kernels",
    "repro.phy.modulation",
    "repro.phy.cook",
    "repro.phy.fsk",
    "repro.phy.rate",
    "repro.core",
    "repro.faults",
    "repro.resilience",
    "repro.baselines",
    "repro.analysis",
    "repro.experiments",
    "repro.ext",
    "repro.app",
    "repro.fleet",
    "repro.multireader",
    "repro.relay",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for item in getattr(module, "__all__", []):
        assert hasattr(module, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_exported_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for item_name in getattr(module, "__all__", []):
        item = getattr(module, item_name)
        if inspect.isclass(item) or inspect.isfunction(item):
            if not inspect.getdoc(item):
                undocumented.append(item_name)
    assert undocumented == [], f"{name}: undocumented exports {undocumented}"


def test_api_index_generator_runs():
    import sys
    sys.path.insert(0, "tools")
    try:
        from gen_api_index import render

        text = render()
    finally:
        sys.path.pop(0)
    assert "## `repro.core`" in text
    assert "SlottedNetwork" in text


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize(
    "module, attribute",
    [
        ("repro.phy.rate", "adaptive_enabled"),
        ("repro.phy.rate", "set_adaptive"),
        ("repro.phy.rate", "adaptive"),
        ("repro.phy.rate", "ADAPTIVE_ENV"),
        ("repro.phy", "adaptive_enabled"),
        ("repro.core.waveform_network", "_LINK_CACHE_DEPRECATION_EMITTED"),
        ("repro.phy.modem", "raw_bits_to_levels_reference"),
        ("repro.phy.modem", "FskOokDownlink.naive_ook_waveform_reference"),
        ("repro.phy.cook", "_OFFSET_STEPS"),
        ("repro.phy.fsk", "_OFFSET_STEPS"),
        ("repro.app", "FleetResultBuffer"),
        ("repro.app.shm", "FleetResultBuffer"),
    ],
)
def test_removed_surface_stays_gone(module, attribute):
    """The adaptive gate and the link-cache deprecation latch were
    removed in 1.11.0; the scalar oracles moved to tests/phy/oracles.py
    and the demodulators' private scan constants folded into
    ``repro.phy.modulation`` in 1.12.0; the fleet runner's shared-memory
    result buffer went in 1.14.0.  Nothing may quietly reintroduce
    them."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, name)


@pytest.mark.parametrize(
    "module", ["repro.ext.fdma", "repro.ext.multireader", "repro.phy._kernels_numba"]
)
def test_removed_modules_stay_gone(module):
    with pytest.raises(ImportError):
        importlib.import_module(module)


def test_network_tiers_share_one_slot_loop():
    """Every network tier runs the base slot loop and a single observe
    path (the seams replace private copies)."""
    from repro.core.energy_network import EnergyAwareNetwork
    from repro.core.waveform_network import WaveformNetwork
    from repro.relay import RelaySlottedNetwork

    for cls in (EnergyAwareNetwork, RelaySlottedNetwork, WaveformNetwork):
        assert "step" not in vars(cls), cls.__name__
    assert not hasattr(WaveformNetwork, "_observe_adaptive")
    assert not hasattr(WaveformNetwork, "invalidate_link_cache")
