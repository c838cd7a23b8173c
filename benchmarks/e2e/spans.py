"""Per-layer spans for the end-to-end benchmark's trace runs.

The span table is data: one ``(span, module, attribute)`` row per
wrapped entry point.  Each row names a layer's public entry point *at
the name its caller looks it up by*: ``WaveformNetwork`` imports
``detect_collision_iq`` into its own module, so that span wraps
``repro.core.waveform_network.detect_collision_iq``, not the
definition in ``repro.phy.iq``.  An attribute may be ``Class.method``.
Several rows may share one span name; their time adds up.

:class:`Tracer` swaps every row's attribute for a timing wrapper and
restores the originals on :meth:`Tracer.uninstall`.  A span's *self*
time is its wall time minus the part of it that nested spans cover,
so self times add up to the time spent inside outermost spans; what
no span covers is reported as ``unattributed``.  Spans are kept in
memory as per-span sums (calls and self seconds).

Nothing here touches ``src/``; the wrappers live only in the process
that installs them.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Tuple

_FAULTS = "repro.faults.controller"

#: ``(span, module, attribute)`` for every wrapped entry point.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    # Paper figures: the runner and one span per experiment job.
    ("experiments.runner", "repro.experiments.runner", "collect_results"),
    ("experiments.table2", "repro.experiments.table2_power", "run_table2"),
    ("experiments.fig11", "repro.experiments.fig11_energy", "run_fig11"),
    ("experiments.fig12", "repro.experiments.fig12_uplink", "run_fig12"),
    ("experiments.fig13", "repro.experiments.fig13_downlink", "run_fig13"),
    ("experiments.fig14", "repro.experiments.fig14_pingpong", "run_fig14"),
    ("experiments.fig15", "repro.experiments.table3_convergence", "run_fig15"),
    ("experiments.fig16", "repro.experiments.fig16_longrun", "run_fig16"),
    ("experiments.fig17", "repro.experiments.fig17_strain", "run_fig17"),
    ("experiments.fig19", "repro.experiments.fig19_aloha", "run_fig19"),
    ("experiments.figS", "repro.experiments.figS_degradation", "run_figS"),
    ("experiments.figS", "repro.experiments.figS_degradation", "summarize_figS"),
    # Slot MAC: the slot loop, its arbitration stage, both protocol ends.
    ("core.step", "repro.core.network", "SlottedNetwork.step"),
    ("core.observe", "repro.core.network", "SlottedNetwork._observe"),
    ("core.observe", "repro.core.waveform_network", "WaveformNetwork._observe"),
    ("core.tag_mac", "repro.core.tag_protocol", "TagMac.on_beacon"),
    ("core.tag_mac", "repro.core.tag_protocol", "TagMac.on_beacon_loss"),
    ("core.reader_mac", "repro.core.reader_protocol", "ReaderMac.make_beacon"),
    ("core.reader_mac", "repro.core.reader_protocol", "ReaderMac.on_slot_observation"),
    ("channel.observe_slot", "repro.channel.medium", "AcousticMedium.observe_slot"),
    ("resilience.supervisor", "repro.resilience.supervisor", "NetworkSupervisor.step"),
    ("faults.controller", _FAULTS, "FaultController.on_slot_start"),
    ("faults.controller", _FAULTS, "FaultController.on_slot_end"),
    ("faults.controller", _FAULTS, "FaultController.tag_offline"),
    ("faults.controller", _FAULTS, "FaultController.beacon_lost"),
    ("faults.controller", _FAULTS, "FaultController.beacon_for"),
    ("faults.controller", _FAULTS, "FaultController.transmit_allowed"),
    ("faults.controller", _FAULTS, "FaultController.transform_observation"),
    ("faults.controller", _FAULTS, "FaultController.penalties_for"),
    ("faults.controller", _FAULTS, "FaultController.snr_penalty_for"),
    ("faults.controller", _FAULTS, "FaultController.uplink_bit_flips"),
    # Waveform PHY: slot synthesis from cached templates.
    ("phy.synth.template", "repro.phy.cache", "tag_template"),
    ("phy.synth.template", "repro.phy.cache", "TagTemplate.baseband"),
    ("phy.synth.template", "repro.phy.cache", "leak_baseband"),
    ("phy.synth.combine", "repro.phy.kernels", "combine_templates"),
    ("phy.synth.noise", "repro.core.waveform_network", "receiver_noise_baseband"),
    # Waveform PHY: the reader's receive chain.
    ("phy.rx.decode", "repro.phy.reader_dsp", "ReaderReceiveChain.decode_baseband"),
    ("phy.rx.decode", "repro.phy.reader_dsp", "ReaderReceiveChain.decode_config"),
    ("phy.rx.project", "repro.phy.kernels", "project"),
    ("phy.rx.slice", "repro.phy.reader_dsp", "ReaderReceiveChain.schmitt"),
    ("phy.rx.slice", "repro.phy.reader_dsp", "ReaderReceiveChain._raw_bit_sums"),
    ("phy.rx.fm0", "repro.phy.kernels", "fm0_pairs"),
    ("phy.rx.fm0", "repro.phy.reader_dsp", "find_ul_frames"),
    ("phy.rx.iq_cluster", "repro.core.waveform_network", "detect_collision_iq"),
    ("phy.rx.demod", "repro.phy.cook", "ChirpOok.demodulate"),
    ("phy.rx.demod", "repro.phy.fsk", "BinaryFsk.demodulate"),
    ("phy.rx.mix_decimate", "repro.phy.kernels", "mix_sosfilt_decimate"),
    # Batched fleet engine and its sweep runner.
    ("fleet.runner", "repro.experiments.runner", "FleetRunner.run"),
    ("fleet.build", "repro.fleet.engine", "FleetEngine.__init__"),
    ("fleet.step", "repro.fleet.engine", "FleetEngine.step_all"),
    ("fleet.reader", "repro.fleet.reader", "BatchReader.make_beacon"),
    ("fleet.reader", "repro.fleet.reader", "BatchReader.digest"),
    ("fleet.summarize", "repro.fleet.engine", "FleetEngine.summaries"),
)

#: Span names in first-appearance order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in SPANS))


def resolve(module: str, attribute: str) -> Tuple[Any, str, Any]:
    """``(owner, name, raw)`` for one table row.

    ``raw`` is the attribute as stored on its owner (a class's
    ``__dict__`` entry, so a ``staticmethod`` stays one).  Raises
    ``AttributeError`` when the owner does not define the name itself:
    wrapping an inherited method on a subclass would silently time a
    different set of callers.
    """
    owner: Any = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise AttributeError(f"{module}.{attribute} is not defined there")
    return owner, name, vars(owner)[name]


class Tracer:
    """Times every span in :data:`SPANS` while installed."""

    def __init__(self) -> None:
        n = len(SPAN_NAMES)
        self.calls: List[int] = [0] * n
        self.self_s: List[float] = [0.0] * n
        # Time inside outermost spans; the rest of a traced unit is
        # unattributed.
        self.covered_s = 0.0
        # One entry per open span: the time its nested spans took.
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        index = {name: i for i, name in enumerate(SPAN_NAMES)}
        for span, module, attribute in SPANS:
            owner, name, raw = resolve(module, attribute)
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(self._wrap(raw.__func__, index[span]))
            else:
                wrapped = self._wrap(raw, index[span])
            setattr(owner, name, wrapped)
            self._patches.append((owner, name, raw))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches.clear()

    def _wrap(self, fn: Callable[..., Any], i: int) -> Callable[..., Any]:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[i] += 1
                self_s[i] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed

        return traced

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{span: {calls, self_s}}`` so far."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(SPAN_NAMES)
        }
