"""Relay-route fallback: route around a demoted direct link.

:class:`RelayFallbackPolicy` is the resilience layer's bridge into
:mod:`repro.relay`.  It watches the link health monitor for
junction-shadowed tags and turns the PR 3 ladder's "detect and restart"
into "detect and route around":

* **Engage** — when a committed tag racks up ``engage_misses``
  consecutive expected-but-missed slots (the monitor's demote signal),
  or when a tag has been *absent* — never decoded at all — for
  ``absent_after_periods`` of its periods.  The absent path matters: a
  tag whose uplink died before it ever committed is invisible to the
  monitor's expectation ledger, yet it is exactly the deep-shadowed tag
  relaying exists for.
* **Release** — when a direct *probe* of an engaged source decodes
  outside its granted slot (the engaged network sends every
  ``probe_every``-th source transmission straight to the reader), the
  direct link has recovered; the route is torn down and the tag
  re-commits normally.
* **Re-route** — ``reroute_failures`` consecutive forwarding failures
  (a relay browned out mid-route) trigger route recomputation with the
  failing relay excluded.  While a ``relay_table_stale`` fault is
  active the table cannot be recomputed: the policy neither engages new
  routes nor re-routes, and an established route keeps limping through
  its dead relay — the observable signature of a stale relay table.

The policy is inert on networks without a relay layer (no ``routes``
attribute) and performs no work — and no RNG draws — while no tag is
shadowed, preserving the supervised byte-identical-replay contract.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.reader_protocol import SlotRecord
from repro.resilience.policies import RecoveryPolicy
from repro.sim.random import as_index


class RelayFallbackPolicy(RecoveryPolicy):
    """Engage/release relay routes from link-health signals."""

    name = "relay_fallback"

    def __init__(
        self,
        # Misses only accumulate while the expected slot stays occupied
        # (persistent collisions): a silently dead uplink leaves the
        # slot empty, which expires the commitment — and the monitor's
        # expectation — after a single miss.  Dead uplinks are caught by
        # the absent path; the demote path is for collision-pinned tags.
        engage_misses: int = 3,
        absent_after_periods: int = 8,
        reroute_failures: int = 4,
        retry_every_periods: int = 4,
    ) -> None:
        super().__init__()
        engage_misses = as_index(engage_misses, "engage_misses")
        absent_after_periods = as_index(absent_after_periods, "absent_after_periods")
        reroute_failures = as_index(reroute_failures, "reroute_failures")
        retry_every_periods = as_index(retry_every_periods, "retry_every_periods")
        if engage_misses < 1:
            raise ValueError("engage_misses must be >= 1")
        if absent_after_periods < 1:
            raise ValueError("absent_after_periods must be >= 1")
        if reroute_failures < 1:
            raise ValueError("reroute_failures must be >= 1")
        if retry_every_periods < 1:
            raise ValueError("retry_every_periods must be >= 1")
        self.engage_misses = engage_misses
        self.absent_after_periods = absent_after_periods
        self.reroute_failures = reroute_failures
        self.retry_every_periods = retry_every_periods
        # Last slot each tag was decoded in (baseline: first observed
        # slot, clamped to the tag's activation slot).
        self._last_seen: Dict[str, int] = {}
        # Relays excluded from a source's route after failing mid-route;
        # cleared when the source's direct link recovers.
        self._excluded: Dict[str, Set[str]] = {}
        # Engage-attempt throttle: no route existed last time, retry at.
        self._next_attempt: Dict[str, int] = {}

    # -- helpers ------------------------------------------------------------

    def _table_frozen(self, network) -> bool:
        ctl = network.faults
        return ctl is not None and ctl.relay_table_frozen()

    def _seed_last_seen(self, network, slot: int) -> None:
        for name in network.tags:
            self._last_seen[name] = max(
                slot, network.activation_slot.get(name, 0)
            )

    # -- slot hook ----------------------------------------------------------

    def on_slot(self, record: SlotRecord) -> None:
        supervisor = self.supervisor
        if supervisor is None:
            return
        network = supervisor.network
        routes = getattr(network, "routes", None)
        if routes is None:
            return  # not a relay-capable network: the policy is inert
        slot = record.slot
        if not self._last_seen:
            self._seed_last_seen(network, slot)
        if record.decoded is not None:
            self._last_seen[record.decoded] = slot

        # 1. Release on recovery: a direct probe of an engaged source
        #    decoded outside its granted forwarding slot.  The decode
        #    alone proves the direct uplink works again — the reader may
        #    still NACK it (the source's drifted offset can conflict
        #    with the schedule), in which case the released tag migrates
        #    to a free offset and re-commits normally.
        route = routes.get(record.decoded) if record.decoded else None
        if route is not None and slot % route.period != route.grant_offset:
            network.release_route(route.source, "recovered")
            self._excluded.pop(route.source, None)
            self._next_attempt.pop(route.source, None)
            health = supervisor.monitor.tags.get(route.source)
            if health is not None:
                health.consecutive_missed = 0
            self.act(slot, route.source, "relay_release", "direct link recovered")

        frozen = self._table_frozen(network)

        # 2. Re-route around a dead relay (unless the table is stale).
        for source in sorted(routes):
            route = routes[source]
            if route.failed_streak < self.reroute_failures:
                continue
            if frozen:
                continue  # stale table: keep limping through the route
            excluded = self._excluded.setdefault(source, set())
            if route.last_failed_relay is not None:
                excluded.add(route.last_failed_relay)
            network.release_route(source, "reroute")
            replacement = network.engage_route(source, exclude=excluded)
            if replacement is None:
                # No alternative exists; fall back to the full candidate
                # set (the old chain may still be the only one).
                excluded.clear()
                replacement = network.engage_route(source)
            if replacement is not None:
                self.act(
                    slot,
                    source,
                    "relay_reroute",
                    "via " + ">".join(replacement.chain),
                )
            else:
                self._next_attempt[source] = slot + (
                    self.retry_every_periods * route.period
                )
                self.act(slot, source, "relay_reroute_failed", "no route")

        # 3. Engage routes for shadowed tags.
        if frozen:
            return
        monitor = supervisor.monitor
        for name in sorted(network.tags):
            if name in routes:
                continue
            if slot < self._next_attempt.get(name, 0):
                continue
            period = network.reader.tag_periods.get(name)
            if period is None:
                continue
            if slot < network.activation_slot.get(name, 0):
                continue
            health = monitor.tags.get(name)
            demoted = (
                health is not None
                and health.consecutive_missed >= self.engage_misses
            )
            absent = (
                slot - self._last_seen.get(name, slot)
                >= self.absent_after_periods * period
            )
            if not demoted and not absent:
                continue
            route = network.engage_route(
                name, exclude=self._excluded.get(name, ())
            )
            if route is not None:
                if health is not None:
                    health.consecutive_missed = 0
                self.act(
                    slot,
                    name,
                    "relay_engage",
                    ("demoted" if demoted else "absent")
                    + " — via "
                    + ">".join(route.chain),
                )
            else:
                self._next_attempt[name] = slot + (
                    self.retry_every_periods * period
                )
