"""The benchmark's workloads, driven only through the public surface:
``P2PMSystem`` and its peers, ``subscribe``/``subscribe_many``, handle
``on_result``/``cancel``, alerters (``drive_alerter``), ``run``/``tick``,
``network.advance`` and ``set_fault_model``.

Each workload makes its inputs from the workload seed alone; the system
itself is built with the fixed :data:`SYSTEM_SEED`, so the simulated
network's random streams differ between seeds only through the inputs.
Every workload offers the same steps to the runner:

* ``setup(meter)`` builds a system from empty and deploys the initial
  subscriptions (timed: ``setup_s``);
* ``teardown(meter)`` cancels every live subscription one by one and checks
  that nothing deployed is left;
* ``warmup()`` runs one unmeasured round; ``round(meter)`` one timed round;
* ``net_counts()`` reads the network counters for the per-event metrics;
* ``in_process_pass(meter)``, on fanout-sharded only, measures what the
  parent cannot see once the workers have forked.
"""

from __future__ import annotations

import math
import random
import time

from checks import ChurnChecker, FanoutChecker, MeteoChecker

from repro.monitor import P2PMSystem
from repro.net.faults import FaultModel
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.workloads.soap_traffic import SoapCall

#: Seed of every P2PMSystem (peer coordinates, fault draws, detector ring).
SYSTEM_SEED = 11

#: Simulated time the clock advances before each burst and per tick.
TICK = 0.05


class Round:
    """What one timed round did."""

    __slots__ = ("events", "deliveries", "raw", "cal", "failed", "attempted", "ops")

    def __init__(self) -> None:
        self.events = 0
        self.deliveries = 0
        self.raw = 0.0
        self.cal = 0.0
        self.failed = 0
        self.attempted = 0
        #: (kind, raw, calibrated) for subscribe/cancel operations
        self.ops: list[tuple[str, float, float]] = []


class Workload:
    name = ""
    #: setups per run; setup_s is their median
    setups = 3
    #: tear down after every setup (the cancel_ms samples come from it)
    teardown_every_setup = True
    #: timed rounds per second of --seconds (about one second of rounds at
    #: the calibration kernel's reference speed)
    rounds_per_second: float
    #: run ``in_process_pass`` before the set-ups (see FanoutSharded)
    in_process = False
    system: P2PMSystem
    checker: object

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.failed = 0
        self.attempted = 0

    def start_data(self) -> None:
        """Switch to the data phase's network conditions (after setup)."""

    def net_counts(self) -> tuple[int, int]:
        stats = self.system.network.stats
        return stats.total_messages, stats.total_bytes

    def _timed(self, meter, kind: str, action) -> None:
        """Run ``action`` then drain the network; note the time, count the op."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            action()
            self.system.run()
        except Exception as exc:  # a failed operation is reported, not fatal
            self.failed += 1
            self.checker._error(f"{kind} raised {type(exc).__name__}: {exc}")
        meter.note(kind, time.perf_counter() - start)

    def _check_empty(self) -> None:
        """After cancelling everything, no deployed resource may remain."""
        self.attempted += 1
        leftovers = len(self.system.resources)
        descriptions = self.system.stream_db.all_stream_descriptions()
        if leftovers or descriptions:
            self.failed += 1
            self.checker._error(
                f"teardown left {leftovers} resources, {len(descriptions)} stream descriptions"
            )


# --------------------------------------------------------------------------- #
# fanout: one chaos-feed source, compiled plans from 16 programs, 4 managers
# --------------------------------------------------------------------------- #

FANOUT_SUBS = 2000
FANOUT_MANAGERS = 4
FANOUT_BURST = 10
#: a round emits each of range(FANOUT_VALUES) once, in two bursts
FANOUT_VALUES = 20
FANOUT_THRESHOLDS = (0, 2, 4, 6, 8, 10, 12, 14)
FANOUT_TEMPLATES = (
    "<seen><src>{$x.source}</src><n>{$x.n}</n></seen>",
    "<seen><n>{$x.n}</n><kind>{$x.kind}</kind></seen>",
)
#: set-up and teardown operations per calibrated segment: short enough
#: that a kernel runs every few tens of milliseconds, not once per set-up
OPS_PER_SEGMENT = 20


class Fanout(Workload):
    name = "fanout"
    #: each set-up deploys 2,000 plans and its teardown cancels them all
    setups = 2
    rounds_per_second = 3.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        programs = [
            (threshold, template)
            for template in range(len(FANOUT_TEMPLATES))
            for threshold in FANOUT_THRESHOLDS
        ]
        # every program equally often, in a seeded order
        self.programs = [programs[k % len(programs)] for k in range(FANOUT_SUBS)]
        rng.shuffle(self.programs)
        # managers on a circle around the source, jittered by the seed
        self.coordinates = {"src": (0.5, 0.5)}
        for j in range(FANOUT_MANAGERS):
            angle = 2 * math.pi * j / FANOUT_MANAGERS + rng.uniform(-0.05, 0.05)
            radius = 0.3 + rng.uniform(-0.01, 0.01)
            self.coordinates[f"m{j}"] = (
                0.5 + radius * math.cos(angle),
                0.5 + radius * math.sin(angle),
            )
        self.handles: list = []
        #: network messages delivered, as counted by ``system.run()``
        self.delivered = 0

    def text(self, k: int) -> str:
        threshold, template = self.programs[k]
        return (
            f"for $x in {CHAOS_FUNCTION}(<p>src</p>) "
            f'where $x.kind = "chaos" and $x.n >= {threshold} '
            f"return {FANOUT_TEMPLATES[template]}"
        )

    def _new_system(self) -> P2PMSystem:
        return P2PMSystem(seed=SYSTEM_SEED, placement_mode="manager")

    def _deployed(self) -> None:
        """End of set-up, inside its last timed segment."""

    def setup(self, meter) -> tuple[float, float, list]:
        raw = cal = 0.0
        ops: list = []
        meter.begin()
        system = self.system = self._new_system()
        source = system.add_peer("src", self.coordinates["src"])
        source.get_or_create_alerter(CHAOS_FUNCTION)
        managers = [
            system.add_peer(f"m{j}", self.coordinates[f"m{j}"]) for j in range(FANOUT_MANAGERS)
        ]
        self.checker = FanoutChecker(self.programs, "src", system.network)
        self.handles = []
        for k in range(FANOUT_SUBS):
            text = self.text(k)
            manager = managers[k % FANOUT_MANAGERS]

            def subscribe(k=k, text=text, manager=manager) -> None:
                handle = manager.subscribe(text, sub_id=f"f{k}", reuse=False)
                handle.on_result(self.checker.callback(k))
                self.handles.append(handle)

            self._timed(meter, "subscribe", subscribe)
            if (k + 1) % OPS_PER_SEGMENT == 0:
                seg_raw, seg_cal, notes = meter.end()
                raw += seg_raw
                cal += seg_cal
                ops.extend(notes)
                meter.begin()
        self._deployed()
        seg_raw, seg_cal, notes = meter.end()
        return raw + seg_raw, cal + seg_cal, ops + notes

    def teardown(self, meter) -> list:
        ops: list = []
        meter.begin()
        for k, handle in enumerate(self.handles):
            self.checker.cancelled[k] = True
            self._timed(meter, "cancel", handle.cancel)
            if (k + 1) % OPS_PER_SEGMENT == 0:
                ops.extend(meter.end()[2])
                meter.begin()
        ops.extend(meter.end()[2])
        self._check_empty()
        return ops

    def _burst(self, values: list[int]) -> int:
        system = self.system
        system.network.advance(TICK)
        self.checker.begin_burst(values)
        for n in values:
            system.drive_alerter("src", CHAOS_FUNCTION, "emit_numbered", n)
        self.delivered += system.run()
        return self.checker.end_burst()

    def _pair(self) -> int:
        """Two bursts that together emit every value once, in a seeded
        order: every round does the same work whatever the seed."""
        values = self.rng.sample(range(FANOUT_VALUES), FANOUT_VALUES)
        return self._burst(values[:FANOUT_BURST]) + self._burst(values[FANOUT_BURST:])

    def warmup(self) -> None:
        self.failed += self._pair()
        self.attempted += FANOUT_VALUES

    def round(self, meter) -> Round:
        result = Round()
        before = self.checker.deliveries
        meter.begin()
        result.failed = self._pair()
        result.raw, result.cal, _ = meter.end()
        result.events = result.attempted = FANOUT_VALUES
        result.deliveries = self.checker.deliveries - before
        return result


# --------------------------------------------------------------------------- #
# fanout-sharded: the fanout inputs and topology under the sharded runtime
# --------------------------------------------------------------------------- #

SHARDS = 2
#: timed rounds of the in-process pass (see FanoutSharded.in_process_pass)
IN_PROCESS_ROUNDS = 6


def assign_shard(peer_id: str, shards: int) -> int:
    """The source on shard 0, managers spread evenly: m0, m2 with the
    source, m1, m3 on shard 1."""
    return 0 if peer_id == "src" else int(peer_id[1:]) % shards


class FanoutSharded(Fanout):
    """``fanout`` under ``runtime="sharded", shards=2``.

    Set-up includes forking the workers; rounds run as lock-step exchange
    epochs.  After the fork the parent cannot observe sim-time lags (its
    clock stands still while the workers deliver), network bytes (the
    counters live in the workers) or cancels (deployment is frozen), so
    ``in_process_pass`` measures those on the same deployment run in the
    parent process and never forked.
    """

    name = "fanout-sharded"
    #: one forked set-up; the in-process pass sets up once more and gives
    #: the cancel samples
    setups = 1
    in_process = True
    #: a round takes about three times as long as on fanout; 1.5 rounds
    #: per second of --seconds average over more of the host's phases
    rounds_per_second = 1.5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.fork = True

    def _new_system(self) -> P2PMSystem:
        return P2PMSystem(
            seed=SYSTEM_SEED,
            placement_mode="manager",
            runtime="sharded",
            shards=SHARDS,
            shard_assigner=assign_shard,
        )

    def _deployed(self) -> None:
        if self.fork:
            self.checker.active = False
            self.system.start_runtime()
            self.checker.active = True

    def teardown(self, meter) -> list:
        """Stop the workers: cancel is refused once they have forked."""
        self.system.shutdown()
        return []

    def net_counts(self) -> tuple[int, int]:
        """Messages delivered by the workers.  ``system.run()`` counts a
        cross-shard message twice, once when its sender's worker exports it
        and once when the owner delivers it, so the messages exchanged
        between workers are taken off."""
        return self.delivered - self.system.runtime.stats()["messages_exchanged"], 0

    def in_process_pass(self, meter):
        """Set up without forking, run a warm-up and IN_PROCESS_ROUNDS rounds
        in this process, then cancel everything one by one.  Returns the
        rounds' lag tally, their network bytes per event and the subscribe
        and cancel operations.  Until the fork a sharded system runs in
        this process, so the subscribes are those of a forked set-up."""
        self.fork = False
        ops = self.setup(meter)[2]
        self.warmup()
        self.checker.lags.clear()
        start = self.system.network.stats.total_bytes
        for _ in range(IN_PROCESS_ROUNDS):
            self.failed += self._pair()
            self.attempted += FANOUT_VALUES
        weight = self.system.network.stats.total_bytes - start
        lags = self.checker.lags.copy()
        ops += Fanout.teardown(self, meter)
        self.fork = True
        return lags, weight / (IN_PROCESS_ROUNDS * FANOUT_VALUES), ops


# --------------------------------------------------------------------------- #
# meteo-lossy: Figure 1 QoS JOIN per monitor, lossy network, detector mode
# --------------------------------------------------------------------------- #

METEO_CLIENTS = ("a.com", "b.com", "c.com", "d.com")
METEO_SERVER = "meteo.com"
METEO_CITIES = ("Paris", "Lisbon", "Orsay")
METEO_MONITORS = 40
#: thresholds sit half a millisecond off the millisecond grid of durations
METEO_THRESHOLDS = tuple(1.0005 + j for j in range(14))
METEO_MAX_DURATION_MS = 16_000
METEO_BURST = 40
METEO_TICKS = 3
#: at loss 0.02 about 1% of deliveries wait past the third tick, so lag_p99
#: sat on the edge between two retransmission rounds and moved by a third
#: between seeds; at 0.03 it lies inside one round
METEO_FAULTS = FaultModel(loss_rate=0.03, duplication_rate=0.02, jitter=0.002)
#: ticks after the last burst for retransmissions to land before the check
METEO_DRAIN_TICKS = 20

METEO_TEMPLATE = """
for $c1 in outCOM({clients}),
    $c2 in inCOM(<p>{server}</p>)
let $duration := $c1.responseTimestamp - $c1.callTimestamp
where
    $duration > {threshold} and
    $c1.callMethod = "GetTemperature" and
    $c1.callee = "{server}" and
    $c1/alert/Envelope/Body/GetTemperature/param = "{city}" and
    $c1.callId = $c2.callId
return
    <incident type="slowAnswer">
        <client>{{$c1.caller}}</client>
        <tstamp>{{$c2.callTimestamp}}</tstamp>
    </incident>
by publish as channel "alertQoS";
"""


class MeteoLossy(Workload):
    name = "meteo-lossy"
    #: setup is short (40 subscriptions), so more setups give setup_s,
    #: subscribe_ms and cancel_ms enough samples, spread over enough of the
    #: host's phases that one slow set-up does not move a p90
    setups = 16
    rounds_per_second = 7.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # fixed (threshold, city) per monitor: the seed changes the calls only,
        # so which monitors see most incidents does not move between seeds
        pairs = [(t, city) for t in METEO_THRESHOLDS for city in METEO_CITIES]
        self.subs = pairs[:METEO_MONITORS]
        self.handles: list = []
        self.clock_ms = 0
        self.call_id = 0

    def setup(self, meter) -> tuple[float, float, list]:
        raw = cal = 0.0
        ops: list = []
        meter.begin()
        system = self.system = P2PMSystem(seed=SYSTEM_SEED, failure_mode="detector")
        for peer_id in METEO_CLIENTS + (METEO_SERVER,):
            system.add_peer(peer_id)
        monitors = [system.add_peer(f"mon{i:02d}") for i in range(METEO_MONITORS)]
        self.checker = MeteoChecker(self.subs, METEO_SERVER, system.network)
        self.handles = []
        clients = " ".join(f"<p>{c}</p>" for c in METEO_CLIENTS)
        for index, (threshold, city) in enumerate(self.subs):
            text = METEO_TEMPLATE.format(
                clients=clients, server=METEO_SERVER, threshold=threshold, city=city
            )

            def subscribe(index=index, text=text) -> None:
                handle = monitors[index].subscribe(text, sub_id=f"q{index}")
                handle.on_result(self.checker.callback(index))
                self.handles.append(handle)

            self._timed(meter, "subscribe", subscribe)
            if (index + 1) % OPS_PER_SEGMENT == 0:
                seg_raw, seg_cal, notes = meter.end()
                raw += seg_raw
                cal += seg_cal
                ops.extend(notes)
                meter.begin()
        seg_raw, seg_cal, notes = meter.end()
        return raw + seg_raw, cal + seg_cal, ops + notes

    def _ticks(self, count: int) -> None:
        system = self.system
        for _ in range(count):
            system.network.advance(TICK)
            system.tick()
            system.run()

    def teardown(self, meter) -> list:
        # cancellation runs on a settled, perfect network: retransmissions
        # still owed land first, so nothing is in flight while tearing down
        self.system.set_fault_model(None)
        self._ticks(METEO_DRAIN_TICKS)
        ops: list = []
        meter.begin()
        for index, handle in enumerate(self.handles):
            self.checker.cancelled.add(index)
            self._timed(meter, "cancel", handle.cancel)
            if (index + 1) % OPS_PER_SEGMENT == 0:
                ops.extend(meter.end()[2])
                meter.begin()
        ops.extend(meter.end()[2])
        self._ticks(METEO_DRAIN_TICKS)
        self.failed += self.checker.failed_calls()
        self._check_empty()
        return ops

    def start_data(self) -> None:
        self.system.set_fault_model(METEO_FAULTS)

    def _calls(self) -> list[SoapCall]:
        rng = self.rng
        calls = []
        for _ in range(METEO_BURST):
            self.call_id += 1
            self.clock_ms += 1000
            duration_ms = rng.randrange(METEO_MAX_DURATION_MS)
            calls.append(
                SoapCall(
                    call_id=f"call-{self.call_id}",
                    caller=rng.choice(METEO_CLIENTS),
                    callee=METEO_SERVER,
                    method=rng.choice(("GetTemperature", "GetHumidity")),
                    call_timestamp=self.clock_ms / 1000,
                    response_timestamp=(self.clock_ms + duration_ms) / 1000,
                    parameters={"city": rng.choice(METEO_CITIES)},
                )
            )
        return calls

    def _burst(self) -> None:
        system = self.system
        calls = self._calls()
        system.network.advance(TICK)
        self.checker.add_calls(calls, system.network.now)
        for call in calls:
            system.drive_alerter(call.caller, "outCOM", "observe_call", call)
            system.drive_alerter(call.callee, "inCOM", "observe_call", call)
        system.run()
        self._ticks(METEO_TICKS)

    def warmup(self) -> None:
        self._burst()
        self.attempted += METEO_BURST

    def round(self, meter) -> Round:
        result = Round()
        before = self.checker.deliveries
        meter.begin()
        self._burst()
        result.raw, result.cal, _ = meter.end()
        result.events = result.attempted = METEO_BURST
        result.deliveries = self.checker.deliveries - before
        return result


# --------------------------------------------------------------------------- #
# subscribe-churn: overlapping meteo + Edos subscriptions, reuse on
# --------------------------------------------------------------------------- #

CHURN_MONITORS = 4
CHURN_INITIAL = 2000
CHURN_PAIRS = 20
CHURN_METEO_CLIENTS = ("a.com", "b.com")
CHURN_MIRRORS = tuple(f"mirror{i}.edos.org" for i in range(3))
CHURN_METHODS = ("QueryPackage", "DownloadPackage", "GetPackage", "QueryIndex")
CHURN_THRESHOLDS = tuple(1.0005 + j for j in range(16))
CHURN_EDOS_CLIENTS = tuple(f"client{i}.edos.org" for i in range(4))

CHURN_METEO_TEMPLATE = METEO_TEMPLATE.replace(
    '    $c1/alert/Envelope/Body/GetTemperature/param = "{city}" and\n', ""
)
CHURN_EDOS_TEMPLATE = """
for $c in inCOM(<p>{mirror}</p>)
where $c.callMethod = "{method}"
return <hit method="{method}"><peer>{{$c.caller}}</peer><call>{{$c.callId}}</call></hit>
by publish as channel "edos-{short}-{method}";
"""


def churn_variants() -> list[tuple]:
    """Every variant; the first half of each family is live after setup."""
    meteo = [("meteo", t) for t in CHURN_THRESHOLDS]
    edos = [("edos", m, method) for m in CHURN_MIRRORS for method in CHURN_METHODS]
    return meteo[: len(meteo) // 2] + edos[: len(edos) // 2] + meteo[len(meteo) // 2:] + edos[len(edos) // 2:]


CHURN_VARIANTS = churn_variants()
CHURN_INITIAL_VARIANTS = len(CHURN_THRESHOLDS) // 2 + len(CHURN_MIRRORS) * len(CHURN_METHODS) // 2


def variant_text(variant: tuple) -> str:
    if variant[0] == "meteo":
        clients = " ".join(f"<p>{c}</p>" for c in CHURN_METEO_CLIENTS)
        return CHURN_METEO_TEMPLATE.format(
            clients=clients, server=METEO_SERVER, threshold=variant[1]
        )
    mirror, method = variant[1], variant[2]
    return CHURN_EDOS_TEMPLATE.format(mirror=mirror, method=method, short=mirror.split(".")[0])


def variant_match(call: SoapCall, variant: tuple) -> str | None:
    """The result key ``variant`` must report for ``call``, or None."""
    if variant[0] == "meteo":
        tstamp = f"{call.call_timestamp:.3f}"
        duration = float(f"{call.response_timestamp:.3f}") - float(tstamp)
        if (
            call.method == "GetTemperature"
            and call.callee == METEO_SERVER
            and call.caller in CHURN_METEO_CLIENTS
            and duration > variant[1]
        ):
            return f"incident:{call.caller}@{tstamp}"
        return None
    if call.callee == variant[1] and call.method == variant[2]:
        return f"hit:{variant[2]}:{call.call_id}"
    return None


class SubscribeChurn(Workload):
    name = "subscribe-churn"
    setups = 2
    #: cancel_ms comes from the churn rounds; only the last setup is torn down
    teardown_every_setup = False
    rounds_per_second = 7.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.live: list = []  # (sub_id, handle), oldest first
        self.next_sub = 0
        self._cycle: list[tuple] = []
        self.probes = 0
        self.clock_ms = 0
        self.call_id = 0

    def setup(self, meter) -> tuple[float, float, list]:
        meter.begin()
        system = self.system = P2PMSystem(seed=SYSTEM_SEED)
        for peer_id in CHURN_METEO_CLIENTS + (METEO_SERVER,) + CHURN_MIRRORS + CHURN_EDOS_CLIENTS:
            system.add_peer(peer_id)
        monitors = self.monitors = [system.add_peer(f"mon{i}") for i in range(CHURN_MONITORS)]
        self.checker = ChurnChecker(variant_match, system.network)
        self.live = []
        self.next_sub = 0
        raw = cal = 0.0
        per_monitor: list[list[tuple[str, tuple]]] = [[] for _ in monitors]
        for i in range(CHURN_INITIAL):
            variant = CHURN_VARIANTS[i % CHURN_INITIAL_VARIANTS]
            per_monitor[i % CHURN_MONITORS].append((f"c{i}", variant))
        self.next_sub = CHURN_INITIAL
        for monitor, entries in zip(monitors, per_monitor):
            handles = monitor.subscribe_many(
                [variant_text(v) for _, v in entries], sub_ids=[s for s, _ in entries]
            )
            system.run()
            for (sub_id, variant), handle in zip(entries, handles):
                handle.on_result(self.checker.callback(sub_id))
                self.checker.subscribed(sub_id, variant)
                self.live.append((sub_id, handle))
            seg_raw, seg_cal, _ = meter.end()
            raw += seg_raw
            cal += seg_cal
            meter.begin()
        return raw, cal, []

    def teardown(self, meter) -> list:
        meter.begin()
        for sub_id, handle in self.live:
            self.checker.cancelled_sub(sub_id)
            self._timed(meter, "final-cancel", handle.cancel)
        meter.end()
        self.live = []
        self._check_empty()
        return []

    def _pair(self, meter) -> None:
        # every variant once per cycle, in a seeded order
        if not self._cycle:
            self._cycle = list(CHURN_VARIANTS)
            self.rng.shuffle(self._cycle)
        variant = self._cycle.pop()
        sub_id = f"c{self.next_sub}"
        monitor = self.monitors[self.next_sub % CHURN_MONITORS]
        self.next_sub += 1

        def subscribe() -> None:
            handle = monitor.subscribe(variant_text(variant), sub_id=sub_id)
            handle.on_result(self.checker.callback(sub_id))
            self.checker.subscribed(sub_id, variant)
            self.live.append((sub_id, handle))

        self._timed(meter, "subscribe", subscribe)
        old_id, old_handle = self.live.pop(0)
        self.checker.cancelled_sub(old_id)
        self._timed(meter, "cancel", old_handle.cancel)

    def _probe_calls(self) -> list[SoapCall]:
        """Every live variant matches at least one call: one GetTemperature
        call above every threshold, one whose duration steps through the
        thresholds from probe to probe, one call per (mirror, method) and
        one call nothing matches.  Probes do not depend on the seed; the
        seed orders the churn."""
        self.probes += 1
        probe = self.probes
        stepped_ms = 1000 * (probe % (len(CHURN_THRESHOLDS) + 1))
        a, b = CHURN_METEO_CLIENTS[probe % 2], CHURN_METEO_CLIENTS[(probe + 1) % 2]
        specs = [
            (a, METEO_SERVER, "GetTemperature", 17_000),
            (b, METEO_SERVER, "GetTemperature", stepped_ms),
            (a, METEO_SERVER, "GetHumidity", 17_000),
        ]
        clients = CHURN_EDOS_CLIENTS
        for i, (mirror, method) in enumerate(
            (mirror, method) for mirror in CHURN_MIRRORS for method in CHURN_METHODS
        ):
            specs.append((clients[(probe + i) % len(clients)], mirror, method, 100 + 10 * i))
        calls = []
        for caller, callee, method, duration_ms in specs:
            self.call_id += 1
            self.clock_ms += 1000
            calls.append(
                SoapCall(
                    call_id=f"probe-{self.call_id}",
                    caller=caller,
                    callee=callee,
                    method=method,
                    call_timestamp=self.clock_ms / 1000,
                    response_timestamp=(self.clock_ms + duration_ms) / 1000,
                )
            )
        return calls

    def _probe(self) -> tuple[int, int]:
        system = self.system
        calls = self._probe_calls()
        system.network.advance(TICK)
        self.checker.begin_probe(calls)
        for call in calls:
            system.drive_alerter(call.caller, "outCOM", "observe_call", call)
            system.drive_alerter(call.callee, "inCOM", "observe_call", call)
        system.run()
        return len(calls), self.checker.end_probe()

    def warmup(self) -> None:
        events, failed = self._probe()
        self.attempted += events
        self.failed += failed

    def round(self, meter) -> Round:
        """Churn pairs, then a probe.  The pairs' subscribe and cancel calls
        are counted by ``_timed`` as they run; the round carries only the
        probe's events."""
        result = Round()
        meter.begin()
        for _ in range(CHURN_PAIRS):
            self._pair(meter)
        result.ops = meter.end()[2]
        before = self.checker.deliveries
        meter.begin()
        result.events, result.failed = self._probe()
        result.raw, result.cal, _ = meter.end()
        result.attempted = result.events
        result.deliveries = self.checker.deliveries - before
        return result


WORKLOADS = {cls.name: cls for cls in (Fanout, FanoutSharded, MeteoLossy, SubscribeChurn)}
