"""Per-layer tracing for the traced run, installed from the benchmark's own
files around the public functions of each layer.

Wrappers are installed *before* the system under test is constructed:
bound methods (channel handlers, stream subscribers) are captured at deploy
time, so a later patch would miss them.  Program-made closures are reached
through the factory that returns them (``compile_tree_predicate``).

Each wrapped call is a span (name, start, end, parent).  A layer's self time
is its spans' duration minus the part covered by child spans.  Aggregates
are kept for every span; the first :data:`MAX_SPANS_KEPT` spans are also
kept in memory and written out when the run ends.

Under the sharded runtime only the parent's spans are seen: the workers
fork with the wrappers installed, but their spans stay in their own
memory.  ``shard.exchange`` (the parent's wait on worker turns) therefore
covers the workers' work.
"""

from __future__ import annotations

import gzip
import time
from array import array
from pathlib import Path

#: spans kept for the dump; later spans only feed the aggregates
MAX_SPANS_KEPT = 200_000

#: (span name, module, owner attribute path, attribute) -- timed functions
SPAN_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("alerters.emit", "repro.alerters.base", "Alerter", "emit_alert"),
    ("p2pml.parse", "repro.monitor.manager", "", "parse_subscription"),
    ("p2pml.compile", "repro.monitor.manager", "", "compile_subscription"),
    ("monitor.optimize", "repro.monitor.manager", "", "optimize_plan"),
    ("monitor.reuse", "repro.monitor.reuse", "ReuseEngine", "apply"),
    ("monitor.place", "repro.monitor.manager", "", "place_plan"),
    ("monitor.deploy", "repro.monitor.deployment", "Deployer", "deploy"),
    ("monitor.cancel", "repro.monitor.manager", "SubscriptionManager", "cancel"),
    ("monitor.valve", "repro.monitor.lifecycle", "DeliveryValve", "_receive"),
    ("compile.segment", "repro.compile.compiler", "PlanCompiler", "compile_segment"),
    ("compile.run", "repro.compile.pipeline", "CompiledPipeline", "_run_from"),
    ("compile.run", "repro.compile.pipeline", "CompiledPipeline", "_run_batch_from"),
    ("algebra.operator", "repro.algebra.operators", "Operator", "_receive"),
    ("algebra.operator", "repro.algebra.operators", "Operator", "_receive_batch"),
    ("streams.emit", "repro.streams.stream", "Stream", "emit"),
    ("streams.emit", "repro.streams.stream", "Stream", "emit_many"),
    ("net.send", "repro.net.simnet", "SimNetwork", "send"),
    ("net.send", "repro.net.simnet", "SimNetwork", "send_many"),
    ("net.schedule", "repro.net.scheduler", "EventScheduler", "drain"),
    ("net.fanout", "repro.net.channel", "ChannelRegistry", "_forward"),
    ("net.fanout", "repro.net.channel", "ChannelRegistry", "_forward_batch"),
    ("net.proxy", "repro.net.channel", "ChannelRegistry", "_on_item"),
    ("net.retransmit", "repro.net.channel", "ChannelRegistry", "retransmit_tick"),
    ("net.detector", "repro.net.detector", "HeartbeatDetector", "tick"),
    ("dht.publish", "repro.monitor.stream_db", "StreamDefinitionDatabase", "publish_node"),
    ("dht.publish", "repro.monitor.stream_db", "StreamDefinitionDatabase", "publish_replica"),
    ("dht.retract", "repro.monitor.stream_db", "StreamDefinitionDatabase", "retract"),
    ("dht.lookup", "repro.monitor.stream_db", "StreamDefinitionDatabase", "find_alerter_streams"),
    ("dht.lookup", "repro.monitor.stream_db", "StreamDefinitionDatabase", "find_operator_streams"),
    ("dht.lookup", "repro.monitor.stream_db", "StreamDefinitionDatabase", "find_replicas"),
    ("shard.exchange", "repro.net.shard", "ShardedRuntime", "_exchange"),
    ("shard.harvest", "repro.net.shard", "ShardedRuntime", "_harvest"),
    ("shard.wire", "repro.net.shard", "", "encode_batch"),
    ("shard.wire", "repro.net.shard", "", "decode_batch"),
    ("shard.wire", "repro.net.shard", "", "encode_element"),
    ("shard.wire", "repro.net.shard", "", "decode_element"),
)

#: span names, in report order (tree-pattern predicates are wrapped where
#: their factory returns them, see Tracer.install)
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, *_ in SPAN_TARGETS)) + (
    "filtering.tree",
    "bench.callback",
)

#: counters and ratios read from the program after the traced phase
COUNTER_METRICS: tuple[tuple[str, str], ...] = (
    ("monitor.reuse_cache_hit_ratio", "ratio"),
    ("compile.stage_calls", "count"),
    ("compile.cse_hit_ratio", "ratio"),
    ("compile.plan_cache_hit_ratio", "ratio"),
    ("algebra.join_probes", "count"),
    ("net.proxy_dup_drop_ratio", "ratio"),
    ("net.heartbeats", "count"),
    ("net.acks", "count"),
    ("net.retransmitted", "count"),
    ("dht.kadop_queries", "count"),
    ("dht.kadop_query_cache_hit_ratio", "ratio"),
    ("shard.rounds", "count"),
    ("shard.messages_exchanged", "count"),
)


_INHERITED = object()


def _ratio(part: float, whole: float) -> float:
    """part / whole, and 0 when there was nothing to count: the count
    reported beside a ratio tells whether it applies."""
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self) -> None:
        self.names = SPAN_NAMES
        self._index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        #: open spans: [name index, start, child time, span id]
        self._stack: list[list] = []
        self._next_id = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._patches: list[tuple[object, str, object]] = []
        self.join_operators: list = []
        self.seq_calls = 0
        self.seq_rejects = 0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._index[name]
        stack = self._stack
        calls, self_time = self.calls, self.self_time
        span_ids, span_name, span_start = self.span_id, self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][3] if stack else -1
            frame = [nid, perf(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                calls[nid] += 1
                self_time[nid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if len(span_name) < MAX_SPANS_KEPT:
                    span_ids.append(span_id)
                    span_name.append(nid)
                    span_start.append(frame[1])
                    span_end.append(end)
                    span_parent.append(parent)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        for name, module_name, owner_name, attr in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self._set(owner, attr, self._wrap(name, owner.__dict__[attr]))

        # program-made tree-pattern predicates, reached through their factory
        compiler = importlib.import_module("repro.compile.compiler")
        factory = compiler.compile_tree_predicate

        def compile_tree_predicate(*args, **kwargs):
            return self._wrap("filtering.tree", factory(*args, **kwargs))

        self._set(compiler, "compile_tree_predicate", compile_tree_predicate)

        # the benchmark's own result callbacks (reference checks), so their
        # cost is not charged to the layer that delivers into them
        checks = importlib.import_module("checks")
        for checker in (checks.FanoutChecker, checks.MeteoChecker, checks.ChurnChecker):
            make_callback = checker.__dict__["callback"]

            def callback(owner, key, _make=make_callback):
                return self._wrap("bench.callback", _make(owner, key))

            self._set(checker, "callback", callback)

        # JOIN operators, to read their probe counters afterwards
        operators = importlib.import_module("repro.algebra.operators")
        join_init = operators.JoinOperator.__init__

        def init(op, *args, **kwargs):
            join_init(op, *args, **kwargs)
            self.join_operators.append(op)

        self._set(operators.JoinOperator, "__init__", init)

        # duplicate drops at the proxy: rejects / calls of accept_seq
        channel = importlib.import_module("repro.net.channel")
        accept_seq = channel.RemoteChannelProxy.__dict__["accept_seq"]

        def counted_accept_seq(proxy, seq):
            self.seq_calls += 1
            accepted = accept_seq(proxy, seq)
            if not accepted:
                self.seq_rejects += 1
            return accepted

        self._set(channel.RemoteChannelProxy, "accept_seq", counted_accept_seq)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_metrics(self, system) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: spans, then counters read from ``system``."""
        metrics: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            metrics[f"{name}.calls"] = (self.calls[i], "count")
            metrics[f"{name}.self_ms"] = (round(self.self_time[i] * 1000, 3), "ms")
        reuse = system.reuse_cache
        compile_snapshot = system.compile_snapshot()
        invocations = compile_snapshot.get("stage_invocations", {})
        cse = compile_snapshot.get("cse", {})
        plan_cache = compile_snapshot.get("plan_cache", {})
        reliability = system.network.stats.reliability_snapshot()
        kadop = system.kadop
        kadop_queries = kadop.query_cache_hits + kadop.query_cache_misses
        shard = system.runtime.stats()
        values = {
            "monitor.reuse_cache_hit_ratio": _ratio(reuse.hits, reuse.hits + reuse.misses),
            "compile.stage_calls": invocations.get("item", 0) + invocations.get("batch", 0),
            "compile.cse_hit_ratio": _ratio(cse.get("hits", 0), cse.get("hits", 0) + cse.get("misses", 0)),
            "compile.plan_cache_hit_ratio": _ratio(
                plan_cache.get("hits", 0), plan_cache.get("hits", 0) + plan_cache.get("misses", 0)
            ),
            "algebra.join_probes": sum(op.index_probes for op in self.join_operators),
            "net.proxy_dup_drop_ratio": _ratio(self.seq_rejects, self.seq_calls),
            "net.heartbeats": reliability["heartbeats_sent"],
            "net.acks": reliability["acks_sent"],
            "net.retransmitted": reliability["items_retransmitted"],
            "dht.kadop_queries": kadop_queries,
            "dht.kadop_query_cache_hit_ratio": _ratio(kadop.query_cache_hits, kadop_queries),
            "shard.rounds": shard.get("rounds", 0),
            "shard.messages_exchanged": shard.get("messages_exchanged", 0),
        }
        for name, unit in COUNTER_METRICS:
            value = values[name]
            metrics[name] = (round(value, 6) if unit == "ratio" else value, unit)
        return metrics

    def dump(self, path: Path) -> int:
        """Write the kept spans as gzipped TSV: id, name, start_us, end_us, parent.

        Span ids count in start order (parent -1: no enclosing span); kept
        spans are written in end order.  Times are microseconds from the
        first kept span's start.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        count = len(self.span_name)
        origin = min(self.span_start) if count else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_us\tend_us\tparent\n")
            names = self.names
            for i in range(count):
                out.write(
                    f"{self.span_id[i]}\t{names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                    f"{(self.span_end[i] - origin) * 1e6:.1f}\t{self.span_parent[i]}\n"
                )
        return count


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names: list[tuple[str, str]] = []
    for name in SPAN_NAMES:
        names.append((f"{name}.calls", "count"))
        names.append((f"{name}.self_ms", "ms"))
    names.extend(COUNTER_METRICS)
    return names
