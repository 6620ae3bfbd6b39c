"""Reference checks: what each subscription must receive, computed from the
benchmark's own record of the inputs it generated, never from the program.

Each checker is fed deliveries through per-subscription callbacks and
counts failed *operations* (source events whose deliveries went wrong, or
deliveries to a cancelled subscription).  Errors are kept as short strings
for the report.  Lags (simulated delivery time minus emission time) are
tallied per value so quantiles need no per-delivery list.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable

MAX_ERRORS_KEPT = 20


class _Base:
    def __init__(self, clock) -> None:
        #: anything with a ``now`` attribute (the simulated network)
        self.clock = clock
        self.errors: list[str] = []
        self.error_count = 0
        self.deliveries = 0
        self.lags: Counter = Counter()
        self.record_lags = True

    def _error(self, text: str) -> None:
        self.error_count += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(text)


class FanoutChecker(_Base):
    """Subscription k, running program (threshold, template), must receive
    every event n >= threshold of each burst exactly once, as ``<seen>``
    with the template's content.  Values are distinct within a burst, so a
    bit per value tracks what each subscription received."""

    def __init__(self, programs: list[tuple[int, int]], source: str, clock) -> None:
        super().__init__(clock)
        self.programs = programs
        self.source = source
        self.masks = [0] * len(programs)
        self.cancelled = [False] * len(programs)
        #: threshold -> bit mask of the burst's values at or above it
        self.expected: dict[int, int] = {}
        self.emitted_at = 0.0
        #: the burst's failed events (values, or a tag for results that
        #: name no value)
        self.bad_values: set[object] = set()
        #: cleared while the sharded runtime forks: its workers call a
        #: forked copy of every result callback, which must do nothing
        #: there (the parent checks the results it harvests)
        self.active = True

    def callback(self, k: int) -> Callable[[object], None]:
        threshold, template = self.programs[k]
        masks = self.masks
        lags = self.lags
        clock = self.clock
        source = self.source

        def deliver(item) -> None:
            if not self.active:
                return
            self.deliveries += 1
            if self.cancelled[k]:
                self.bad_values.add("after-cancel")
                self._error(f"sub {k}: delivery after cancel")
                return
            try:
                children = item.children
                if template == 0:
                    ok = (
                        item.tag == "seen"
                        and len(children) == 2
                        and children[0].tag == "src"
                        and children[0].text == source
                        and children[1].tag == "n"
                    )
                    n = int(children[1].text)
                else:
                    ok = (
                        item.tag == "seen"
                        and len(children) == 2
                        and children[0].tag == "n"
                        and children[1].tag == "kind"
                        and children[1].text == "chaos"
                    )
                    n = int(children[0].text)
            except (AttributeError, IndexError, TypeError, ValueError):
                self.bad_values.add("malformed")
                self._error(f"sub {k}: malformed result {item!r}")
                return
            bit = 1 << n if 0 <= n < 64 else 0
            if not ok or not self.expected[threshold] & bit or masks[k] & bit:
                self.bad_values.add(n)
                self._error(f"sub {k}: wrong, unexpected or duplicate n={n}")
                return
            masks[k] |= bit
            if self.record_lags:
                lags[round(clock.now - self.emitted_at, 9)] += 1

        return deliver

    def begin_burst(self, values: list[int]) -> None:
        self.expected = {
            threshold: sum(1 << n for n in values if n >= threshold)
            for threshold in {t for t, _ in self.programs}
        }
        self.emitted_at = self.clock.now
        masks = self.masks
        for k in range(len(masks)):
            masks[k] = 0

    def end_burst(self) -> int:
        """Failed events of the burst just drained."""
        bad, self.bad_values = self.bad_values, set()
        for k, (threshold, _) in enumerate(self.programs):
            if self.cancelled[k]:
                continue
            missing = self.expected[threshold] & ~self.masks[k]
            if missing:
                self._error(f"sub {k}: missing {missing:b}")
                bad.update(n for n in range(missing.bit_length()) if missing >> n & 1)
        return len(bad)


class MeteoChecker(_Base):
    """Per subscription (threshold, city), the incidents must be exactly the
    GetTemperature calls to the server with the city parameter and a
    duration above the threshold, each reported once with its caller and
    call timestamp.  Checked cumulatively: late retransmissions may land in
    a later burst."""

    def __init__(self, subs: list[tuple[float, str]], server: str, clock) -> None:
        super().__init__(clock)
        self.subs = subs
        self.server = server
        #: (sub, caller, tstamp) -> deliveries still owed
        self.owed: Counter = Counter()
        #: tstamp text -> (call id, emission time)
        self.calls: dict[str, tuple[str, float]] = {}
        self.bad_calls: set[str] = set()
        self.cancelled: set[int] = set()

    def add_calls(self, calls: Iterable, emitted_at: float) -> None:
        for call in calls:
            tstamp = f"{call.call_timestamp:.3f}"
            self.calls[tstamp] = (call.call_id, emitted_at)
            if call.method != "GetTemperature" or call.callee != self.server:
                continue
            # the alert carries millisecond timestamps; the program computes
            # the duration from them, and so does the reference
            duration = float(f"{call.response_timestamp:.3f}") - float(tstamp)
            city = call.parameters.get("city")
            for index, (threshold, sub_city) in enumerate(self.subs):
                if duration > threshold and city == sub_city:
                    self.owed[(index, call.caller, tstamp)] += 1

    def callback(self, index: int) -> Callable[[object], None]:
        owed = self.owed

        def deliver(item) -> None:
            self.deliveries += 1
            if index in self.cancelled:
                self.bad_calls.add("after-cancel")
                self._error(f"sub {index}: delivery after cancel")
                return
            try:
                client = item.child_text("client")
                tstamp = item.child_text("tstamp")
                ok = item.tag == "incident" and item.attrib.get("type") == "slowAnswer"
            except AttributeError:
                self.bad_calls.add("malformed")
                self._error(f"sub {index}: malformed result {item!r}")
                return
            key = (index, client, tstamp)
            count = owed[key]
            if not ok or count <= 0:
                self.bad_calls.add(str(tstamp))
                self._error(f"sub {index}: unexpected or duplicate incident {client}@{tstamp}")
                return
            if count == 1:
                del owed[key]
            else:
                owed[key] = count - 1
            if self.record_lags:
                lags = self.lags
                lags[round(self.clock.now - self.calls[tstamp][1], 9)] += 1

        return deliver

    def failed_calls(self) -> int:
        """Calls with a missing, extra or duplicated incident anywhere."""
        bad = set(self.bad_calls)
        for (index, client, tstamp), count in self.owed.items():
            if count:
                bad.add(tstamp)
                self._error(f"sub {index}: missing incident {client}@{tstamp}")
        return len(bad)


class ChurnChecker(_Base):
    """Live subscriptions must receive exactly their variant's matches in
    each probe; cancelled ones must receive nothing at all.

    A variant is ``(kind, params)`` with ``match(call) -> key | None``
    computing, from the call alone, the result key the subscription must
    report (None when the call does not match)."""

    def __init__(self, match: Callable[[object, tuple], str | None], clock) -> None:
        super().__init__(clock)
        self.match = match
        self.variants: dict[str, tuple] = {}
        self.cancelled: set[str] = set()
        self.owed: Counter = Counter()
        self.emitted_at = 0.0
        self.bad_calls: set[str] = set()

    def subscribed(self, sub_id: str, variant: tuple) -> None:
        self.variants[sub_id] = variant

    def cancelled_sub(self, sub_id: str) -> None:
        self.variants.pop(sub_id, None)
        self.cancelled.add(sub_id)

    def callback(self, sub_id: str) -> Callable[[object], None]:
        owed = self.owed

        def deliver(item) -> None:
            self.deliveries += 1
            if sub_id in self.cancelled:
                self.bad_calls.add("after-cancel")
                self._error(f"{sub_id}: delivery after cancel")
                return
            try:
                key = (sub_id, result_key(item))
            except AttributeError:
                self.bad_calls.add("malformed")
                self._error(f"{sub_id}: malformed result {item!r}")
                return
            if owed[key] <= 0:
                self.bad_calls.add(key[1])
                self._error(f"{sub_id}: unexpected or duplicate result {key[1]}")
                return
            owed[key] -= 1
            if self.record_lags:
                self.lags[round(self.clock.now - self.emitted_at, 9)] += 1

        return deliver

    def begin_probe(self, calls: list) -> None:
        self.owed.clear()
        self.emitted_at = self.clock.now
        for sub_id, variant in self.variants.items():
            for call in calls:
                key = self.match(call, variant)
                if key is not None:
                    self.owed[(sub_id, key)] += 1

    def end_probe(self) -> int:
        bad, self.bad_calls = self.bad_calls, set()
        for (sub_id, key), count in self.owed.items():
            if count:
                bad.add(key)
                self._error(f"{sub_id}: missing result {key}")
        return len(bad)


def result_key(item) -> str | None:
    """The identity a churn result carries: the call timestamp of a meteo
    incident, the call id of an Edos hit."""
    if item.tag == "incident":
        return "incident:" + str(item.child_text("client")) + "@" + str(item.child_text("tstamp"))
    if item.tag == "hit":
        return "hit:" + str(item.attrib.get("method")) + ":" + str(item.child_text("call"))
    return None


def quantile_of_counts(counts: Counter, q: float) -> float:
    """The q-quantile (nearest rank) of a value -> count tally."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return float(value)
    return float(max(counts))
