"""Self-tests of the benchmark's reference checks, at toy sizes.

Each checker must pass on the real program and must fail when the result
stream it sees is corrupted: one delivery dropped, one duplicated, one
delivered after its subscription was cancelled.

    python3 -m pytest p2pmbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for entry in (str(BENCH_DIR.parent / "src"), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import checks  # noqa: E402
import workloads  # noqa: E402
from calibrate import Meter  # noqa: E402

ROUNDS = 3


@pytest.fixture(autouse=True)
def toy_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "FANOUT_SUBS", 48)
    monkeypatch.setattr(workloads, "METEO_MONITORS", 6)
    monkeypatch.setattr(workloads, "METEO_BURST", 30)
    monkeypatch.setattr(workloads, "CHURN_INITIAL", 60)
    monkeypatch.setattr(workloads, "CHURN_PAIRS", 3)


class Corruptor:
    """Wraps every result callback; corrupts the ``nth`` delivery overall."""

    def __init__(self, mode: str | None, nth: int = 7) -> None:
        self.mode = mode
        self.nth = nth
        self.seen = 0
        #: (deliver, item) of the corrupted delivery, replayed after cancel
        self.saved: tuple | None = None

    def install(self, monkeypatch, checker_cls) -> None:
        make = checker_cls.callback

        def callback(checker, key):
            deliver = make(checker, key)

            def corrupted(item) -> None:
                self.seen += 1
                if self.seen != self.nth or self.mode is None:
                    deliver(item)
                elif self.mode == "drop":
                    pass
                elif self.mode == "duplicate":
                    deliver(item)
                    deliver(item)
                elif self.mode == "after-cancel":
                    deliver(item)
                    self.saved = (key, deliver, item)

            return corrupted

        monkeypatch.setattr(checker_cls, "callback", callback)


def cancel_saved(workload, corruptor: Corruptor) -> None:
    """Cancel the subscription that got the saved delivery, then replay it."""
    key, deliver, item = corruptor.saved
    if isinstance(workload, workloads.SubscribeChurn):
        handle = dict(workload.live)[key]
        workload.live = [(s, h) for s, h in workload.live if s != key]
        workload.checker.cancelled_sub(key)
    else:
        # teardown cancels it again, which is a no-op
        handle = workload.handles[key]
        if isinstance(workload, workloads.Fanout):
            workload.checker.cancelled[key] = True
        else:
            workload.checker.cancelled.add(key)
    handle.cancel()
    workload.system.run()
    deliver(item)


def run(workload_cls, corruptor: Corruptor) -> int:
    """Setup, warm-up, a few rounds and teardown; returns failed operations."""
    workload = workload_cls(seed=5)
    meter = Meter()
    workload.setup(meter)
    workload.start_data()
    workload.warmup()
    failed = 0
    for i in range(ROUNDS):
        if i == ROUNDS - 1 and corruptor.saved is not None:
            cancel_saved(workload, corruptor)
        failed += workload.round(meter).failed
    workload.teardown(meter)
    return failed + workload.failed


CASES = [
    (workloads.Fanout, checks.FanoutChecker),
    (workloads.FanoutSharded, checks.FanoutChecker),
    (workloads.MeteoLossy, checks.MeteoChecker),
    (workloads.SubscribeChurn, checks.ChurnChecker),
]
#: the sharded runtime refuses cancel once its workers run, so a delivery
#: after cancel cannot happen there
CORRUPTIONS = [
    (mode, workload_cls, checker_cls)
    for mode in ("drop", "duplicate", "after-cancel")
    for workload_cls, checker_cls in CASES
    if not (mode == "after-cancel" and workload_cls is workloads.FanoutSharded)
]


@pytest.mark.parametrize("workload_cls,checker_cls", CASES, ids=lambda c: getattr(c, "name", ""))
def test_checker_passes_on_the_program(monkeypatch, workload_cls, checker_cls):
    corruptor = Corruptor(None)
    corruptor.install(monkeypatch, checker_cls)
    assert run(workload_cls, corruptor) == 0
    assert corruptor.seen > corruptor.nth


@pytest.mark.parametrize(
    "mode,workload_cls,checker_cls", CORRUPTIONS, ids=lambda c: c if isinstance(c, str) else getattr(c, "name", "")
)
def test_checker_catches_corruption(monkeypatch, workload_cls, checker_cls, mode):
    corruptor = Corruptor(mode)
    corruptor.install(monkeypatch, checker_cls)
    assert run(workload_cls, corruptor) >= 1


def test_in_process_pass_checks_its_deliveries(monkeypatch):
    corruptor = Corruptor("drop")
    corruptor.install(monkeypatch, checks.FanoutChecker)
    workload = workloads.FanoutSharded(seed=5)
    lags, weight, ops = workload.in_process_pass(Meter())
    assert workload.failed >= 1
    assert sum(lags.values()) > 0 and weight > 0
    assert {kind for kind, *_ in ops} == {"subscribe", "cancel"}


def test_quantile_of_counts():
    counts = checks.Counter({1.0: 98, 2.0: 1, 3.0: 1})
    assert checks.quantile_of_counts(counts, 0.5) == 1.0
    assert checks.quantile_of_counts(counts, 0.99) == 2.0
    assert checks.quantile_of_counts(counts, 1.0) == 3.0
