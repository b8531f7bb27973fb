"""Per-layer cost ledger, taken from outside the simulator.

The ledger wraps public entry points of each layer (class attributes,
patched for one traced run and restored afterwards) and keeps one
wall-clock timeline for the whole process.  That is sound because the
event scheduler keeps exactly one runnable thread: session threads and
the loop thread hand control to each other and never run at once.

Accounting rule: every interval between two consecutive ledger events
is charged to the innermost open span of the thread that records the
event ending it (``unattributed`` when that thread has no open span).
A session opens a hand-off span when it enters
``EventScheduler.wait_until`` and when its spawned function starts, so
the interval that ends with a session running again is
``netsim.sched.handoff`` — suspended time is never charged to the layer
that suspended.  Self times plus ``unattributed`` therefore add up to
the ledger's wall time exactly.

The timeline runs only inside measured calls (:meth:`Ledger.window`).
Set-up entry points (filler generation, registry construction, universe
construction) are timed inclusively during the first set-up instead.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

HANDOFF = "netsim.sched.handoff"
LOOP = "netsim.sched.loop"
DRIVER = "core.driver"
UNATTRIBUTED = "unattributed"


class Ledger:
    """Counts, self times and set-up times for one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Self seconds per span bucket (plus ``unattributed``).
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: Inclusive seconds of set-up entry points (first set-up only).
        self.setup_s: Dict[str, float] = defaultdict(float)
        #: Sum of the measured windows, by the ledger's own clock.
        self.wall = 0.0
        self.active = False
        self.recording_setup = True
        #: Engines seen by ``send_query``: id -> (engine, retries at first sight).
        self.engines: Dict[int, Tuple[Any, int]] = {}
        self._stacks: Dict[int, List[str]] = {}
        self._last = 0.0
        #: Thread ident of a session whose suspension is the latest event.
        self._suspended_last: Optional[int] = None

    # -- the timeline ------------------------------------------------------

    def _stack(self) -> List[str]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def _charge(self, bucket: str) -> None:
        now = self.clock()
        self.self_s[bucket] += now - self._last
        self._last = now
        self._suspended_last = None

    def enter(self, bucket: str) -> None:
        stack = self._stack()
        self._charge(stack[-1] if stack else UNATTRIBUTED)
        stack.append(bucket)

    def exit(self) -> None:
        stack = self._stack()
        self._charge(stack[-1] if stack else UNATTRIBUTED)
        stack.pop()

    def top(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1] if stack else None

    def suspend(self) -> None:
        """A session is about to hand control back to the event loop."""
        self.enter(HANDOFF)
        self._suspended_last = threading.get_ident()

    def resumed(self) -> None:
        """A suspended session runs again."""
        if self._suspended_last == threading.get_ident():
            self.counts["netsim.sched.run_ahead"] += 1
        self.exit()

    def session_started(self) -> None:
        """A spawned session's function begins on its pool thread."""
        self._charge(HANDOFF)
        self._stack().append(DRIVER)

    def window(self, fn: Callable[[], Any]) -> Any:
        """Run one measured call with the timeline on, charged to
        ``core.driver`` unless a deeper span is open."""
        if self.active:
            raise RuntimeError("ledger windows do not nest")
        self.recording_setup = False
        self._stacks = {}
        self._suspended_last = None
        start = self._last = self.clock()
        self.active = True
        self._stack().append(DRIVER)
        try:
            return fn()
        finally:
            self._charge(self._stack()[-1])
            self.active = False
            self.wall += self._last - start
            self._stacks = {}

    def after_fork_in_child(self) -> None:
        """Forked pool workers run untraced: their ledger copy is lost."""
        self.active = False
        self.recording_setup = False

    # -- derived values ----------------------------------------------------

    def attributed(self) -> float:
        return sum(
            seconds for bucket, seconds in self.self_s.items()
            if bucket != UNATTRIBUTED
        )

    def engine_retries(self) -> int:
        return sum(engine.retries - first for engine, first in self.engines.values())


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _span(
    ledger: Ledger,
    fn: Callable,
    bucket: str,
    count: Optional[str] = None,
    raised: Optional[Tuple[str, type]] = None,
    returned: Optional[Callable[[tuple, Any], None]] = None,
    entered: Optional[Callable[[tuple], None]] = None,
) -> Callable:
    """Wrap *fn*: count the call, time it as a *bucket* span, count a
    raise of ``raised[1]`` under ``raised[0]``, and hand the arguments
    and result to ``returned``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not ledger.active:
            return fn(*args, **kwargs)
        if count is not None:
            ledger.counts[count] += 1
        if entered is not None:
            entered(args)
        ledger.enter(bucket)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            if raised is not None and isinstance(error, raised[1]):
                ledger.counts[raised[0]] += 1
            raise
        finally:
            ledger.exit()
        if returned is not None:
            returned(args, result)
        return result

    return wrapper


def _setup_timer(ledger: Ledger, fn: Callable, key: str) -> Callable:
    """Inclusive wall time of a set-up entry point, first set-up only."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not ledger.recording_setup:
            return fn(*args, **kwargs)
        start = ledger.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.setup_s[key] += ledger.clock() - start

    return wrapper


class Installation:
    """Wrappers patched onto the simulator's classes; :meth:`remove`
    restores every original attribute."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        #: ``(class, attribute, original)`` for every patched attribute.
        self.patched: List[Tuple[type, str, Any]] = []

    def patch(self, owner: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, make(original))
        self.patched.append((owner, name, original))

    def remove(self) -> None:
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)

    def leftover(self) -> List[str]:
        """Patched attributes that do not hold their original now."""
        return [
            f"{owner.__name__}.{name}"
            for owner, name, original in self.patched
            if owner.__dict__.get(name) is not original
        ]


def install(ledger: Ledger) -> Installation:
    """Patch every traced entry point; returns the handle that removes them."""
    from repro.core import FaultTolerantExecutor, LeakageClassifier, ResultStore
    from repro.crypto.memo import VerifyMemo
    from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
    from repro.dnscore import Message
    from repro.netsim import Capture, EventScheduler, Network, StreamingCapture
    from repro.netsim.network import QueryTimeout
    from repro.resolver import RecursiveResolver, StubClient
    from repro.resolver.cache import RRsetCache
    from repro.resolver.engine import IterativeEngine
    from repro.resolver.lookaside import DlvLookaside
    from repro.resolver.negcache import NegativeCache
    from repro.resolver.validator import Validator
    from repro.servers import AuthoritativeServer, DlvRegistryZone
    from repro.workloads import AlexaWorkload, Universe
    from repro.zones import Zone

    counts = ledger.counts
    handle = Installation(ledger)

    def span(owner, name, bucket, count=None, **hooks):
        handle.patch(
            owner, name, lambda fn: _span(ledger, fn, bucket, count, **hooks)
        )

    def counted_true(key):
        def returned(args, result):
            if result:
                counts[key] += 1
        return returned

    def counted_some(key):
        def returned(args, result):
            if result is not None:
                counts[key] += 1
        return returned

    # netsim.sched: suspensions, spawned sessions, timers, the loop.
    def wrap_wait_until(fn):
        @functools.wraps(fn)
        def wait_until(self, deadline, *, priority=None):
            if not ledger.active:
                return fn(self, deadline, priority=priority)
            counts["netsim.sched.suspends"] += 1
            ledger.suspend()
            try:
                return fn(self, deadline, priority=priority)
            finally:
                ledger.resumed()
        return wait_until

    def wrap_spawn(fn):
        @functools.wraps(fn)
        def spawn(self, session_fn, **kwargs):
            if not ledger.active:
                return fn(self, session_fn, **kwargs)
            counts["netsim.sched.sessions"] += 1

            def session():
                ledger.session_started()
                try:
                    session_fn()
                finally:
                    ledger.exit()

            return fn(self, session, **kwargs)
        return spawn

    def wrap_call_at(fn):
        @functools.wraps(fn)
        def call_at(self, when, timer_fn, **kwargs):
            if not ledger.active:
                return fn(self, when, timer_fn, **kwargs)
            counts["netsim.sched.timers"] += 1

            def timer():
                ledger.enter(DRIVER)
                try:
                    timer_fn()
                finally:
                    ledger.exit()

            return fn(self, when, timer, **kwargs)
        return call_at

    def loop_returned(args, stats):
        counts["netsim.sched.threads"] += stats.threads_created

    handle.patch(EventScheduler, "wait_until", wrap_wait_until)
    handle.patch(EventScheduler, "spawn", wrap_spawn)
    handle.patch(EventScheduler, "call_at", wrap_call_at)
    span(EventScheduler, "run", LOOP, returned=loop_returned)

    # netsim.network / netsim.capture / dnscore
    span(Network, "query", "netsim.network", "netsim.network.exchanges",
         raised=("netsim.network.timeouts", QueryTimeout))
    span(Capture, "record", "netsim.capture", "netsim.capture.records")
    span(StreamingCapture, "record", "netsim.capture", "netsim.capture.records")
    span(Message, "wire_size", "dnscore.wire", "dnscore.wire.sizings")

    # crypto
    def verify_entered(args):
        if ledger.top() == "crypto.verify_memo":
            counts["crypto.verify_memo.misses"] += 1

    span(RSAPrivateKey, "sign", "crypto.sign", "crypto.sign.calls")
    span(RSAPublicKey, "verify", "crypto.verify", "crypto.verify.calls",
         entered=verify_entered)
    span(VerifyMemo, "verify", "crypto.verify_memo", "crypto.verify_memo.calls")

    # zones, servers
    span(Zone, "lookup", "zones", "zones.lookups")
    span(DlvRegistryZone, "lookup", "zones.registry", "zones.registry.lookups")
    span(AuthoritativeServer, "handle", "servers", "servers.handles")

    # set-up entry points
    handle.patch(AlexaWorkload, "registry_filler",
                 lambda fn: _setup_timer(ledger, fn, "workloads.filler_s"))
    handle.patch(DlvRegistryZone, "__init__",
                 lambda fn: _setup_timer(ledger, fn, "servers.registry_build_s"))
    handle.patch(Universe, "__init__",
                 lambda fn: _setup_timer(ledger, fn, "workloads.universe_s"))

    # resolver caches
    span(RRsetCache, "get", "resolver.cache", "resolver.cache.gets",
         returned=counted_some("resolver.cache.hits"))
    span(RRsetCache, "put", "resolver.cache")
    span(NegativeCache, "nsec_covers", "resolver.negcache",
         "resolver.negcache.checks",
         returned=counted_true("resolver.negcache.covered"))
    span(NegativeCache, "known_negative", "resolver.negcache",
         "resolver.negcache.checks",
         returned=counted_true("resolver.negcache.covered"))

    # resolver engine, validator, look-aside, recursive front end
    def engine_entered(args):
        engine = args[0]
        if id(engine) not in ledger.engines:
            ledger.engines[id(engine)] = (engine, engine.retries)

    span(IterativeEngine, "resolve", "resolver.engine", "resolver.engine.resolves")
    span(IterativeEngine, "send_query", "resolver.engine",
         "resolver.engine.sends",
         raised=("resolver.engine.send_failures", BaseException),
         entered=engine_entered)
    span(Validator, "validate_outcome", "resolver.validator",
         "resolver.validator.validations")
    span(DlvLookaside, "try_lookaside", "resolver.lookaside",
         "resolver.lookaside.searches")
    span(RecursiveResolver, "resolve", "resolver.recursive",
         "resolver.recursive.resolutions")
    span(RecursiveResolver, "handle", "resolver.recursive")
    span(StubClient, "query", "resolver.recursive",
         "resolver.recursive.stub_queries")

    # core: leakage classification, executor, store
    def executor_entered(args):
        counts["core.parallel.cells"] += len(args[1])

    def executor_returned(args, result):
        health = result[2]
        counts["core.parallel.retries"] += health.retries
        counts["core.parallel.worker_lost"] += health.worker_lost

    span(LeakageClassifier, "report", "core.leakage")
    span(FaultTolerantExecutor, "run_with_quarantine", "core.parallel",
         entered=executor_entered, returned=executor_returned)
    span(ResultStore, "commit", "core.store.commit", "core.store.commits")
    span(ResultStore, "load", "core.store.load", "core.store.loads",
         returned=counted_some("core.store.reused"))

    os.register_at_fork(after_in_child=ledger.after_fork_in_child)
    return handle


#: Every per-layer metric :func:`layer_metrics` reports, in report order
#: (their units are in ``BENCHMARK.json``).
LAYER_METRICS: Tuple[str, ...] = (
    "netsim.sched.suspends",
    "netsim.sched.handoff_s",
    "netsim.sched.loop_s",
    "netsim.sched.run_ahead_share",
    "netsim.sched.sessions",
    "netsim.sched.timers",
    "netsim.sched.threads",
    "netsim.network.exchanges",
    "netsim.network.self_s",
    "netsim.network.timeouts",
    "netsim.capture.records",
    "netsim.capture.self_s",
    "dnscore.wire.sizings",
    "dnscore.wire.self_s",
    "crypto.sign.calls",
    "crypto.sign.self_s",
    "crypto.verify.calls",
    "crypto.verify.self_s",
    "crypto.verify_memo.calls",
    "crypto.verify_memo.self_s",
    "crypto.verify_memo.hit_share",
    "zones.lookups",
    "zones.self_s",
    "zones.registry.lookups",
    "zones.registry.self_s",
    "servers.handles",
    "servers.self_s",
    "workloads.filler_s",
    "servers.registry_build_s",
    "workloads.universe_s",
    "resolver.cache.gets",
    "resolver.cache.hit_share",
    "resolver.cache.self_s",
    "resolver.negcache.checks",
    "resolver.negcache.covered_share",
    "resolver.negcache.self_s",
    "resolver.engine.resolves",
    "resolver.engine.self_s",
    "resolver.engine.sends",
    "resolver.engine.send_failures",
    "resolver.engine.retries",
    "resolver.validator.validations",
    "resolver.validator.self_s",
    "resolver.lookaside.searches",
    "resolver.lookaside.self_s",
    "resolver.lookaside.useful_share",
    "resolver.recursive.resolutions",
    "resolver.recursive.stub_queries",
    "resolver.recursive.self_s",
    "core.driver.self_s",
    "core.leakage.self_s",
    "core.parallel.cells",
    "core.parallel.run_s",
    "core.parallel.retries",
    "core.parallel.worker_lost",
    "core.store.commits",
    "core.store.commit_s",
    "core.store.loads",
    "core.store.load_s",
    "core.store.reuse_share",
)

#: Time buckets reported as ``<metric>`` (the rest report ``<bucket>.self_s``).
_TIME_NAMES = {
    HANDOFF: "netsim.sched.handoff_s",
    LOOP: "netsim.sched.loop_s",
    "core.parallel": "core.parallel.run_s",
    "core.store.commit": "core.store.commit_s",
    "core.store.load": "core.store.load_s",
}


def layer_metrics(ledger: Ledger, useful_share: float) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from a finished ledger.

    ``useful_share`` (Case-1 DLV queries over all DLV queries) comes
    from the workload's own classified output, the paper's "utility".
    """
    counts = ledger.counts
    values: Dict[str, float] = {
        name: float(counts.get(name, 0)) for name in LAYER_METRICS
    }
    for bucket, seconds in ledger.self_s.items():
        if bucket != UNATTRIBUTED:
            values[_TIME_NAMES.get(bucket, f"{bucket}.self_s")] = seconds
    values.update(ledger.setup_s)
    values["netsim.sched.run_ahead_share"] = _share(
        counts["netsim.sched.run_ahead"], counts["netsim.sched.suspends"]
    )
    memo_calls = counts["crypto.verify_memo.calls"]
    values["crypto.verify_memo.hit_share"] = _share(
        memo_calls - counts["crypto.verify_memo.misses"], memo_calls
    )
    values["resolver.cache.hit_share"] = _share(
        counts["resolver.cache.hits"], counts["resolver.cache.gets"]
    )
    values["resolver.negcache.covered_share"] = _share(
        counts["resolver.negcache.covered"], counts["resolver.negcache.checks"]
    )
    values["resolver.engine.retries"] = float(ledger.engine_retries())
    values["resolver.lookaside.useful_share"] = useful_share
    values["core.store.reuse_share"] = _share(
        counts["core.store.reused"], counts["core.store.loads"]
    )
    unknown = set(values) - set(LAYER_METRICS)
    if unknown:
        raise KeyError(f"ledger produced unlisted metrics: {sorted(unknown)}")
    return values
