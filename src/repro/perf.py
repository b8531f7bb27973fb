"""Process-wide switch and registry for the hot-path caches.

Every memo in the hot path (name interning, per-instance wire caches,
the RSA sign/verify memos, the keypair generator memo) is *pure*: a hit
returns exactly the bytes the skipped computation would have produced,
so results are byte-identical with caches on or off — only wall-clock
changes.  This module provides the single switch the invariance tests
flip to prove that, plus a registry so flipping it also drops any
already-memoized state.

Disable from the environment with ``REPRO_DISABLE_HOTPATH_CACHES=1``
(any value other than ``0``/``false``/``no``/empty disables), or from
code with :func:`set_caches_enabled` / :func:`caches_disabled`.

Per-instance caches (e.g. an rdata's encoded wire form stashed on the
instance) cannot be enumerated centrally; they are instead *read-gated*
on :data:`ENABLED`, so disabling the switch makes stale entries
unreachable without having to find them.

:class:`collector_paused` is apart from that switch: it keeps CPython's
cyclic garbage collector off while a block builds, loads or walks a
large object graph that leaves no cyclic garbage.
"""

from __future__ import annotations

import contextlib
import gc
import os
from typing import Callable, Dict, List, Optional, Tuple

_ENV_VAR = "REPRO_DISABLE_HOTPATH_CACHES"


def _enabled_from_env() -> bool:
    value = os.environ.get(_ENV_VAR, "").strip().lower()
    return value in ("", "0", "false", "no")


#: Fast-path flag, read directly (``perf.ENABLED``) by hot code.
ENABLED: bool = _enabled_from_env()

_ClearFn = Callable[[], None]
_StatsFn = Callable[[], Dict[str, int]]

_REGISTRY: List[Tuple[str, _ClearFn, Optional[_StatsFn]]] = []


def caches_enabled() -> bool:
    """Whether the hot-path caches are currently active."""
    return ENABLED


def set_caches_enabled(enabled: bool) -> None:
    """Flip the global switch; any registered cache is cleared on every
    transition so both directions start cold."""
    global ENABLED
    ENABLED = bool(enabled)
    clear_hotpath_caches()


def register_cache(
    name: str, clear: _ClearFn, stats: Optional[_StatsFn] = None
) -> None:
    """Register a module-level cache's ``clear`` (and optional ``stats``)
    hook.  Called once at import time by each caching module."""
    _REGISTRY.append((name, clear, stats))


def clear_hotpath_caches() -> None:
    """Drop every registered module-level cache."""
    for _, clear, _ in _REGISTRY:
        clear()


def hotpath_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters for every registered cache that exposes
    them, keyed by cache name (sorted for stable output)."""
    out: Dict[str, Dict[str, int]] = {}
    for name, _, stats in _REGISTRY:
        if stats is not None:
            out[name] = dict(stats())
    return {name: out[name] for name in sorted(out)}


@contextlib.contextmanager
def caches_disabled():
    """Temporarily disable (and clear) the hot-path caches."""
    previous = ENABLED
    set_caches_enabled(False)
    try:
        yield
    finally:
        set_caches_enabled(previous)


class collector_paused:
    """Run the block with the cyclic garbage collector off, if it is on.

    A world build, a cell load or a walk allocates tens of thousands
    of objects, and every few hundred of them start a collection that
    walks the young ones again although none is cyclic garbage;
    paused, the collector sees them once, when it next runs.  Pause
    only a block that a test shows leaves no cyclic garbage: garbage
    that only the collector frees would outlive the block and cost a
    full collection later.  The collector is back on when the block
    exits, also by an exception; inside a paused block, or when the
    caller turned the collector off, this does nothing.  Leaving the
    block allocates nothing, so the one pass over what it built starts
    at the caller's next allocation.
    """

    __slots__ = ("_paused",)

    def __enter__(self) -> None:
        self._paused = gc.isenabled()
        if self._paused:
            gc.disable()

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self._paused:
            gc.enable()
