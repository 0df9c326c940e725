"""Session registry: LRU cache of warmed operator sessions under a budget.

A solver farm serves many operators, but warmed sessions are expensive to
keep — each one pins working-precision matrix copies, backend plans and a
pool of Krylov workspaces (see :meth:`OperatorSession.estimated_bytes`).
The :class:`SessionRegistry` is the piece that makes "many operators" and
"bounded memory" compatible: operators are *registered* as factories
(cheap, unbounded), while warmed *sessions* are built on first use, kept
hot in an LRU cache, and evicted when the configured session-count or byte
budget is exceeded.  A re-request of an evicted operator transparently
re-warms it through its stored factory; :attr:`SessionRegistry.creations`
counts every warm-up and is what the farm reports as sessions created.

Eviction uses :meth:`OperatorSession.release` rather than ``close``: the
evicted session stops accepting new work, but a farm worker holding a
reference across the eviction can still finish its in-flight dispatch —
the warmed state is freed when the last reference drops.  Futures can
therefore never be lost to an eviction; the farm's per-tenant queues live
in the farm, not in the sessions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .session import OperatorSession

__all__ = ["SessionRegistry"]


class SessionRegistry:
    """LRU cache of warmed :class:`OperatorSession` objects by operator key.

    Parameters
    ----------
    max_sessions:
        At most this many warmed sessions are kept live; requesting one
        more evicts the least-recently-used first.  At least 1 (the
        session being requested is never evicted to make room for itself).
    max_bytes:
        Optional byte budget over the live sessions' estimated resident
        state (:meth:`OperatorSession.estimated_bytes`).  Evicts LRU-first
        until under budget, but never the most recent session — one
        oversized operator is served, not wedged.
    on_evict:
        Optional ``callable(key)`` run after each eviction (the farm
        logs it).

    Sessions are built *under the registry lock*: concurrent requests for
    the same cold key warm it exactly once, at the price of serializing
    warm-ups of different keys (warm-up is one SpMV + one SpMM per stored
    matrix — short next to the solves it amortizes).
    """

    def __init__(
        self,
        *,
        max_sessions: int = 8,
        max_bytes: Optional[int] = None,
        on_evict: Optional[Callable[[str], None]] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None for unlimited)")
        self.max_sessions = int(max_sessions)
        self.max_bytes = max_bytes
        self._on_evict = on_evict
        self._lock = threading.RLock()
        self._factories: Dict[str, Callable[[], "OperatorSession"]] = {}
        # Insertion order = recency order: oldest (LRU) first.
        self._sessions: "OrderedDict[str, OperatorSession]" = OrderedDict()
        self._evictions: Dict[str, int] = {}
        self._creations = 0

    # ------------------------------------------------------------------ #
    # registration                                                       #
    # ------------------------------------------------------------------ #
    def register(self, key: str, factory: Callable[[], "OperatorSession"]) -> None:
        """Register ``factory`` as the builder of ``key``'s session.

        Cheap — nothing is warmed until :meth:`get_or_create`.  Re-register
        to replace the factory; a live session built by the old factory is
        evicted so the next request re-warms through the new one.
        """
        with self._lock:
            replaced = key in self._factories
            self._factories[key] = factory
            if replaced and key in self._sessions:
                self._evict_locked(key)

    def registered_keys(self) -> List[str]:
        with self._lock:
            return list(self._factories)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._factories

    # ------------------------------------------------------------------ #
    # lookup / build                                                     #
    # ------------------------------------------------------------------ #
    def get_or_create(self, key: str) -> "OperatorSession":
        """The warmed session for ``key``, building (or re-warming) it if cold.

        Marks the session most-recently-used and enforces the budgets,
        evicting LRU sessions as needed — never ``key`` itself.
        """
        with self._lock:
            if key not in self._factories:
                raise KeyError(f"no operator registered under key {key!r}")
            session = self._sessions.get(key)
            if session is None:
                # Make room *before* warming so peak live count never
                # exceeds max_sessions.
                while len(self._sessions) >= self.max_sessions:
                    self._evict_lru_locked()
                session = self._factories[key]()
                self._sessions[key] = session
                self._creations += 1
            self._sessions.move_to_end(key)
            self._enforce_bytes_locked()
            return session

    def peek(self, key: str) -> Optional["OperatorSession"]:
        """The live session for ``key`` without building or touching recency."""
        with self._lock:
            return self._sessions.get(key)

    def live_keys(self) -> List[str]:
        """Keys with a warmed session, LRU first."""
        with self._lock:
            return list(self._sessions)

    @property
    def live_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    @property
    def evictions(self) -> int:
        """Lifetime count of sessions evicted (budget or explicit)."""
        with self._lock:
            return sum(self._evictions.values())

    def evictions_by_key(self) -> Dict[str, int]:
        """Lifetime evictions per operator key (keys never evicted absent)."""
        with self._lock:
            return dict(self._evictions)

    @property
    def creations(self) -> int:
        """Lifetime count of sessions warmed (including re-warms)."""
        with self._lock:
            return self._creations

    def estimated_bytes(self) -> int:
        """Summed :meth:`OperatorSession.estimated_bytes` of live sessions."""
        with self._lock:
            return sum(s.estimated_bytes() for s in self._sessions.values())

    # ------------------------------------------------------------------ #
    # eviction                                                           #
    # ------------------------------------------------------------------ #
    def evict(self, key: str) -> bool:
        """Explicitly evict ``key``'s warmed session (returns whether one was)."""
        with self._lock:
            if key not in self._sessions:
                return False
            self._evict_locked(key)
            return True

    def _evict_lru_locked(self) -> None:
        key = next(iter(self._sessions))
        self._evict_locked(key)

    def _evict_locked(self, key: str) -> None:
        session = self._sessions.pop(key)
        self._evictions[key] = self._evictions.get(key, 0) + 1
        # release(), not close(): a farm worker mid-dispatch on this
        # session finishes its batch; the warmed state is freed when the
        # last reference drops (see module docstring).
        session.release()
        if self._on_evict is not None:
            self._on_evict(key)

    def _enforce_bytes_locked(self) -> None:
        if self.max_bytes is None:
            return
        # Workspace pools grow with traffic, so re-measure instead of
        # trusting creation-time sizes.  Never evict the MRU session:
        # one oversized operator is served, not wedged.
        while len(self._sessions) > 1:
            total = sum(s.estimated_bytes() for s in self._sessions.values())
            if total <= self.max_bytes:
                break
            self._evict_lru_locked()

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def release_all(self) -> None:
        """Evict every live session (factories stay registered)."""
        with self._lock:
            for key in list(self._sessions):
                self._evict_locked(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"<SessionRegistry live={len(self._sessions)}/{self.max_sessions} "
                f"registered={len(self._factories)} evictions={self.evictions}>"
            )
