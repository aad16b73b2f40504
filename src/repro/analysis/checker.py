"""The lifecycle the event-stream checkers share.

:class:`~repro.analysis.sanitizer.PinSanitizer` and
:class:`~repro.analysis.races.RaceDetector` run different state
machines over the :class:`~repro.analysis.events.EventHub` stream but
attach to it the same way, through :class:`Checker`.  A subclass
supplies its catalog (``KINDS``), its per-kernel arming step
(``_arm_kernel``) and its per-event step (``_consume``), which appends
what its trails need to the bounded ``_ring``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, TypeVar

from .events import SanEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel

C = TypeVar("C", bound="Checker")


class Checker:
    """``strict``, typo-checked suppression, arming (a fresh scope and
    one hub subscription per kernel), disarming, per-kind ``counts``,
    ``events_seen``, ``feed()`` and the trail ring."""

    #: every kind the checker reports, in catalog order
    KINDS: tuple[str, ...] = ()
    #: what one catalog entry is called, for the typo-check error
    KIND_NAME = "check"
    #: events the trail ring keeps
    TRAIL_MAXLEN = 256
    #: events one reported trail carries at most
    TRAIL_REPORT = 32

    def __init__(self, *, strict: bool = False,
                 suppress: Iterable[str] = ()) -> None:
        self.strict = strict
        self.suppressed: set[str] = set()
        for kind in suppress:
            self.suppress(kind)
        self.events_seen = 0
        self.armed = False
        self._ring: deque = deque(maxlen=self.TRAIL_MAXLEN)
        self._counts: dict[str, int] = dict.fromkeys(self.KINDS, 0)
        self._unsubscribes: list[Callable[[], None]] = []
        self._n_scopes = 0
        self._feed_ts = 0

    def _check_kind(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown {self.KIND_NAME} {kind!r}; "
                             f"choose one of {self.KINDS}")

    def suppress(self: C, kind: str) -> C:
        """Disable one kind (typo-checked against :attr:`KINDS`)."""
        self._check_kind(kind)
        self.suppressed.add(kind)
        return self

    def unsuppress(self: C, kind: str) -> C:
        """Re-enable a suppressed kind."""
        self.suppressed.discard(kind)
        return self

    def arm(self: C, target: Any) -> C:
        """Subscribe to a Cluster, a Machine, a bare Kernel, or a
        ``(kernel, agents)`` pair (see
        :func:`~repro.via.machine.kernel_pairs`).  Each kernel gets a
        fresh scope — a token namespacing the per-frame/per-handle
        state, so kernels sharing a host label never alias."""
        from repro.via.machine import kernel_pairs
        for kernel, agents in kernel_pairs(target):
            self._n_scopes += 1
            scope = self._n_scopes
            self._arm_kernel(kernel, agents, scope)
            self._unsubscribes.append(kernel.events.subscribe(
                lambda event, _scope=scope: self.handle(event,
                                                        scope=_scope)))
        self.armed = True
        return self

    def _arm_kernel(self, kernel: "Kernel", agents: list,
                    scope: int) -> None:
        """Per-kernel set-up, run before the hub subscription."""

    def disarm(self) -> None:
        """Unsubscribe from every armed hub."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()
        self.armed = False

    @property
    def counts(self) -> dict[str, int]:
        """Findings recorded so far, by kind (includes zeros)."""
        return dict(self._counts)

    def handle(self, event: SanEvent, scope: Any = None) -> None:
        """Consume one event (the hub-subscription entry point); a fed
        event's scope defaults to its host label."""
        if scope is None:
            scope = event.host
        self.events_seen += 1
        self._consume(event, scope)

    def _consume(self, event: SanEvent, scope: Any) -> None:
        raise NotImplementedError

    def feed(self, events: Iterable) -> None:
        """Drive the checker directly — the golden-test entry point.
        Items are :class:`SanEvent`s or ``(kind, fields)`` pairs, stamped
        with host ``"test"`` and a monotonic timestamp."""
        for item in events:
            if not isinstance(item, SanEvent):
                kind, fields = item
                self._feed_ts += 1
                item = SanEvent(self._feed_ts, "test", kind, dict(fields))
            self.handle(item)
