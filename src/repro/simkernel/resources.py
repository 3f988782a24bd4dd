"""Shared-resource primitives for the simulation kernel.

:class:`Resource` — ``capacity`` identical servers with a FIFO (optionally
priority-ordered) wait queue; models CPU engines, channel paths, link
subchannels and CF processors.  A :class:`Request` is its claim: yield it
to wait for the grant, ``cancel()`` it to release the unit or to withdraw
from the queue.

The model's queues of work (CF list structures, the JES spool) are model
objects of their own, so the kernel has no store or level primitive.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .core import _PENDING, _TRIGGERED, Event, Simulator, NORMAL

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    A granted request's value is ``None``: the grant carries no data, and
    a request that held itself as its value would be a reference cycle
    that only the cycle collector could free once it is cancelled.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released automatically
    """

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: int):
        # constructed once per CPU/channel/subchannel claim — the hottest
        # allocation after Timeout; initialize flat (no Event.__init__)
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING
        self._defused = False
        self.resource = resource
        self.priority = priority
        self._key = None  # set by the resource when queued

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release if granted; withdraw from the queue if still waiting."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` interchangeable servers with a priority/FIFO queue."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: set = set()
        #: scalar holds (see claim): occupancy with no Request object
        self._held = 0
        self._waiters: list = []  # heap of (priority, seq, request)
        self._seq = 0
        # Time-weighted busy statistics.
        self._busy_area = 0.0
        self._last_change = sim.now

    # -- statistics ----------------------------------------------------------
    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += (len(self.users) + self._held) * (now - self._last_change)
        self._last_change = now

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity busy since time ``since``."""
        self._account()
        span = self.sim.now - since
        if span <= 0:
            return 0.0
        return self._busy_area / (span * self.capacity)

    def busy_area(self) -> float:
        """Cumulative busy engine-seconds (for windowed utilization)."""
        self._account()
        return self._busy_area

    @property
    def in_use(self) -> int:
        return len(self.users) + self._held

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    # -- protocol --------------------------------------------------------------
    def request(self, priority: int = NORMAL) -> Request:
        """Claim one unit.  Yield the returned event to wait for the grant.

        The grant's value is ``None``; hold on to the returned request to
        release it.
        """
        req = Request(self, priority)
        users = self.users
        if len(users) + self._held < self.capacity and not self._waiters:
            # immediate-grant fast path: _grant + Event.succeed flattened
            # (free capacity is the common case on CPU engines and links)
            sim = self.sim
            now = sim._now
            self._busy_area += (len(users) + self._held) * (now - self._last_change)
            self._last_change = now
            users.add(req)
            req._state = _TRIGGERED
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (now, NORMAL, seq, req))
        else:
            self._seq += 1
            req._key = (priority, self._seq)
            heappush(self._waiters, (priority, self._seq, req))
        return req

    def claim(self) -> bool:
        """Claim one unit *now* with no Request object and no event.

        The cheapest acquisition: a free unit with nobody queued is held
        as a bare occupancy count — no allocation, no grant event, no
        ``yield``.  Returns False (claiming nothing) when the resource is
        busy or contended; the caller falls back to :meth:`request`.
        Release with :meth:`unclaim`.  Collapse-mode fast paths use this;
        the golden paths never do, so ``_held`` stays 0 there and every
        accounting expression reduces to the historical form.
        """
        users = self.users
        held = self._held
        if len(users) + held >= self.capacity or self._waiters:
            return False
        now = self.sim._now
        self._busy_area += (len(users) + held) * (now - self._last_change)
        self._last_change = now
        self._held = held + 1
        return True

    def unclaim(self) -> None:
        """Release one :meth:`claim` hold (grants to waiters if any)."""
        users = self.users
        now = self.sim._now
        n = len(users) + self._held
        self._busy_area += n * (now - self._last_change)
        self._last_change = now
        self._held -= 1
        if self._waiters and n - 1 < self.capacity:
            self._dispatch()

    def release(self, request: Request) -> None:
        """Return one unit previously granted to ``request``."""
        users = self.users
        if request not in users:
            return
        now = self.sim._now
        self._busy_area += (len(users) + self._held) * (now - self._last_change)
        self._last_change = now
        users.discard(request)
        if self._waiters and len(users) + self._held < self.capacity:
            self._dispatch()

    def _grant(self, req: Request) -> None:
        self._account()
        self.users.add(req)
        req.succeed()

    def _dispatch(self) -> None:
        while self._waiters and len(self.users) + self._held < self.capacity:
            _p, _s, req = heappop(self._waiters)
            if req._key is None:
                continue  # cancelled while queued
            req._key = False
            self._grant(req)

    def _cancel(self, req: Request) -> None:
        # ``release`` inlined (one membership test instead of two, no
        # extra frame): this runs once per engine/subchannel/CF-processor
        # hold, the third-hottest kernel path after Timeout and request.
        users = self.users
        if req in users:
            now = self.sim._now
            self._busy_area += (len(users) + self._held) * (now - self._last_change)
            self._last_change = now
            users.discard(req)
            if self._waiters and len(users) + self._held < self.capacity:
                self._dispatch()
        elif req._key:
            req._key = None  # lazily discarded by _dispatch
