"""Message-passing network model for the distributed DBMS.

Two operating modes, selected by :attr:`Network.active`:

* **Pure delay** (failure model off — the default): a message between
  distinct sites is a single calendar event ``msg_delay`` in the
  future; a same-site "message" is an inline call.  This reproduces
  the original constant-delay model *byte for byte*: the same calendar
  entries with the same callbacks in the same order, and no
  random-stream consumption.

* **Failure-realistic** (``params.failure_model`` or an installed
  fault plan): per-message latency is ``msg_delay`` plus an
  exponential jitter drawn from the ``net_jitter`` substream, messages
  are lost with ``msg_loss_prob`` (the ``net_loss`` substream), and a
  message is dropped outright when either endpoint is down or a
  :class:`repro.distributed.failures.NetworkPartition` window severs
  the pair.  Loss is *silent* — datagrams carry no acknowledgement;
  anything that must survive loss goes through :meth:`Network.call`.

:meth:`Network.call` implements the reliable request primitive used
for remote lock/page work, 2PC prepares, and 2PC decisions: send the
request, arm a timeout, retransmit with bounded exponential backoff
(``msg_timeout``/``msg_backoff``/``msg_backoff_cap``), and give up
after ``msg_retries`` retransmissions by invoking ``on_fail``.
Retransmissions re-deliver the request payload, so request handlers
must be idempotent (the system layer keys them by transaction).  The
protocol layer settles the call when the matching reply arrives; a
call whose *sender* crashes settles silently (its retransmitter died
with the site).

Both substreams are consumed only on the failure-realistic path, and
only when their parameter is non-zero — the zero-cost-off discipline
every optional subsystem here follows.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.distributed.config import DistributedParameters
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

__all__ = ["Network", "ReliableCall"]


class ReliableCall:
    """One in-flight reliable exchange (see :meth:`Network.call`).

    The handle is deliberately dumb: the network owns retransmission
    and expiry; the protocol layer owns matching replies to calls and
    calling :meth:`settle`.
    """

    __slots__ = ("src", "dst", "fn", "args", "on_fail", "attempts",
                 "settled")

    def __init__(self, src: int, dst: int,
                 fn: Callable[..., None], args: Tuple[Any, ...],
                 on_fail: Optional[Callable[[], None]]):
        self.src = src
        self.dst = dst
        self.fn = fn
        self.args = args
        self.on_fail = on_fail
        self.attempts = 0
        self.settled = False

    def settle(self) -> None:
        """Mark the exchange complete; pending timeouts become no-ops.

        Drops the request and the failure callback: they usually close
        over the protocol object that holds this handle, and a settled
        exchange never sends or fails again.
        """
        self.settled = True
        self.fn = self.args = self.on_fail = None


class Network:
    """Site-to-site message transport (see module docstring).

    Args:
        sim: the shared simulator.
        streams: named random substreams (``net_loss``/``net_jitter``
            are consumed only when active and configured non-zero).
        params: distributed parameters (latency/loss/retry knobs).
        active: failure-realistic mode switch, fixed at construction.
        site_up: ``site_up[i]`` is true while site ``i`` is up.  The
            network keeps the sequence itself, not a copy, and reads it
            at every send and delivery, so a crash or a recovery written
            into it after construction takes effect at once.
        last_heard: ``last_heard[dst][src]`` is set to the current time
            whenever a message from ``src`` reaches a live ``dst`` — the
            liveness signal behind degraded-mode admission.  Read
            through the outer sequence at each delivery, so a row
            replaced after construction is the one written.
    """

    def __init__(self, sim: Simulator, streams: RandomStreams,
                 params: DistributedParameters, active: bool,
                 site_up: Sequence[bool],
                 last_heard: Sequence[List[float]]):
        self.sim = sim
        self.streams = streams
        self.params = params
        self.active = active
        self.site_up = site_up
        self.last_heard = last_heard
        # Installed by SiteFaultPlan.install(); consulted by pure time
        # comparison so partition state needs no events of its own.
        self.partitions: List[Any] = []
        # Counters (introspection only; never fed back into the model).
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.dropped_partition = 0
        self.dropped_down = 0
        self.retransmissions = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    # Datagrams
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int,
             fn: Callable[..., None], *args: Any) -> None:
        """Deliver ``fn(*args)`` at ``dst``, best-effort.

        Same-site sends never touch the network (inline call).  In
        pure-delay mode a remote send is exactly the constant-delay
        model's ``sim.post(msg_delay, fn, *args)``.
        """
        if src == dst:
            fn(*args)
            return
        if not self.active:
            # Fast path: byte-identical to the pure-delay model.
            delay = self.params.msg_delay
            if delay > 0.0:
                self.sim.post(delay, fn, *args)
            else:
                fn(*args)
            return
        self.sent += 1
        # Liveness, partitions and loss, each read or drawn only when it
        # can matter: the partition scan only while windows are
        # installed, the loss stream only for a non-zero probability.
        site_up = self.site_up
        if not (site_up[src] and site_up[dst]):
            self.dropped_down += 1
            return
        if self.partitions and self._severed(src, dst):
            self.dropped_partition += 1
            return
        params = self.params
        if (params.msg_loss_prob > 0.0
                and self.streams.bernoulli("net_loss",
                                           params.msg_loss_prob)):
            self.lost += 1
            return
        latency = params.msg_delay
        if params.msg_jitter > 0.0:
            latency += self.streams.exponential("net_jitter",
                                                params.msg_jitter)
        if latency > 0.0:
            # No handle: an in-flight message is never cancelled.
            self.sim.post(latency, self._deliver, src, dst, fn, args)
        else:
            self._deliver(src, dst, fn, args)

    def _deliver(self, src: int, dst: int,
                 fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        # The destination may have crashed while the message was in
        # flight; a down site consumes nothing.
        if not self.site_up[dst]:
            self.dropped_down += 1
            return
        self.delivered += 1
        self.last_heard[dst][src] = self.sim.now
        fn(*args)

    def _severed(self, a: int, b: int) -> bool:
        now = self.sim.now
        return any(p.severs(a, b, now) for p in self.partitions)

    # ------------------------------------------------------------------
    # Reliable exchanges
    # ------------------------------------------------------------------

    def call(self, src: int, dst: int, fn: Callable[..., None],
             *args: Any,
             on_fail: Optional[Callable[[], None]] = None
             ) -> ReliableCall:
        """Send a request that retries until settled or exhausted.

        Returns the handle the protocol layer settles when the
        matching reply arrives.  Only meaningful in failure-realistic
        mode; callers on the pure-delay path use :meth:`send`.
        """
        call = ReliableCall(src, dst, fn, tuple(args), on_fail)
        self._attempt(call)
        return call

    def _attempt(self, call: ReliableCall) -> None:
        if call.settled:
            return
        if not self.site_up[call.src]:
            # The sender crashed: its retransmitter died with it.
            call.settle()
            return
        call.attempts += 1
        if call.attempts > 1:
            self.retransmissions += 1
        self.send(call.src, call.dst, call.fn, *call.args)
        params = self.params
        timeout = (params.msg_timeout
                   * params.msg_backoff ** (call.attempts - 1))
        if timeout > params.msg_backoff_cap:
            timeout = params.msg_backoff_cap
        # No handle: a settled exchange's timeout fires as a no-op
        # rather than being cancelled.
        self.sim.post(timeout, self._timeout, call)

    def _timeout(self, call: ReliableCall) -> None:
        if call.settled:
            return
        if call.attempts >= 1 + self.params.msg_retries:
            self.expirations += 1
            on_fail = call.on_fail
            call.settle()
            if on_fail is not None:
                on_fail()
            return
        self._attempt(call)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Message counters as plain data (evidence/reporting)."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "dropped_partition": self.dropped_partition,
            "dropped_down": self.dropped_down,
            "retransmissions": self.retransmissions,
            "expirations": self.expirations,
        }
