"""Unit tests for the message-passing network model."""

from __future__ import annotations

import pytest

from repro.distributed.config import DistributedParameters
from repro.distributed.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class _LiveSites(set):
    """The set of up sites, read by the network as ``site_up[site]``."""

    def __getitem__(self, site):
        return site in self


class _HeardRow:
    """A ``last_heard`` row that logs each stamp as ``(dst, src)``."""

    def __init__(self, log, dst):
        self._log = log
        self._dst = dst

    def __setitem__(self, src, now):
        self._log.append((self._dst, src))


class _Harness:
    """A network plus the scaffolding its callbacks need."""

    def __init__(self, active=True, seed=11, up=None, **overrides):
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.params = DistributedParameters(num_sites=4, **overrides)
        self.up = _LiveSites(range(4) if up is None else up)
        self.deliveries = []
        self.payloads = []
        self.net = Network(
            self.sim, self.streams, self.params, active,
            site_up=self.up,
            last_heard=[_HeardRow(self.deliveries, dst) for dst in range(4)])

    def receive(self, *args):
        self.payloads.append((self.sim.now, args))


def test_same_site_send_is_inline():
    h = _Harness()
    h.net.send(2, 2, h.receive, "x")
    assert h.payloads == [(0.0, ("x",))]
    assert h.net.sent == 0          # never touched the network


def test_pure_delay_fast_path_is_original_model():
    """With the failure model off, a remote send is one calendar event
    ``msg_delay`` out, no counters, and no random-stream consumption."""
    h = _Harness(active=False, msg_delay=0.01,
                 msg_loss_prob=0.5, msg_jitter=0.1)
    for _ in range(20):
        h.net.send(0, 1, h.receive)
    h.sim.run()
    assert len(h.payloads) == 20
    assert all(t == 0.01 for t, _ in h.payloads)
    assert h.net.stats() == {k: 0 for k in h.net.stats()}
    # The loss/jitter substreams were never drawn from: a fresh streams
    # object with the same seed yields the same next values.
    fresh = RandomStreams(11)
    assert (h.streams.exponential("net_jitter", 1.0)
            == fresh.exponential("net_jitter", 1.0))
    assert (h.streams.bernoulli("net_loss", 0.5)
            == fresh.bernoulli("net_loss", 0.5))


def test_certain_loss_loses_every_datagram():
    h = _Harness(msg_loss_prob=0.999999, msg_delay=0.0)
    for _ in range(50):
        h.net.send(0, 1, h.receive)
    h.sim.run()
    assert h.net.lost == 50
    assert h.payloads == []
    assert h.deliveries == []


def test_down_endpoint_drops_without_consuming_randomness():
    h = _Harness(up={0, 2, 3}, msg_loss_prob=0.5)
    h.net.send(0, 1, h.receive)     # destination down
    h.net.send(1, 0, h.receive)     # source down
    h.sim.run()
    assert h.net.dropped_down == 2
    fresh = RandomStreams(11)
    assert (h.streams.bernoulli("net_loss", 0.5)
            == fresh.bernoulli("net_loss", 0.5))


def test_destination_crash_while_in_flight_drops():
    h = _Harness(msg_delay=0.05)
    h.net.send(0, 1, h.receive)
    h.up.discard(1)                 # crashes before delivery
    h.sim.run()
    assert h.payloads == []
    assert h.net.dropped_down == 1


def test_partition_severs_cross_group_pairs_only():
    h = _Harness(msg_delay=0.0)

    class Window:
        def severs(self, a, b, now):
            return {a, b} == {0, 3}
    h.net.partitions.append(Window())
    h.net.send(0, 3, h.receive)     # severed
    h.net.send(3, 0, h.receive)     # severed (symmetric)
    h.net.send(0, 1, h.receive)     # same side: flows
    h.sim.run()
    assert h.net.dropped_partition == 2
    assert len(h.payloads) == 1


def test_jitter_latency_is_deterministic_by_seed():
    def delivery_times(seed):
        h = _Harness(seed=seed, msg_delay=0.001, msg_jitter=0.002)
        for _ in range(10):
            h.net.send(0, 1, h.receive)
        h.sim.run()
        return [t for t, _ in h.payloads]

    first = delivery_times(5)
    assert first == delivery_times(5)
    assert first != delivery_times(6)
    assert all(t >= 0.001 for t in first)      # jitter only adds
    assert len(set(first)) > 1                 # and actually varies


def test_reliable_call_gives_up_after_retries():
    h = _Harness(msg_loss_prob=0.999999, msg_retries=2,
                 msg_timeout=0.25, msg_backoff=2.0, msg_backoff_cap=2.0)
    failures = []
    call = h.net.call(0, 1, h.receive, on_fail=lambda: failures.append(
        h.sim.now))
    h.sim.run()
    assert call.settled
    assert call.attempts == 3                  # 1 send + 2 retransmits
    assert h.net.retransmissions == 2
    assert h.net.expirations == 1
    # Bounded exponential backoff: 0.25 + 0.5 + 1.0.
    assert failures == [pytest.approx(1.75)]


def test_backoff_is_capped():
    h = _Harness(msg_loss_prob=0.999999, msg_retries=4,
                 msg_timeout=0.25, msg_backoff=2.0, msg_backoff_cap=1.0)
    failures = []
    h.net.call(0, 1, h.receive, on_fail=lambda: failures.append(h.sim.now))
    h.sim.run()
    # 0.25 + 0.5 + 1.0 + 1.0 + 1.0: the cap binds from attempt 3 on.
    assert failures == [pytest.approx(3.75)]


def test_settled_call_stops_retransmitting():
    h = _Harness(msg_loss_prob=0.0, msg_delay=0.0, msg_retries=4)
    call = h.net.call(0, 1, h.receive)
    call.settle()                   # protocol layer matched the reply
    h.sim.run()
    assert len(h.payloads) == 1
    assert h.net.retransmissions == 0
    assert h.net.expirations == 0


def test_sender_crash_silences_its_calls():
    h = _Harness(msg_loss_prob=0.999999, msg_retries=4, msg_timeout=0.1)
    failures = []
    call = h.net.call(0, 1, h.receive,
                      on_fail=lambda: failures.append(h.sim.now))
    h.up.discard(0)                 # sender crashes mid-exchange
    h.sim.run()
    assert call.settled
    assert failures == []           # the retransmitter died with it


def test_liveness_is_read_live_from_the_sequence_given():
    """The network keeps the ``site_up`` list and the ``last_heard``
    matrix it was built with: a site taken down afterwards drops new
    sends to and from it and messages already in flight to it, and a
    delivery stamps the row in place at the time of delivery."""
    sim = Simulator()
    params = DistributedParameters(num_sites=4, msg_delay=0.05)
    site_up = [True] * 4
    last_heard = [[0.0] * 4 for _ in range(4)]
    net = Network(sim, RandomStreams(3), params, True, site_up, last_heard)
    got = []
    net.send(0, 1, got.append, "in flight")
    site_up[1] = False              # crashes after the send
    net.send(0, 1, got.append, "to down")
    net.send(1, 2, got.append, "from down")
    net.send(0, 3, got.append, "live")
    last_heard[3] = [-1.0] * 4      # a row replaced after construction
    sim.run()
    assert got == ["live"]
    assert net.stats() == {"sent": 4, "delivered": 1, "lost": 0,
                           "dropped_partition": 0, "dropped_down": 3,
                           "retransmissions": 0, "expirations": 0}
    assert last_heard[3] == [0.05, -1.0, -1.0, -1.0]
    assert last_heard[1] == [0.0] * 4
    site_up[1] = True               # recovers: traffic flows again
    net.send(0, 1, got.append, "after recovery")
    sim.run()
    assert got == ["live", "after recovery"]
    assert last_heard[1][0] == pytest.approx(0.10)
