"""Per-site load control and the load-control-deadlock question.

Section 5 of the paper warns that distributed load control must prevent
*load control deadlocks*: if executing a transaction required admission
capacity at several sites simultaneously, two sites could each hold
half of what two transactions need and refuse to yield — an admission
analogue of a lock deadlock.

The scheme implemented here avoids the problem structurally:

* admission happens **only at the home site** — a transaction waits in
  exactly one external ready queue, never in two;
* remote page operations are never admission-controlled — once a
  transaction is active, its remote lock requests and I/Os proceed
  subject only to ordinary lock and resource queueing.

Because no transaction ever holds one site's admission slot while
waiting for another's, the admission-wait graph has out-degree zero and
can't form cycles.  The price is that a site cannot shed load caused by
*remote* transactions hammering its partition through admission refusal
alone — its controller can, however, still abort blocked local
transactions, and lock-level corrective action remains global.

Each site runs an ordinary single-site controller
(:class:`repro.core.half_and_half.HalfAndHalfController` by default)
over the transactions homed at it; :class:`PerSiteControllerSet` owns
the per-site instances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.control.base import LoadController
from repro.control.fixed_mpl import FixedMPLController
from repro.control.no_control import NoControlController
from repro.core.half_and_half import HalfAndHalfController
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.transaction import Transaction
    from repro.distributed.system import DistributedSystem
    from repro.telemetry.decisions import DecisionLog

__all__ = ["PerSiteControllerSet", "make_half_and_half_sites",
           "make_no_control_sites", "make_fixed_mpl_sites"]

ControllerFactory = Callable[[], LoadController]


class PerSiteControllerSet:
    """One independent load controller per site.

    The system drives the set through the eight lifecycle hooks of
    :class:`~repro.control.base.LoadController`; each hook goes to the
    controller of the transaction's home site.
    """

    def __init__(self, controllers: Sequence[LoadController]):
        if not controllers:
            raise ConfigurationError("need at least one site controller")
        self.controllers: List[LoadController] = list(controllers)
        # The system bound by attach(), as on LoadController.
        self.system: Optional["DistributedSystem"] = None
        # Each terminal's home-site controller, bound by attach().
        self._by_terminal: List[LoadController] = []
        # The decision log telemetry installs, as on LoadController:
        # shared by the site controllers and the system's failure events.
        self.decision_log: Optional["DecisionLog"] = None

    def __len__(self) -> int:
        return len(self.controllers)

    def attach(self, system: "DistributedSystem") -> None:
        """Attach each site's controller to that site's view."""
        self.system = system
        for view, controller in zip(system.site_views, self.controllers):
            controller.attach(view)
        self._by_terminal = [self.controllers[home]
                             for home in system.terminal_home]

    def on_decision_log_attached(self) -> None:
        """Hand the decision log to every site's controller, tagging
        each ``@siteN`` so the shared log stays attributable."""
        for i, controller in enumerate(self.controllers):
            controller.name_suffix = f"@site{i}"
            controller.decision_log = self.decision_log
            controller.on_decision_log_attached()

    def want_admit(self, txn: "Transaction") -> bool:
        return self._by_terminal[txn.terminal_id].want_admit(txn)

    def on_admit(self, txn: "Transaction") -> None:
        self._by_terminal[txn.terminal_id].on_admit(txn)

    def on_lock_granted(self, txn: "Transaction") -> None:
        self._by_terminal[txn.terminal_id].on_lock_granted(txn)

    def on_block(self, txn: "Transaction") -> None:
        self._by_terminal[txn.terminal_id].on_block(txn)

    def on_unblock(self, txn: "Transaction") -> None:
        self._by_terminal[txn.terminal_id].on_unblock(txn)

    def on_commit(self, txn: "Transaction") -> None:
        self._by_terminal[txn.terminal_id].on_commit(txn)

    def on_abort(self, txn: "Transaction", reason: str) -> None:
        self._by_terminal[txn.terminal_id].on_abort(txn, reason)

    def on_removed(self, txn: "Transaction") -> None:
        self._by_terminal[txn.terminal_id].on_removed(txn)

    @property
    def name(self) -> str:
        # base_name, not name: telemetry tags each instance with an
        # ``@siteN`` display suffix, which must not leak into the
        # result-identifying controller name.
        names = {c.base_name for c in self.controllers}
        if len(names) == 1:
            return f"PerSite({names.pop()} x{len(self.controllers)})"
        return "PerSite(" + ", ".join(c.base_name
                                      for c in self.controllers) + ")"


def make_half_and_half_sites(num_sites: int,
                             **kwargs) -> PerSiteControllerSet:
    """A Half-and-Half controller per site (kwargs passed through)."""
    return PerSiteControllerSet(
        [HalfAndHalfController(**kwargs) for _ in range(num_sites)])


def make_no_control_sites(num_sites: int) -> PerSiteControllerSet:
    """Unlimited admission at every site (the thrashing baseline)."""
    return PerSiteControllerSet(
        [NoControlController() for _ in range(num_sites)])


def make_fixed_mpl_sites(num_sites: int, mpl: int) -> PerSiteControllerSet:
    """A fixed per-site MPL limit (the static baseline the failure
    figure compares degraded-mode H&H against)."""
    return PerSiteControllerSet(
        [FixedMPLController(mpl) for _ in range(num_sites)])
