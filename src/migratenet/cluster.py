"""Cluster ground truth: the node count and process residency.

The home node of a process is fixed at spawn time and is part of its global
id.  A home answers where its processes run from ground truth (`residency`),
so a home lookup is never stale; there is no registry to keep in step.
Gossip bulletins (see :mod:`migratenet.gossip`) carry the *rumored*
locations and are allowed to lag.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import BadNodeError, NoSuchProcessError
from .gossip import Bulletin
from .simcore import NODE_COUNT, check

NodeId = int


class GPid(NamedTuple):
    """Cluster-wide process id; `home` never changes, however often the
    process migrates.  A named tuple, so hashing and ordering run in C and
    match ``(home, seq)``."""
    home: NodeId
    seq: int

    def __str__(self) -> str:
        return f"{self.home}:{self.seq}"


class ProcessRecord:
    """Where a process runs, its job and its work.  Slotted: a send reads
    `current` for each end."""
    __slots__ = ("current", "job", "work")

    def __init__(self, current: NodeId, job: str, work: float = 1.0):
        self.current = current
        self.job = job
        self.work = work


class MigrationEvent(NamedTuple):
    pid: GPid
    src: NodeId
    dst: NodeId


class Topology(NamedTuple):
    """Cluster size, built by `mesh`, which holds `nodes` to `NODE_COUNT`.

    Any node exchanges frames with any other, each at the cost of one hop,
    as in a MOSIX cluster over TCP/IP; so a cluster is its node count.
    """
    nodes: int

    @classmethod
    def mesh(cls, nodes: int) -> "Topology":
        return cls(check(nodes, NODE_COUNT, "topology.nodes"))


class ClusterState:
    """Mutable ground truth for one simulated cluster.

    Single-writer: all mutation happens on the simulation thread that owns
    the instance.
    """

    def __init__(self, topology: Topology):
        self.node_count = n = topology.nodes
        self.resident: list[set[GPid]] = [set() for _ in range(n)]
        self.procs: dict[GPid, ProcessRecord] = {}
        self.bulletins: list[Bulletin] = [Bulletin(owner=i) for i in range(n)]
        self.gossip_rounds = 0
        self._next_seq = [0] * n
        self._publish_serial = 0
        for i in range(n):
            self.bulletins[i].publish_load(0.0, self.stamp())

    def stamp(self) -> int:
        """A publication serial, greater than every one handed out before it."""
        self._publish_serial += 1
        return self._publish_serial

    def _check_node(self, n: NodeId) -> None:
        if not (isinstance(n, int) and 0 <= n < self.node_count):
            raise BadNodeError(f"node {n!r} not in 0..{self.node_count - 1}")

    def spawn(self, home: NodeId, job: str = "job", work: float = 1.0) -> GPid:
        """Create a process at `home`; publishes its location and the home's
        new load in the home bulletin."""
        self._check_node(home)
        if work < 0:
            raise ValueError("work must be non-negative")
        pid = GPid(home, self._next_seq[home])
        self._next_seq[home] += 1
        self.procs[pid] = ProcessRecord(home, job, work)
        self.resident[home].add(pid)
        self.bulletins[home].publish_location(pid, home, self.stamp())
        self.bulletins[home].publish_load(self.node_load(home), self.stamp())
        return pid

    def migrate(self, pid: GPid, to: NodeId) -> Optional[MigrationEvent]:
        """Move a running process.  Moving to the current node is a no-op and
        returns None."""
        src = self.residency(pid)
        self._check_node(to)
        if src == to:
            return None
        self.resident[src].discard(pid)
        self.resident[to].add(pid)
        self.procs[pid].current = to
        # the hosting node learns arrivals first-hand; both ends republish load
        self.bulletins[to].publish_location(pid, to, self.stamp())
        self.bulletins[to].publish_load(self.node_load(to), self.stamp())
        self.bulletins[src].publish_load(self.node_load(src), self.stamp())
        return MigrationEvent(pid, src, to)

    def residency(self, pid: GPid) -> NodeId:
        """The node pid runs on: what its home answers, never stale."""
        rec = self.procs.get(pid)
        if rec is None:
            raise NoSuchProcessError(f"process {pid}")
        return rec.current

    def node_load(self, n: NodeId) -> float:
        self._check_node(n)
        return sum(self.procs[pid].work for pid in self.resident[n])

    def resident_count(self, n: NodeId) -> int:
        self._check_node(n)
        return len(self.resident[n])
