"""Greedy load balancing over the gossiped load view, plus a synchronous-phase
job model for measuring how placement affects completion time.

A job is the processes whose record names it (`spawn(home, job, work)`).  A
process's phase time is its stored work multiplied by how many processes share
its node, so a job is only as fast as its most crowded member.
"""

from __future__ import annotations

from .cluster import ClusterState, MigrationEvent


def balance_step(state: ClusterState) -> list[MigrationEvent]:
    """One balancing pass: each node, in index order, consults its own
    bulletin and offloads its smallest process to the least-loaded node it
    knows of.

    A move happens only when it actually helps: the believed target load plus
    the moved work must be below the sender's true load.  A node accepts at
    most one immigrant per step, which keeps several senders from dog-piling
    the same idle node on one stale view.
    Ties pick the lowest target node id, then the lowest (home, seq) pid.
    """
    moves: list[MigrationEvent] = []
    received: set[int] = set()
    for node in range(state.node_count):
        if not state.resident[node]:
            continue
        view = state.bulletins[node].load_view(state.node_count)   # has node's own load
        target, believed = min(view.items(), key=lambda kv: (kv[1], kv[0]))
        if target == node or target in received:
            continue
        candidate = min(state.resident[node],
                        key=lambda pid: (state.procs[pid].work, pid.home, pid.seq))
        work = state.procs[candidate].work
        if state.node_load(node) - (believed + work) > 0.0:
            moves.append(state.migrate(candidate, target))   # target != node: never None
            received.add(target)
    return moves


def job_makespan(state: ClusterState, job: str) -> float:
    """Completion time of a synchronous job: every member runs for work x
    (residents on its node), and the job lasts as long as the slowest
    member.  A job that no process names takes 0.0."""
    return max((rec.work * state.resident_count(rec.current)
                for rec in state.procs.values() if rec.job == job), default=0.0)


def optimal_joint_makespan(state: ClusterState) -> float:
    """Exact minimum over all placements of the max-over-jobs makespan.

    Each job's makespan is the max over its members, so the max over jobs is
    the max over all processes, and a node costs its largest work x its
    resident count.  Nodes are interchangeable, so some optimal placement
    gives the node of the largest work the next-largest works: swapping a
    larger work in from another node leaves that node's cost unchanged and
    can only lower the other's.  Repeating on the rest, nodes hold runs of
    consecutive works sorted in descending order.  `best[j]` is the least
    cost of the `j` largest works on the nodes allowed so far; each pass
    allows one more node.  O(nodes x processes^2).
    """
    works = sorted((rec.work for rec in state.procs.values()), reverse=True)
    best = [0.0] + [float("inf")] * len(works)
    for _ in range(min(state.node_count, len(works))):
        best = [0.0] + [min(best[j], *(max(best[i], works[i] * (j - i)) for i in range(j)))
                        for j in range(1, len(works) + 1)]
    return best[-1]
