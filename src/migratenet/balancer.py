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
        view = state.bulletins[node].load_view()
        if not view:
            continue
        target, believed = min(view.items(), key=lambda kv: (kv[1], kv[0]))
        if target == node or target in received:
            continue
        candidate = min(state.resident[node],
                        key=lambda pid: (state.procs[pid].work, pid.home, pid.seq))
        work = state.procs[candidate].work
        if state.node_load(node) - (believed + work) > 0.0:
            event = state.migrate(candidate, target)
            if event is not None:
                moves.append(event)
                received.add(target)
    return moves


def job_makespan(state: ClusterState, job: str) -> float:
    """Completion time of a synchronous job: every member runs for work x
    (residents on its node), and the job lasts as long as the slowest
    member.  A job that no process names takes 0.0."""
    return max((rec.work * state.resident_count(rec.current)
                for rec in state.procs.values() if rec.job == job), default=0.0)


def optimal_joint_makespan(state: ClusterState) -> float:
    """Brute-force minimum over all placements of max-over-jobs makespan.

    Each job's makespan is the max over its members, so the max over jobs is
    the max over all processes.  Enumerates set partitions of the processes
    into at most `state.node_count` groups (nodes are interchangeable under
    the homogeneous congestion model).  Intended for small instances only.
    """
    works = [rec.work for rec in state.procs.values()]
    if not works:
        return 0.0

    best = float("inf")

    def evaluate(assignment: list[int]) -> float:
        occupancy: dict[int, int] = {}
        for group in assignment:
            occupancy[group] = occupancy.get(group, 0) + 1
        return max(work * occupancy[group] for work, group in zip(works, assignment))

    assignment = [0] * len(works)

    def recurse(i: int, groups_used: int) -> None:
        nonlocal best
        if i == len(works):
            best = min(best, evaluate(assignment))
            return
        for group in range(min(groups_used + 1, state.node_count)):
            assignment[i] = group
            recurse(i + 1, max(groups_used, group + 1))

    recurse(0, 0)
    return best
