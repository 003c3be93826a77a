"""Greedy load balancing over the gossiped load view, plus a synchronous-phase
job model for measuring how placement affects completion time.

A process's phase time is its work multiplied by how many processes share its
node, so a job is only as fast as its most crowded member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import ClusterState, GPid, MigrationEvent


@dataclass(frozen=True)
class JobSpec:
    job: str
    members: tuple[tuple[GPid, float], ...]   # (pid, work in the job's one phase)

    def __post_init__(self):
        if any(work <= 0 for _, work in self.members):
            raise ValueError("member work must be > 0")


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


def job_makespan(state: ClusterState, job: JobSpec) -> float:
    """Completion time of a synchronous job: every member runs for work x
    (residents on its node), and the job lasts as long as the slowest
    member."""
    phase = 0.0
    for pid, work in job.members:
        node = state.residency(pid)
        phase = max(phase, work * state.resident_count(node))
    return phase


def optimal_joint_makespan(jobs: list[JobSpec], node_count: int) -> float:
    """Brute-force minimum over all placements of max-over-jobs makespan.

    Enumerates set partitions of the combined member list into at most
    `node_count` groups (nodes are interchangeable under the homogeneous
    congestion model).  Intended for small instances only.
    """
    members: list[tuple[str, float]] = []
    for job in jobs:
        for pid, work in job.members:
            members.append((job.job, work))
    if not members:
        return 0.0

    best = float("inf")

    def evaluate(assignment: list[int]) -> float:
        occupancy: dict[int, int] = {}
        for group in assignment:
            occupancy[group] = occupancy.get(group, 0) + 1
        worst = 0.0
        for job in jobs:
            phase = 0.0
            for idx, (name, work) in enumerate(members):
                if name == job.job:
                    phase = max(phase, work * occupancy[assignment[idx]])
            worst = max(worst, phase)
        return worst

    assignment = [0] * len(members)

    def recurse(i: int, groups_used: int) -> None:
        nonlocal best
        if i == len(members):
            best = min(best, evaluate(assignment))
            return
        for group in range(min(groups_used + 1, node_count)):
            assignment[i] = group
            recurse(i + 1, max(groups_used, group + 1))

    recurse(0, 0)
    return best
