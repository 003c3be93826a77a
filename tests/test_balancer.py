import random

import pytest

from conftest import build_sim, force_convergence
from migratenet.balancer import JobSpec, balance_step, job_makespan, optimal_joint_makespan
from migratenet.cluster import ClusterState, Topology
from migratenet.errors import NoSuchProcessError


def spawn_job(state, name, placement, work=1.0):
    members = tuple((state.spawn(node, name, work), work) for node in placement)
    return JobSpec(name, members)


# -- job_makespan ----------------------------------------------------------------

def test_single_process_alone():
    state = ClusterState(Topology.mesh(4))
    job = spawn_job(state, "J", [0])
    assert job_makespan(state, job) == 1.0


def test_packed_vs_spread():
    packed = ClusterState(Topology.mesh(4))
    job = spawn_job(packed, "J", [0, 0, 1, 1])
    assert job_makespan(packed, job) == 2.0
    spread = ClusterState(Topology.mesh(4))
    job = spawn_job(spread, "J", [0, 1, 2, 3])
    assert job_makespan(spread, job) == 1.0


def test_spread_is_optimal_against_assignment_enumeration():
    # independent oracle: enumerate all 4^4 assignments directly
    works = [1.0] * 4
    best = float("inf")
    for code in range(4 ** 4):
        assign = [(code // 4 ** i) % 4 for i in range(4)]
        occupancy = {n: assign.count(n) for n in set(assign)}
        best = min(best, max(works[i] * occupancy[assign[i]] for i in range(4)))
    assert best == 1.0
    state = ClusterState(Topology.mesh(4))
    job = spawn_job(state, "J", [0, 1, 2, 3])
    assert job_makespan(state, job) == best
    assert optimal_joint_makespan([job], 4) == best


def test_congestion_counts_other_jobs_processes():
    state = ClusterState(Topology.mesh(2))
    job = spawn_job(state, "J", [0])
    state.spawn(0, "other")
    assert job_makespan(state, job) == 2.0


def test_makespan_unknown_process():
    state = ClusterState(Topology.mesh(2))
    job = spawn_job(state, "J", [0])
    other = ClusterState(Topology.mesh(2))
    with pytest.raises(NoSuchProcessError):
        job_makespan(other, job)


# -- balance_step -----------------------------------------------------------------

def test_balanced_cluster_is_a_fixpoint():
    sim = build_sim(nodes=4)
    for n in range(4):
        sim.cluster.spawn(n)
    sim.converge()
    assert balance_step(sim.cluster) == []


def test_two_crowded_nodes_spill_onto_idle_ones():
    sim = build_sim(nodes=6)
    job_a = spawn_job(sim.cluster, "A", [0, 0, 2])
    job_b = spawn_job(sim.cluster, "B", [1, 1, 3])
    before = max(job_makespan(sim.cluster, j) for j in (job_a, job_b))
    moves = []
    for _ in range(10):
        sim.converge()
        step = balance_step(sim.cluster)
        if not step:
            break
        moves.extend(step)
    after = max(job_makespan(sim.cluster, j) for j in (job_a, job_b))
    assert after < before
    assert {(m.src, m.dst) for m in moves} == {(0, 4), (1, 5)}
    assert max(sim.cluster.resident_count(n) for n in range(6)) == 1


def test_never_moves_to_a_node_believed_more_loaded_than_self():
    for seed in range(15):
        rng = random.Random(seed)
        sim = build_sim(nodes=6, seed=seed)
        for _ in range(8):
            sim.cluster.spawn(rng.randrange(6), work=rng.choice([0.5, 1.0, 2.0]))
        for _ in range(rng.randrange(4)):   # possibly stale views
            from migratenet.gossip import gossip_round
            gossip_round(sim.cluster, sim.rng)
        views = [b.load_view() for b in sim.cluster.bulletins]
        moves = balance_step(sim.cluster)
        for m in moves:
            view = views[m.src]
            assert view[m.dst] <= view[m.src]


def test_lyapunov_descent_under_converged_views():
    for seed in range(10):
        rng = random.Random(seed)
        sim = build_sim(nodes=5, seed=seed)
        works = []
        for _ in range(7):
            w = rng.choice([0.5, 1.0, 2.0, 4.0])
            works.append(w)
            sim.cluster.spawn(rng.randrange(5), work=w)

        def max_load():
            return max(sim.cluster.node_load(n) for n in range(5))

        for _ in range(50):
            force_convergence(sim.cluster)
            before = max_load()
            step = balance_step(sim.cluster)
            assert max_load() <= before
            if not step:
                break
        loads = [sim.cluster.node_load(n) for n in range(5)]
        assert max(loads) - min(loads) <= max(works) + 0.0


def test_iterated_balancing_within_2x_of_enumerated_optimum():
    for seed in range(8):
        rng = random.Random(100 + seed)
        sim = build_sim(nodes=6, seed=seed)
        jobs = []
        placement = [rng.randrange(6) for _ in range(8)]
        job = spawn_job(sim.cluster, "J", placement,
                        work=rng.choice([1.0, 2.0]))
        jobs.append(job)
        for _ in range(50):
            force_convergence(sim.cluster)
            if not balance_step(sim.cluster):
                break
        achieved = max(job_makespan(sim.cluster, j) for j in jobs)
        optimum = optimal_joint_makespan(jobs, 6)
        assert achieved <= 2 * optimum
