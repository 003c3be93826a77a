import itertools
import random

from conftest import build_sim, force_convergence
from migratenet.balancer import balance_step, job_makespan, optimal_joint_makespan
from migratenet.cluster import ClusterState, Topology


def spawn_job(state, name, placement, work=1.0):
    for node in placement:
        state.spawn(node, name, work)
    return name


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
    assert optimal_joint_makespan(state) == best


def test_congestion_counts_other_jobs_processes():
    state = ClusterState(Topology.mesh(2))
    job = spawn_job(state, "J", [0])
    state.spawn(0, "other")
    assert job_makespan(state, job) == 2.0


def test_job_no_process_names_has_makespan_zero():
    state = ClusterState(Topology.mesh(2))
    spawn_job(state, "J", [0])
    assert job_makespan(state, "absent") == 0.0
    assert job_makespan(ClusterState(Topology.mesh(2)), "J") == 0.0
    assert optimal_joint_makespan(ClusterState(Topology.mesh(2))) == 0.0


def test_makespan_reads_each_process_stored_work():
    state = ClusterState(Topology.mesh(3))
    state.spawn(0, "J", 0.5)
    state.spawn(1, "J", 2.0)
    other = state.spawn(1, "K", 0.0)
    assert job_makespan(state, "J") == 4.0   # 2.0 x node 1's two residents, one of K's
    assert job_makespan(state, "K") == 0.0
    state.migrate(other, 2)
    assert job_makespan(state, "J") == 2.0
    state.spawn(2, "J", 3.0)
    assert job_makespan(state, "J") == 6.0   # 3.0 x node 2's two residents, one of K's


def oracle_joint_makespan(members, node_count):
    """Minimum over every assignment of (job, work) members to nodes of the
    max over jobs of each job's makespan, the max over its own members: the
    definition that `optimal_joint_makespan`'s max over all processes and its
    dynamic program over the sorted works must agree with."""
    jobs = [[i for i, (name, _) in enumerate(members) if name == job]
            for job in sorted({name for name, _ in members})]
    works = [work for _, work in members]
    best = float("inf")
    for assign in itertools.product(range(node_count), repeat=len(members)):
        best = min(best, max(max(works[i] * assign.count(assign[i]) for i in job)
                             for job in jobs))
    return best


def test_joint_makespan_matches_per_job_oracle_on_small_instances():
    for seed in range(12):   # up to 6^7 assignments each, about 2 s in all
        rng = random.Random(seed)
        nodes = rng.randint(3, 6)
        jobs = ["J%d" % j for j in range(rng.randint(2, 3))]
        members = [(rng.choice(jobs), rng.choice([0.0, 0.5, 1.0, 2.0]))
                   for _ in range(rng.randint(4, 7))]
        state = ClusterState(Topology.mesh(nodes))
        for job, work in members:
            state.spawn(rng.randrange(nodes), job, work)
        assert optimal_joint_makespan(state) == oracle_joint_makespan(members, nodes), seed


def greedy_runs(works, threshold):
    """The sorted `works` cut into runs by greedy packing under `threshold`,
    which is at least the largest work: the largest remaining work w takes
    the next works while w x count stays within it.  Each run is a node's
    residents, and costs its first work x its length."""
    runs, i = [], 0
    while i < len(works):
        count = 1
        while i + count < len(works) and works[i] * (count + 1) <= threshold:
            count += 1
        runs.append(works[i:i + count])
        i += count
    return runs


def test_joint_makespan_matches_greedy_packing_oracle_on_large_instances():
    # far past any enumeration: 40-45 processes into 16-20 nodes.  The optimum
    # is some work x count, the least that holds the largest work and for
    # which greedy packing fits the nodes
    for seed in range(8):
        rng = random.Random(seed)
        nodes = rng.randint(16, 20)
        values = [0.0, 0.5, 1.0, 2.0, 3.5] if seed % 2 else [rng.uniform(0, 4) for _ in range(45)]
        works = sorted((rng.choice(values) for _ in range(rng.randint(40, 45))), reverse=True)
        state = ClusterState(Topology.mesh(nodes))
        for work in works:
            state.spawn(rng.randrange(nodes), "J%d" % rng.randrange(3), work)
        oracle = min(work * k for work in works for k in range(1, len(works) + 1)
                     if work * k >= works[0] and len(greedy_runs(works, work * k)) <= nodes)
        assert optimal_joint_makespan(state) == oracle, seed
        placed = ClusterState(Topology.mesh(nodes))
        for node, run in enumerate(greedy_runs(works, oracle)):
            for work in run:
                placed.spawn(node, "J%d" % rng.randrange(3), work)
        assert max(job_makespan(placed, job) for job in ("J0", "J1", "J2")) == oracle, seed


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
        views = [b.load_view(sim.cluster.node_count) for b in sim.cluster.bulletins]
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
        placement = [rng.randrange(6) for _ in range(8)]
        job = spawn_job(sim.cluster, "J", placement,
                        work=rng.choice([1.0, 2.0]))
        for _ in range(50):
            force_convergence(sim.cluster)
            if not balance_step(sim.cluster):
                break
        achieved = job_makespan(sim.cluster, job)
        optimum = optimal_joint_makespan(sim.cluster)
        assert achieved <= 2 * optimum
