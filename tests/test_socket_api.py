import hashlib
import random

import pytest

from conftest import PINS, build_sim, place_pair
from migratenet.bench import Simulation
from migratenet.cluster import GPid, Topology
from migratenet.errors import (AddressInUseError, BadSizeError, BadStateError,
                               NoSuchProcessError, WouldBlockError)
from migratenet.gossip import gossip_round
from migratenet.simcore import TransportKind
from migratenet.socket_api import SocketStack, SocketState


def stack_with_pair(transport=TransportKind.DIRECT, migrated=False, seed=0):
    sim = build_sim(seed=seed)
    a, b = place_pair(sim, 0, 1, 2 if migrated else None, 3 if migrated else None)
    sim.converge()
    stack = SocketStack(sim.cluster, sim.router, sim.queue)
    return sim, stack, a, b


def established_pair(transport=TransportKind.DIRECT, migrated=False, seed=0):
    sim, stack, a, b = stack_with_pair(transport, migrated, seed)
    listener = stack.socket(b, transport)
    stack.bind(listener, 5000)
    stack.listen(listener)
    client = stack.socket(a, transport)
    stack.connect(client, b, 5000)
    sim.queue.run()
    server = stack.accept(listener)
    assert client.state is SocketState.ESTABLISHED
    assert server.state is SocketState.ESTABLISHED
    return sim, stack, client, server


# -- lifecycle ----------------------------------------------------------------

def test_socket_starts_closed_with_distinct_ids():
    _, stack, a, _ = stack_with_pair()
    h1 = stack.socket(a, TransportKind.DIRECT)
    h2 = stack.socket(a, TransportKind.DIRECT)
    assert h1.state is SocketState.CLOSED and h2.state is SocketState.CLOSED
    assert h1.id != h2.id


def test_socket_for_unknown_process():
    _, stack, _, _ = stack_with_pair()
    with pytest.raises(NoSuchProcessError):
        stack.socket(GPid(5, 5), TransportKind.DIRECT)


def test_bind_listen_transitions():
    _, stack, a, _ = stack_with_pair()
    h = stack.socket(a)
    stack.bind(h, 5000)
    assert h.state is SocketState.BOUND
    stack.listen(h)
    assert h.state is SocketState.LISTENING


def test_bind_same_port_twice_same_owner():
    _, stack, a, _ = stack_with_pair()
    stack.bind(stack.socket(a), 5000)
    with pytest.raises(AddressInUseError):
        stack.bind(stack.socket(a), 5000)


def test_same_port_is_fine_for_different_owners():
    _, stack, a, b = stack_with_pair()
    stack.bind(stack.socket(a), 5000)
    stack.bind(stack.socket(b), 5000)   # per-process namespace


def test_listen_unbound_is_bad_state():
    _, stack, a, _ = stack_with_pair()
    with pytest.raises(BadStateError):
        stack.listen(stack.socket(a))


# -- connect / accept -----------------------------------------------------------

def test_handshake_establishes_both_ends_after_round_trip():
    sim, stack, a, b = stack_with_pair()
    listener = stack.socket(b)
    stack.bind(listener, 5000)
    stack.listen(listener)
    client = stack.socket(a)
    stack.connect(client, b, 5000)
    assert client.state is SocketState.CONNECTING
    sim.queue.run()
    assert client.state is SocketState.ESTABLISHED
    server = stack.accept(listener)
    assert server.state is SocketState.ESTABLISHED
    assert server.peer == (a, client.local_port)
    assert listener.state is SocketState.LISTENING
    assert sim.queue.now > 0.0   # the round trip took simulated time


def test_connect_refused_when_nobody_listens():
    sim, stack, a, b = stack_with_pair()
    client = stack.socket(a)
    stack.connect(client, b, 4242)
    sim.queue.run()
    assert client.state is SocketState.CLOSED
    assert client.last_error == "E_CONN_REFUSED"


def test_connect_unknown_process():
    _, stack, a, _ = stack_with_pair()
    with pytest.raises(NoSuchProcessError):
        stack.connect(stack.socket(a), GPid(4, 4), 1)


def test_accept_without_pending_would_block():
    _, stack, _, b = stack_with_pair()
    listener = stack.socket(b)
    stack.bind(listener, 5000)
    stack.listen(listener)
    with pytest.raises(WouldBlockError):
        stack.accept(listener)


def test_accept_takes_many_pending_connections_in_connect_order():
    # 2,000 handshakes complete before the first accept: each accept takes
    # the oldest pending connection, whose peer is the next client connected
    sim, stack, a, b = stack_with_pair()
    listener = stack.socket(b)
    stack.bind(listener, 5000)
    stack.listen(listener)
    clients = [stack.socket(a) for _ in range(2000)]
    for client in clients:
        stack.connect(client, b, 5000)
    sim.queue.run()
    accepted = [stack.accept(listener) for _ in clients]
    assert [server.peer_handle for server in accepted] == [client.id for client in clients]
    assert stack.select([listener]) == []
    with pytest.raises(WouldBlockError):
        stack.accept(listener)


def test_accept_on_non_listening_socket():
    _, stack, a, _ = stack_with_pair()
    with pytest.raises(BadStateError):
        stack.accept(stack.socket(a))


def test_connect_survives_migration_mid_handshake():
    sim, stack, a, b = stack_with_pair()
    listener = stack.socket(b)
    stack.bind(listener, 5000)
    stack.listen(listener)
    client = stack.socket(a)
    stack.connect(client, b, 5000)
    sim.cluster.migrate(b, 5)   # peer moves while the request is in flight
    sim.queue.run()
    assert client.state is SocketState.ESTABLISHED
    assert stack.accept(listener).state is SocketState.ESTABLISHED


# -- send / recv ------------------------------------------------------------------

def test_send_recv_round_trip():
    sim, stack, client, server = established_pair()
    client_sent = stack.send(client, 1024)
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.recv(server, 4096) == 1024


def test_recv_empty_queue_returns_zero():
    _, stack, client, _ = established_pair()
    assert stack.recv(client, 100) == 0


def test_recv_before_arrival_time_returns_zero():
    sim, stack, client, server = established_pair()
    stack.send(client, 1024)
    assert stack.recv(server, 4096) == 0        # nothing has arrived yet
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.recv(server, 4096) == 1024


def test_order_preserved_across_100_sends():
    sim, stack, client, server = established_pair()
    sizes = [100 + i for i in range(100)]
    for s in sizes:
        stack.send(client, s)
    sim.queue.run_until(sim.queue.now + 1000)
    for s in sizes:
        assert stack.recv(server, s) == s
    assert stack.recv(server, 10) == 0
    assert server.recv_queue == []


def test_recv_respects_max_and_splits_chunks():
    sim, stack, client, server = established_pair()
    stack.send(client, 1000)
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.recv(server, 400) == 400
    assert stack.recv(server, 400) == 400
    assert stack.recv(server, 400) == 200
    # one call empties many chunks and splits the next one
    for _ in range(1000):
        stack.send(client, 10)
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.recv(server, 5005) == 5005
    assert len(server.recv_queue) == 500 and server.recv_queue[0].size == 5
    assert stack.recv(server, 10 ** 6) == 4995
    assert server.recv_queue == []


def test_recv_rejects_negative_max_and_keeps_the_queue():
    sim, stack, client, server = established_pair()
    stack.send(client, 100)
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.select([server]) == [server]
    with pytest.raises(BadSizeError):
        stack.recv(server, -1)
    assert [chunk.size for chunk in server.recv_queue] == [100]
    assert stack.recv(server, 100) == 100


def test_send_on_non_established_socket():
    _, stack, a, _ = stack_with_pair()
    with pytest.raises(BadStateError):
        stack.send(stack.socket(a), 10)


def test_send_rejects_negative_size_and_queues_nothing():
    sim, stack, client, server = established_pair()
    with pytest.raises(BadSizeError):
        stack.send(client, -700)
    assert server.recv_queue == []
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.recv(server, 4096) == 0


def test_send_propagates_transport_cap_error():
    from migratenet.errors import MessageTooLargeError
    _, stack, client, _ = established_pair()
    with pytest.raises(MessageTooLargeError):
        stack.send(client, 2 ** 40)


def test_server_may_send_while_handshake_reply_in_flight():
    sim, stack, a, b = stack_with_pair()
    listener = stack.socket(b)
    stack.bind(listener, 5000)
    stack.listen(listener)
    client = stack.socket(a)
    stack.connect(client, b, 5000)
    # run only until the request arrives; the reply is still in flight
    sim.queue.run_until(sim.queue.now + sim.router.model.net_hop(64))
    server = stack.accept(listener)
    assert client.state is SocketState.CONNECTING
    stack.send(server, 777)
    sim.queue.run()
    assert client.state is SocketState.ESTABLISHED
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.recv(client, 1000) == 777


def test_send_after_both_endpoints_migrate():
    sim, stack, client, server = established_pair()
    sim.cluster.migrate(client.owner, 4)
    sim.cluster.migrate(server.owner, 5)
    report = stack.send(client, 2048)
    assert client.state is SocketState.ESTABLISHED
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.recv(server, 4096) == 2048


# -- select / close -----------------------------------------------------------------

def test_select_idle_handles_empty():
    _, stack, client, server = established_pair()
    assert stack.select([client, server]) == []


def test_select_half_ready_at_event_time():
    sim, stack, client, server = established_pair()
    report = stack.send(client, 512)
    arrival = sim.queue.now + report.latency
    sim.queue.run_until(arrival - 1e-9)
    assert stack.select([server]) == []
    sim.queue.run_until(arrival)
    assert stack.select([server]) == [server]


def test_select_listening_with_pending():
    sim, stack, a, b = stack_with_pair()
    listener = stack.socket(b)
    stack.bind(listener, 5000)
    stack.listen(listener)
    assert stack.select([listener]) == []
    client = stack.socket(a)
    stack.connect(client, b, 5000)
    sim.queue.run()
    assert stack.select([listener]) == [listener]


def test_close_signals_peer_eof():
    sim, stack, client, server = established_pair()
    stack.send(client, 300)
    stack.close(client)
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.recv(server, 1000) == 300      # drain first
    assert stack.recv(server, 1000) is None     # then end-of-stream


def test_close_with_chunk_in_flight_is_not_end_of_stream():
    # the peer closes while its last chunk is still on the wire: recv and
    # select agree that the stream has not ended until that chunk is read
    sim, stack, client, server = established_pair(TransportKind.RELAY)
    stack.send(client, 1000)
    stack.close(client)
    assert stack.recv(server, 4096) == 0
    assert stack.select([server]) == []
    sim.queue.run_until(sim.queue.now + 60)
    assert stack.recv(server, 4096) == 1000
    assert stack.recv(server, 4096) is None


def test_double_close_is_idempotent():
    _, stack, client, _ = established_pair()
    stack.close(client)
    stack.close(client)
    assert client.state is SocketState.CLOSED


def test_closing_an_accepted_end_keeps_its_listener_bound():
    # an accepted end carries its listener's port but does not hold it: closing
    # the end leaves the port bound, so the listener takes the next connect
    sim, stack, client, server = established_pair()
    stack.close(server)
    second = stack.socket(client.owner)
    stack.connect(second, server.owner, 5000)
    sim.queue.run()
    assert second.state is SocketState.ESTABLISHED and second.last_error is None


def test_closing_a_connecting_end_after_its_request_arrived_ends_the_stream():
    # the client closes after the server end is made but before the reply
    # reaches it: the server end reads end of stream, as after any close
    sim, stack, a, b = stack_with_pair()
    listener = stack.socket(b)
    stack.bind(listener, 5000)
    stack.listen(listener)
    client = stack.socket(a)
    stack.connect(client, b, 5000)
    sim.queue.run_until(sim.queue.now + sim.router.model.net_hop(64))
    server = stack.accept(listener)
    assert client.state is SocketState.CONNECTING
    stack.close(client)
    sim.queue.run()
    assert client.state is SocketState.CLOSED
    assert stack.select([server]) == [server]
    assert stack.recv(server, 1000) is None


def test_a_refused_connect_releases_its_ephemeral_port():
    # the refusal closes the handle, so it holds no port from then on, and a
    # later close (which returns at once on a closed handle) has none to free
    sim, stack, a, b = stack_with_pair()
    client = stack.socket(a)
    stack.connect(client, b, 4242)
    port = client.local_port
    assert stack._bound[a] == {port: ~client.id}
    sim.queue.run()
    assert client.last_error == "E_CONN_REFUSED"
    assert stack._bound[a] == {}
    stack.close(client)
    assert stack._bound[a] == {}
    stack.bind(stack.socket(a), port)   # free for any handle of the owner


def test_a_closed_handle_connects_from_a_port_it_holds():
    # bound, closed (which frees its port) and then connected: the handle
    # must not keep the port it gave up, which another handle now holds
    sim, stack, a, b = stack_with_pair()
    listener = stack.socket(b)
    stack.bind(listener, 5000)
    stack.listen(listener)
    g = stack.socket(a)
    stack.bind(g, 6000)
    stack.close(g)
    other = stack.socket(a)
    stack.bind(other, 6000)
    stack.connect(g, b, 5000)
    sim.queue.run()
    server = stack.accept(listener)
    assert g.state is SocketState.ESTABLISHED and g.local_port != 6000
    assert stack._bound[a] == {6000: other.id, g.local_port: ~g.id}
    assert server.peer == (a, g.local_port)


def test_ephemeral_ports_end_at_65535():
    # set near the top rather than reached by thousands of connects: after
    # 65535 the ports wrap to 49152, skipping those still held
    _, stack, a, b = stack_with_pair()
    stack._ephemeral[a] = 65535
    first = stack.socket(a)
    stack.connect(first, b, 4242)
    assert first.local_port == 65535
    bound = stack.socket(a)
    stack.bind(bound, 49152)
    second = stack.socket(a)
    stack.connect(second, b, 4242)
    assert second.local_port == 49153
    assert stack._bound[a] == {65535: ~first.id, 49152: bound.id, 49153: ~second.id}


def test_a_connect_fails_only_when_every_ephemeral_port_is_held():
    # every port from 49152 to 65535 reserved by a stand-in handle, without
    # opening the 16,384 sockets that would hold them
    _, stack, a, b = stack_with_pair()
    stack._bound[a] = {port: ~1000 for port in range(49152, 65536)}
    stack._ephemeral[a] = 50000
    held = dict(stack._bound[a])
    client = stack.socket(a)
    with pytest.raises(AddressInUseError, match="E_ADDR_IN_USE"):
        stack.connect(client, b, 4242)
    assert client.state is SocketState.CLOSED and client.local_port is None
    assert stack._bound[a] == held
    del stack._bound[a][49999]   # the one free port is below the counter
    stack.connect(client, b, 4242)
    assert client.local_port == 49999


# -- state machine safety ---------------------------------------------------------------

def test_state_machine_has_no_undefined_transitions():
    # every op either performs a legal transition or raises, leaving the
    # state unchanged; checked over every reachable state
    def fresh(state):
        sim, stack, a, b = stack_with_pair()
        listener = stack.socket(b)
        stack.bind(listener, 5000)
        stack.listen(listener)
        h = stack.socket(a)
        if state is SocketState.BOUND:
            stack.bind(h, 6000)
        elif state is SocketState.LISTENING:
            stack.bind(h, 6000)
            stack.listen(h)
        elif state is SocketState.CONNECTING:
            stack.connect(h, b, 5000)
        elif state is SocketState.ESTABLISHED:
            stack.connect(h, b, 5000)
            sim.queue.run()
        return sim, stack, h, b

    legal = {
        ("bind", SocketState.CLOSED): SocketState.BOUND,
        ("listen", SocketState.BOUND): SocketState.LISTENING,
        ("connect", SocketState.CLOSED): SocketState.CONNECTING,
    }
    ops = ["bind", "listen", "connect", "accept", "send", "recv"]
    for state in SocketState:
        for op in ops:
            sim, stack, h, b = fresh(state)
            before = h.state
            assert before is state
            try:
                if op == "bind":
                    stack.bind(h, 7000)
                elif op == "listen":
                    stack.listen(h)
                elif op == "connect":
                    stack.connect(h, b, 5000)
                elif op == "accept":
                    stack.accept(h)
                elif op == "send":
                    stack.send(h, 10)
                else:
                    stack.recv(h, 10)
            except (BadStateError, WouldBlockError):
                assert h.state is before
                continue
            expected = legal.get((op, before))
            if expected is not None:
                assert h.state is expected
            else:
                # data ops on an established handle keep the state
                assert h.state is before
                assert (op, before) in {("send", SocketState.ESTABLISHED),
                                        ("recv", SocketState.ESTABLISHED)}


# -- migration transparency & transport opacity ----------------------------------------

def run_interleaving(transport, seed):
    sim, stack, client, server = established_pair(transport, migrated=True, seed=seed)
    rng = random.Random(seed)
    sizes = []
    for i in range(30):
        action = rng.random()
        if action < 0.4:
            size = 1000 + i
            sizes.append(size)
            stack.send(client, size)
        elif action < 0.7:
            victim = rng.choice([client.owner, server.owner])
            sim.cluster.migrate(victim, rng.randrange(sim.cluster.node_count))
        else:
            gossip_round(sim.cluster, sim.rng)
        sim.queue.run_until(sim.queue.now + rng.random())
    sim.queue.run_until(sim.queue.now + 10 ** 6)
    received = []
    while True:
        want = sizes[len(received)] if len(received) < len(sizes) else 1
        got = stack.recv(server, want)
        if not got:
            break
        received.append(got)
    return sizes, received


@pytest.mark.parametrize("transport", [TransportKind.RELAY, TransportKind.DIRECT,
                                       TransportKind.AUTO])
def test_every_byte_once_in_order_under_random_interleavings(transport):
    for seed in range(25):
        sizes, received = run_interleaving(transport, seed)
        assert received == sizes


def test_application_stream_identical_across_transports():
    streams = {}
    for transport in (TransportKind.RELAY, TransportKind.DIRECT, TransportKind.AUTO):
        sim, stack, client, server = established_pair(transport, migrated=True)
        for i in range(10):
            stack.send(client, 500 + i)
        sim.queue.run_until(sim.queue.now + 10 ** 6)
        out = []
        while True:
            got = stack.recv(server, 500 + len(out))
            if not got:
                break
            out.append(got)
        streams[transport.value] = out
    assert streams["relay"] == streams["direct"] == streams["auto"]


# -- golden -------------------------------------------------------------------------


def test_seeded_socket_traffic_matches_golden():
    # one connection per transport on an 8-node mesh; 300 sends mixed with
    # migrations and gossip rounds.  The digest covers every enqueued chunk,
    # every send's report, every recv result and the final metric rows, so
    # any change to the socket-to-link path shows here byte for byte.
    sim = Simulation.build(Topology.mesh(8), seed=11)
    cluster, queue, rng = sim.cluster, sim.queue, random.Random(11)
    pids = [cluster.spawn(i % 8, "golden") for i in range(12)]
    stack = SocketStack(cluster, sim.router, queue)
    pending = []
    for k, transport in enumerate((TransportKind.RELAY, TransportKind.DIRECT,
                                   TransportKind.AUTO)):
        listener = stack.socket(pids[2 * k + 1], transport)
        stack.bind(listener, 5000)
        stack.listen(listener)
        client = stack.socket(pids[2 * k], transport)
        stack.connect(client, pids[2 * k + 1], 5000)
        pending.append((client, listener))
    queue.run()
    ends = [(client, stack.accept(listener)) for client, listener in pending]
    handles = [h for pair in ends for h in pair]
    digest = hashlib.sha256()
    for _ in range(300):
        action = rng.random()
        if action < 0.1:
            cluster.migrate(rng.choice(pids), rng.randrange(8))
        elif action < 0.15:
            gossip_round(cluster, sim.rng)
        pair = rng.choice(ends)
        direction = rng.randrange(2)
        h, peer = pair[direction], pair[1 - direction]
        report = stack.send(h, rng.randrange(1, 20000))
        chunk = peer.recv_queue[-1]
        digest.update(f"{report!r}|{chunk.size},{chunk.ready_at!r}\n".encode())
        queue.run_until(queue.now + rng.random() * 1e-3)
        for ready in stack.select(handles):
            digest.update(f"{ready.id}:{stack.recv(ready, rng.randrange(1, 30000))}\n".encode())
    queue.run_until(queue.now + 1.0)
    for h in handles:
        digest.update(f"{h.id}:{stack.recv(h, 10 ** 9)}\n".encode())
    digest.update(repr(sim.metrics.rows()).encode())
    got = digest.hexdigest()
    assert got == PINS["socket"]["sha256"], f"pin socket: sha256 is {got}"
