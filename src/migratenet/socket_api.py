"""TCP-like socket facade whose connections survive endpoint migration.

Handles are owned by processes, not nodes: ports live in a per-process
namespace and every frame is addressed to a process id, so migrating either
endpoint never disturbs an established connection.  All calls are
non-blocking; readiness is polled with :meth:`SocketStack.select`.

Payloads are byte *sizes*, not real buffers.  Delivered chunks become
readable once the simulation clock passes their arrival time; arrival times
are monotone per connection, so the stream stays FIFO even when a later send
is routed faster than an earlier one.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from itertools import chain
from typing import Iterable, Optional

from .cluster import ClusterState, GPid
from .errors import (AddressInUseError, BadSizeError, BadStateError, ConnRefusedError,
                     NoSuchProcessError, WouldBlockError)
from .simcore import EventQueue, TransportKind
from .transport import Router

EPHEMERAL_BASE = 49152
MAX_PORT = 65535


class SocketState(Enum):
    CLOSED = "CLOSED"
    BOUND = "BOUND"
    LISTENING = "LISTENING"
    CONNECTING = "CONNECTING"
    ESTABLISHED = "ESTABLISHED"


# members as globals: one Enum attribute lookup costs ~0.2 us on CPython 3.11
CLOSED, BOUND, LISTENING, CONNECTING, ESTABLISHED = (
    SocketState.CLOSED, SocketState.BOUND, SocketState.LISTENING, SocketState.CONNECTING,
    SocketState.ESTABLISHED)


class Chunk:
    """`size` bytes of a stream, readable from sim time `ready_at`; `recv`
    shrinks the head chunk when it reads it in part."""
    __slots__ = ("size", "ready_at")

    def __init__(self, size: int, ready_at: float):
        self.size = size
        self.ready_at = ready_at


class SocketHandle:
    """One end of a connection, or a listener; a listener's `pending` holds
    the ids of handles awaiting accept, FIFO."""

    def __init__(self, id: int, owner: GPid, transport: TransportKind):
        self.id = id
        self.owner = owner
        self.transport = transport
        self.state = CLOSED
        self.local_port: Optional[int] = None
        self.peer: Optional[tuple[GPid, int]] = None
        self.peer_handle: Optional[int] = None
        self.recv_queue: list[Chunk] = []
        self.pending: deque[int] = deque()
        self.peer_closed = False
        self.last_error: Optional[str] = None


class SocketStack:
    """All socket state for one simulated cluster."""

    def __init__(self, cluster: ClusterState, router: Router, queue: EventQueue):
        self.cluster = cluster
        self.router = router
        self.queue = queue
        self.handles: dict[int, SocketHandle] = {}
        self._next_id = 0
        # owner -> port -> id of the handle bound there, or ~id of the one
        # that reserved it as its ephemeral port
        self._bound: dict[GPid, dict[int, int]] = {}
        self._ephemeral: dict[GPid, int] = {}

    # -- lifecycle ----------------------------------------------------------

    def socket(self, owner: GPid, transport: TransportKind = TransportKind.AUTO) -> SocketHandle:
        if owner not in self.cluster.procs:
            raise NoSuchProcessError(f"process {owner}")
        handle = SocketHandle(self._next_id, owner, transport)
        self._next_id += 1
        self.handles[handle.id] = handle
        return handle

    def bind(self, h: SocketHandle, port: int) -> None:
        if h.state is not CLOSED:
            raise BadStateError(f"bind in state {h.state.value}")
        ports = self._bound.setdefault(h.owner, {})
        if port in ports:
            raise AddressInUseError(f"port {port} already bound by {h.owner}")
        ports[port] = h.id
        h.local_port = port
        h.state = BOUND

    def listen(self, h: SocketHandle) -> None:
        if h.state is not BOUND:
            raise BadStateError(f"listen in state {h.state.value}")
        h.state = LISTENING

    def close(self, h: SocketHandle) -> None:
        """Idempotent; the peer's next recv after draining reports end of
        stream.  Closing a listener discards (and closes) pending children."""
        if h.state is CLOSED:
            return
        self._release(h)
        for child_id in h.pending:
            child = self.handles[child_id]
            h_pending_peer = child.peer_handle
            child.state = CLOSED
            if h_pending_peer is not None:
                self.handles[h_pending_peer].peer_closed = True
        h.pending.clear()
        h.state = CLOSED
        if h.peer_handle is not None:
            self.handles[h.peer_handle].peer_closed = True

    # -- connection setup -----------------------------------------------------

    def connect(self, h: SocketHandle, dst: GPid, port: int) -> None:
        """Start a handshake; completes asynchronously after one round trip
        over the handle's transport.  Refusal (no listener at the far end when
        the request arrives) closes the handle with E_CONN_REFUSED."""
        if h.state is not CLOSED:
            raise BadStateError(f"connect in state {h.state.value}")
        if dst not in self.cluster.procs:
            raise NoSuchProcessError(f"process {dst}")
        h.local_port = self._alloc_ephemeral(h)   # a closed handle holds no port
        h.state = CONNECTING
        h.peer = (dst, port)
        report = self.router.send(h.transport, h.owner, dst,
                                  self.router.config.control_size)
        self.queue.schedule(self.queue.now + report.latency,
                            lambda: self._syn_arrives(h.id, dst, port))

    def _syn_arrives(self, handle_id: int, dst: GPid, port: int) -> None:
        h = self.handles[handle_id]
        if h.state is not CONNECTING:
            return
        listener = self._find_listener(dst, port)
        if listener is None:
            self._release(h)
            h.state = CLOSED
            h.last_error = ConnRefusedError.code
            return
        child = self.socket(dst, h.transport)
        child.state = ESTABLISHED
        child.local_port = port
        child.peer = (h.owner, h.local_port)
        child.peer_handle = h.id
        h.peer_handle = child.id   # so closing h before the reply ends child's stream
        listener.pending.append(child.id)
        report = self.router.send(h.transport, dst, h.owner,
                                  self.router.config.control_size)
        self.queue.schedule(self.queue.now + report.latency,
                            lambda: self._synack_arrives(h.id))

    def _synack_arrives(self, handle_id: int) -> None:
        h = self.handles[handle_id]
        if h.state is CONNECTING:
            h.state = ESTABLISHED

    def accept(self, h: SocketHandle) -> SocketHandle:
        if h.state is not LISTENING:
            raise BadStateError(f"accept in state {h.state.value}")
        if not h.pending:
            raise WouldBlockError("no pending connections")
        return self.handles[h.pending.popleft()]

    # -- data transfer ----------------------------------------------------------

    def send(self, h: SocketHandle, size: int):
        """Send `size` bytes to the peer; returns the transport's delivery
        report.  FIFO order per connection is preserved even when a later
        message is routed faster."""
        if h.state is not ESTABLISHED:
            raise BadStateError(f"send in state {h.state.value}")
        peer = self.handles[h.peer_handle]
        if peer.state is CLOSED:
            raise BadStateError("peer endpoint is closed")
        report = self.router.send(h.transport, h.owner, peer.owner, size)
        # FIFO: not before the queued tail (a drained queue's last chunk left by now)
        queue, ready = peer.recv_queue, self.queue.now + report.latency
        if queue and queue[-1].ready_at > ready:
            ready = queue[-1].ready_at
        queue.append(Chunk(size, ready))
        return report

    def recv(self, h: SocketHandle, max_bytes: int) -> Optional[int]:
        """Dequeue up to `max_bytes` of arrived data; 0 when nothing is ready
        yet, None once the peer has closed and nothing is left in flight or
        queued (the rule `select` applies).  A negative `max_bytes` is
        E_BAD_SIZE, as a negative send size is."""
        if h.state is not ESTABLISHED:
            raise BadStateError(f"recv in state {h.state.value}")
        if max_bytes < 0:   # else it would read as "nothing ready" with data queued
            raise BadSizeError(f"negative size {max_bytes}")
        queue, now = h.recv_queue, self.queue.now
        got = emptied = 0
        for chunk in queue:
            if got >= max_bytes or chunk.ready_at > now:
                break
            room = max_bytes - got
            if chunk.size > room:   # read in part: the rest stays at the head
                chunk.size -= room
                got = max_bytes
                break
            got += chunk.size
            emptied += 1
        del queue[:emptied]   # one deletion, so draining n chunks stays O(n)
        if got == 0 and h.peer_closed and not queue:
            return None
        return got

    def select(self, handles: Iterable[SocketHandle]) -> list[SocketHandle]:
        """Handles that are readable at the current sim time: established
        with arrived data (or a drained stream whose peer closed), or
        listening with pending accepts."""
        now = self.queue.now
        ready = []
        for h in handles:
            state = h.state
            if state is ESTABLISHED:
                # send keeps ready_at non-decreasing: the head chunk arrives first
                queue = h.recv_queue
                if (queue[0].ready_at <= now if queue else h.peer_closed):
                    ready.append(h)
            elif state is LISTENING and h.pending:
                ready.append(h)
        return ready

    # -- internals -----------------------------------------------------------

    def _find_listener(self, owner: GPid, port: int) -> Optional[SocketHandle]:
        handle_id = self._bound.get(owner, {}).get(port)
        if handle_id is None or handle_id < 0:   # absent or ephemeral reservation
            return None
        h = self.handles[handle_id]
        return h if h.state is LISTENING else None

    def _release(self, h: SocketHandle) -> None:
        """Unbind the port `h` holds, bound or reserved; an accepted end,
        which carries its listener's port, holds none."""
        ports = self._bound.get(h.owner, {})
        if ports.get(h.local_port) in (h.id, ~h.id):
            del ports[h.local_port]

    def _alloc_ephemeral(self, h: SocketHandle) -> int:
        """Reserve the owner's first free port from its counter up to
        `MAX_PORT`, then from `EPHEMERAL_BASE` up; E_ADDR_IN_USE only when
        the owner holds every ephemeral port."""
        ports = self._bound.setdefault(h.owner, {})
        start = self._ephemeral.get(h.owner, EPHEMERAL_BASE)
        for port in chain(range(start, MAX_PORT + 1), range(EPHEMERAL_BASE, start)):
            if port not in ports:
                self._ephemeral[h.owner] = port + 1
                ports[port] = ~h.id   # reserve; negative, so never an accept target
                return port
        raise AddressInUseError(f"no ephemeral port left for {h.owner}")
