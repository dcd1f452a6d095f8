"""Byte channels between worker processes over Unix socket pairs.

``multiprocessing.Pipe`` sends block once the kernel buffer fills, so a
ring of workers that all ``send`` before any ``recv`` (the reduce-scatter
step of a ring allreduce) can circular-wait deadlock on large payloads.
These channels are raw ``socket.socketpair()`` endpoints plus a
select-driven :func:`transfer` engine that makes progress on *all* pending
sends and receives of a communication round concurrently — a worker can be
mid-send to its right neighbor while draining its left neighbor, so no
payload size can wedge the ring.

Channels are created in the parent before ``fork`` and inherited by both
endpoint processes; everyone else (the parent included) closes their copies
so a crashed worker's peers observe EOF instead of hanging.
"""

from __future__ import annotations

import select
import socket
import struct

import numpy as np

__all__ = ["Channel", "ChannelClosed", "barrier", "transfer"]

_LEN = struct.Struct("<Q")


class ChannelClosed(ConnectionError):
    """The peer closed its end (normally because its process died).

    ``peer`` carries the remote rank when the channel was tagged at fabric
    construction, so crash attribution from inside an allreduce or a
    sparse exchange names the same casualty the parent's exitcode scan
    does.  Which call was interrupted is the traceback's business: every
    wire operation runs on the worker's main thread.
    """

    def __init__(self, message: str = "peer closed", peer: int | None = None) -> None:
        if peer is not None:
            message += f" (peer rank {peer})"
        super().__init__(message)
        self.peer = peer


class Channel:
    """One full-duplex byte channel between exactly two processes.

    ``peer`` is an optional rank tag set by whoever wires channels into a
    topology; it flows into every :class:`ChannelClosed` this endpoint
    raises so errors can name the dead neighbor.
    """

    def __init__(self, sock: socket.socket, peer: int | None = None) -> None:
        self.sock = sock
        self.peer = peer

    @classmethod
    def pair(cls) -> tuple["Channel", "Channel"]:
        a, b = socket.socketpair()
        return cls(a), cls(b)

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    # -- blocking framed messages (sequential protocols) ---------------------

    def send_bytes(self, payload: bytes | memoryview) -> None:
        """Length-prefixed blocking send (safe when the peer is receiving)."""
        self.sock.sendall(_LEN.pack(len(payload)))
        self.sock.sendall(payload)

    def recv_bytes(self) -> bytearray:
        header = self._recv_exact(_LEN.size)
        return self._recv_exact(_LEN.unpack(bytes(header))[0])

    def send_array(self, array: np.ndarray) -> None:
        """Blocking raw send of a contiguous array's bytes (no framing —
        the receiver knows the size from the matching buffer)."""
        self.sock.sendall(memoryview(np.ascontiguousarray(array)).cast("B"))

    def recv_into(self, array: np.ndarray) -> None:
        """Blocking raw receive filling ``array`` completely."""
        view = memoryview(array).cast("B")
        got = 0
        while got < len(view):
            n = self.sock.recv_into(view[got:])
            if n == 0:
                raise ChannelClosed("peer closed during recv", peer=self.peer)
            got += n

    def _recv_exact(self, n: int) -> bytearray:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            k = self.sock.recv_into(view[got:])
            if k == 0:
                raise ChannelClosed("peer closed during recv", peer=self.peer)
            got += k
        return buf


def barrier(channels) -> None:
    """Return once every process at the far end of ``channels`` has called
    this too: one byte each way over each channel.  The channels must be
    idle: a one-byte send then never blocks, so every caller reaches its
    receives."""
    for ch in channels:
        ch.sock.sendall(b"\0")
    for ch in channels:
        ch._recv_exact(1)


#: Most bytes one send hands the kernel, and most buffers one sendmsg or
#: recvmsg_into names (Linux's IOV_MAX is 1024).
_CHUNK = 1 << 20
_IOV = 64


def _views(payload, send: bool) -> list[memoryview]:
    """The non-empty byte views of one buffer or of a list of buffers.  A
    strided array is copied to be sent; one to receive into raises."""
    views = []
    for part in payload if isinstance(payload, list) else [payload]:
        if send and isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
        view = memoryview(part).cast("B")
        if len(view):
            views.append(view)
    return views


def _consume(views: list[memoryview], n: int) -> None:
    """Drop the first ``n`` bytes of ``views``, in place."""
    while n:
        k = len(views[0])
        if n < k:
            views[0] = views[0][n:]
            return
        del views[0]
        n -= k


class _SendState:
    __slots__ = ("channel", "views", "done")

    def __init__(self, channel: Channel, payload) -> None:
        self.channel = channel
        self.views = _views(payload, send=True)
        self.done = not self.views

    def pump(self) -> None:
        head, room = [], _CHUNK
        for view in self.views[:_IOV]:
            head.append(view[:room])
            room -= len(head[-1])
            if not room:
                break
        try:
            sent = self.channel.sock.sendmsg(head)
        except BlockingIOError:  # spurious writability — next select round
            return
        _consume(self.views, sent)
        self.done = not self.views


class _RecvState:
    __slots__ = ("channel", "views", "done")

    def __init__(self, channel: Channel, buffer) -> None:
        self.channel = channel
        self.views = _views(buffer, send=False)
        self.done = not self.views

    def pump(self) -> None:
        try:
            n = self.channel.sock.recvmsg_into(self.views[:_IOV])[0]
        except BlockingIOError:  # spurious readability — next select round
            return
        if n == 0:
            raise ChannelClosed(
                "peer closed during transfer", peer=self.channel.peer
            )
        _consume(self.views, n)
        self.done = not self.views


def transfer(
    sends: list[tuple[Channel, object]],
    recvs: list[tuple[Channel, object]],
) -> None:
    """Complete all fixed-size sends and receives concurrently.

    ``sends``/``recvs`` pair a channel with a contiguous buffer (ndarray,
    bytes, memoryview) or a list of them, which travel back to back as
    one stream: a sender's list need not split where the receiver's does.
    Both sides must agree on the total size out of band.  The
    select loop writes whatever the kernel will take and reads whatever has
    arrived, so simultaneous exchanges between ring neighbors cannot
    deadlock regardless of payload size relative to socket buffers.
    """
    send_states = [_SendState(ch, p) for ch, p in sends]
    recv_states = [_RecvState(ch, b) for ch, b in recvs]
    pending_s = [s for s in send_states if not s.done]
    pending_r = [r for r in recv_states if not r.done]
    # A *blocking* send() parks until its whole chunk fits in the socket
    # buffer, so two peers both mid-send on frames larger than the buffer
    # deadlock even though select gated the call (select only promises
    # "some" space).  Non-blocking mode makes pump() write exactly what
    # the kernel accepts and return; restored on exit because the framed
    # sequential helpers above rely on blocking sockets.
    toggled = {s.channel.sock for s in pending_s}
    toggled.update(r.channel.sock for r in pending_r)
    for sock in toggled:
        sock.setblocking(False)
    try:
        while pending_s or pending_r:
            rlist = [r.channel.sock for r in pending_r]
            wlist = [s.channel.sock for s in pending_s]
            readable, writable, _ = select.select(rlist, wlist, [])
            readable = set(readable)
            writable = set(writable)
            for r in pending_r:
                if r.channel.sock in readable:
                    r.pump()
            for s in pending_s:
                if s.channel.sock in writable:
                    s.pump()
            pending_s = [s for s in pending_s if not s.done]
            pending_r = [r for r in pending_r if not r.done]
    finally:
        for sock in toggled:
            try:
                sock.setblocking(True)
            except OSError:  # pragma: no cover - socket died mid-transfer
                pass

