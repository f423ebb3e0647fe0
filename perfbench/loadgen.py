"""Lean load generator: one process, at most ``nproc`` connections.

Requests are pre-encoded newline-delimited JSON lines; the generator
only writes them, reads the response lines and stamps times.  Nothing
is parsed or checked while a phase is timed: the raw response lines
are kept and checked after the phase.

* :func:`open_loop` sends on a fixed schedule (request ``i`` is due at
  ``start + i / rate``) regardless of replies, round-robin over the
  connections, and times each request from when it was due, so a stall
  also charges the requests queued behind it.  How late each send ran
  is reported too.
* :func:`closed_loop` keeps one request outstanding per connection and
  sends the next as soon as the previous reply arrives.

The server answers the lines of one connection in order, so replies
are matched to requests first-in first-out per connection.
"""

from __future__ import annotations

import select
import socket
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


class LoadError(RuntimeError):
    pass


@dataclass
class PhaseResult:
    """Raw outcome of one phase; ``latency_s``/``late_s`` are per request."""

    responses: List[bytes]
    latency_s: List[float]
    late_s: List[float]
    elapsed_s: float
    backlog_at_end: int = 0


def connect(address: Tuple[str, int], count: int) -> List[socket.socket]:
    socks = []
    for _ in range(count):
        sock = socket.create_connection(address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        socks.append(sock)
    return socks


def close_all(socks: Sequence[socket.socket]) -> None:
    for sock in socks:
        sock.close()


class _Reader:
    """Splits a connection's byte stream into response lines."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = b""

    def feed(self, data: bytes) -> List[bytes]:
        self.buf += data
        if b"\n" not in self.buf:
            return []
        *lines, self.buf = self.buf.split(b"\n")
        return lines


def _recv(sock: socket.socket) -> bytes:
    data = sock.recv(1 << 18)
    if not data:
        raise LoadError("server closed the connection")
    return data


def open_loop(
    socks: Sequence[socket.socket],
    lines: Sequence[bytes],
    rate: float,
    *,
    timeout_s: float = 30.0,
) -> PhaseResult:
    """Send *lines* at *rate* per second, open loop; see the module doc."""
    n = len(lines)
    k = len(socks)
    fileno = {sock.fileno(): c for c, sock in enumerate(socks)}
    fifo = [deque() for _ in socks]
    outbuf = [bytearray() for _ in socks]
    readers = [_Reader() for _ in socks]
    responses: List[bytes] = [b""] * n
    recv_at = [0.0] * n
    sent_at = [0.0] * n
    interval = 1.0 / rate
    start = time.perf_counter() + 0.002
    deadline = start + n * interval + timeout_s
    nxt = 0
    done = 0
    backlog_at_end = -1
    while done < n:
        now = time.perf_counter()
        if now > deadline:
            raise LoadError(f"open loop: {n - done} of {n} replies missing")
        while nxt < n and start + nxt * interval <= now:
            c = nxt % k
            outbuf[c] += lines[nxt]
            fifo[c].append(nxt)
            sent_at[nxt] = now
            nxt += 1
        if nxt == n and backlog_at_end < 0:
            backlog_at_end = nxt - done
        writers = []
        for c, sock in enumerate(socks):
            if outbuf[c]:
                try:
                    sent = sock.send(outbuf[c])
                except BlockingIOError:
                    sent = 0
                del outbuf[c][:sent]
                if outbuf[c]:
                    writers.append(sock)
        wait = start + nxt * interval - time.perf_counter() if nxt < n else 0.05
        readable, _, _ = select.select(socks, writers, [], max(0.0, wait))
        for sock in readable:
            c = fileno[sock.fileno()]
            got = readers[c].feed(_recv(sock))
            if not got:
                continue
            now = time.perf_counter()
            queue = fifo[c]
            for line in got:
                i = queue.popleft()
                responses[i] = line
                recv_at[i] = now
            done += len(got)
    latency = [recv_at[i] - (start + i * interval) for i in range(n)]
    late = [sent_at[i] - (start + i * interval) for i in range(n)]
    return PhaseResult(
        responses, latency, late, time.perf_counter() - start, backlog_at_end
    )


def closed_loop(
    socks: Sequence[socket.socket],
    lines: Sequence[bytes],
    seconds: float = float("inf"),
    count: Optional[int] = None,
) -> PhaseResult:
    """Cycle through *lines* with one request outstanding per connection
    until *seconds* have passed or *count* requests were sent, then
    collect the last replies.  Returns the replies in send order
    (``len(responses)`` requests were sent)."""
    k = len(socks)
    fileno = {sock.fileno(): c for c, sock in enumerate(socks)}
    readers = [_Reader() for _ in socks]
    pending = [-1] * k
    sent_at = [0.0] * k
    responses: List[bytes] = []
    latency: List[float] = []
    order: List[int] = []
    start = time.perf_counter()
    stop = start + seconds
    limit = count if count is not None else sys.maxsize
    nxt = 0
    for c, sock in enumerate(socks[:min(k, limit)]):
        _sendall_nb(sock, lines[nxt % len(lines)])
        pending[c] = nxt
        sent_at[c] = time.perf_counter()
        nxt += 1
    outstanding = nxt
    while outstanding:
        readable, _, _ = select.select(socks, [], [], 30.0)
        if not readable:
            raise LoadError("closed loop: no reply within 30 s")
        for sock in readable:
            c = fileno[sock.fileno()]
            got = readers[c].feed(_recv(sock))
            if not got:
                continue
            now = time.perf_counter()
            responses.append(got[0])
            latency.append(now - sent_at[c])
            order.append(pending[c])
            if now < stop and nxt < limit:
                _sendall_nb(sock, lines[nxt % len(lines)])
                pending[c] = nxt
                sent_at[c] = time.perf_counter()
                nxt += 1
            else:
                outstanding -= 1
    elapsed = time.perf_counter() - start
    # Re-order replies by request index so checking can pair them up.
    ordered = sorted(zip(order, responses, latency))
    return PhaseResult(
        [r for _, r, _ in ordered], [t for _, _, t in ordered], [], elapsed
    )


def round_trip(sock: socket.socket, line: bytes, timeout_s: float = 60.0) -> Tuple[bytes, float]:
    """One request, one reply, on a connection with nothing else in
    flight; returns the reply line and the round trip in seconds."""
    reader = _Reader()
    t0 = time.perf_counter()
    _sendall_nb(sock, line)
    while True:
        readable, _, _ = select.select([sock], [], [], timeout_s)
        if not readable:
            raise LoadError("no reply within timeout")
        got = reader.feed(_recv(sock))
        if got:
            return got[0], time.perf_counter() - t0


def _sendall_nb(sock: socket.socket, data: bytes) -> None:
    view = memoryview(data)
    while view:
        try:
            sent = sock.send(view)
        except BlockingIOError:
            select.select([], [sock], [], 10.0)
            continue
        view = view[sent:]
