"""In-process message transport between rank workers with injected latency.

Ranks here are threads inside one process, not separate machines; this
module is the desk-scale stand-in for a real interconnect. Payloads move
through one FIFO mailbox per (src, dst) pair, so delivery between a fixed
pair is always in post order, and a configurable affine latency model
charges ``per_message_s + per_element_s * len`` for each message. Sends
complete at post time and return nothing; only receives have handles.

The key semantic is the progress mode. In ``"active"`` mode (the
default), a message's latency elapses inside the *receiver's*
``wait_all`` call and is serialized across that rank's pending receives;
nothing progresses unless somebody is actively waiting, which mirrors
transports that lack truly asynchronous progression. In ``"background"``
mode latency elapses in real time from the moment of posting, so a late
enough ``wait_all`` returns without contributing any progress time.

Deadlock detection is out of scope: a receive with no matching send
blocks until the fabric is cancelled. ``cancel`` is how a failed peer
releases the ranks waiting on it.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["LatencyModel", "MessageHandle", "Fabric", "create_fabric"]

PROGRESS_MODES = ("active", "background")


@dataclass(frozen=True)
class LatencyModel:
    """Affine per-message cost and the progress mode that charges it."""

    per_message_s: float = 0.0
    per_element_s: float = 0.0
    progress: str = "active"

    def __post_init__(self):
        for delay in (self.per_message_s, self.per_element_s):
            if not 0 <= delay < math.inf:
                raise ValueError(f"latency delays must be finite and >= 0, got {delay}")
        if self.progress not in PROGRESS_MODES:
            raise ValueError(
                f"progress must be one of {PROGRESS_MODES}, got {self.progress!r}")

    def delay(self, nelems: int) -> float:
        return self.per_message_s + self.per_element_s * nelems


class MessageHandle:
    """Opaque token for one posted receive; completes at most once."""

    __slots__ = ("fabric", "src", "dst", "expected_len", "completed")

    def __init__(self, fabric, src, dst, expected_len):
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.expected_len = expected_len
        self.completed = False

    def __repr__(self):
        state = "done" if self.completed else "pending"
        return f"MessageHandle({self.src}->{self.dst}, {state})"


class Fabric:
    """Mailbox endpoints for ``nranks`` ranks sharing one process."""

    def __init__(self, nranks: int, model: LatencyModel | None = None):
        if nranks < 1:
            raise ValueError(f"rank count must be >= 1, got {nranks}")
        self.nranks = nranks
        self.model = model if model is not None else LatencyModel()
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._queues: dict[tuple[int, int], deque] = {}
        self._cancelled = False

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"{what} rank {rank} outside [0, {self.nranks})")

    def post_send(self, src: int, dst: int, payload) -> None:
        """Buffer a message for delivery on (src, dst).

        The payload is copied at post time, so the caller may reuse its
        buffer immediately.
        """
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        data = np.array(payload, dtype=np.float64, copy=True)
        data.flags.writeable = False
        with self._arrived:
            q = self._queues.setdefault((src, dst), deque())
            q.append((data, time.perf_counter()))
            self._arrived.notify_all()

    def post_recv(self, dst: int, src: int, expected_len: int) -> MessageHandle:
        """Register interest in the next message on (src, dst)."""
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        return MessageHandle(self, src, dst, expected_len)

    def cancel(self) -> None:
        """Fail every blocked and every later ``wait_all`` call.

        Waiters wake at once with a ``RuntimeError``. Cancellation
        is permanent: a fabric whose exchange was abandoned may hold
        messages nobody will receive.
        """
        with self._arrived:
            self._cancelled = True
            self._arrived.notify_all()

    def wait_all(self, handles) -> list[np.ndarray]:
        """Complete the given receive handles, returning payloads in order.

        In ``"active"`` progress mode this call is where transfer time is
        spent: each receive blocks until its message is posted, then pays
        the message's modeled latency, one message after another. In
        ``"background"`` mode each message is ready ``delay`` after its
        post time and only the remaining real time, if any, is waited.
        Raises ``RuntimeError`` once the fabric is cancelled.
        """
        payloads = []
        for h in handles:
            if h.fabric is not self:
                raise ValueError("handle belongs to a different fabric")
            if h.completed:
                raise ValueError(f"handle already completed: {h!r}")
            key = (h.src, h.dst)
            with self._arrived:
                while not self._cancelled and not self._queues.get(key):
                    self._arrived.wait()
                if self._cancelled:
                    raise RuntimeError(
                        f"fabric cancelled while waiting on {h.src}->{h.dst}")
                data, posted = self._queues[key].popleft()
            if len(data) != h.expected_len:
                raise ValueError(
                    f"message {h.src}->{h.dst} has {len(data)} elements, "
                    f"receiver expected {h.expected_len}")
            cost = self.model.delay(len(data))
            if self.model.progress == "active":
                if cost > 0:
                    time.sleep(cost)
            else:
                remaining = posted + cost - time.perf_counter()
                if remaining > 0:
                    time.sleep(remaining)
            h.completed = True
            payloads.append(data)
        return payloads


def create_fabric(nranks: int, model: LatencyModel | None = None) -> Fabric:
    """Fabric with ``nranks`` endpoints and the given latency model."""
    return Fabric(nranks, model)
