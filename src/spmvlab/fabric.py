"""Injected interconnect latency for rank workers sharing one process.

Ranks here are threads inside one process, not separate machines; this
module is the desk-scale stand-in for a real interconnect. Every rank
can read the whole input vector, so nothing is transported: a rank
fills its ghost buffer itself (``layout.fill_ghost``), and the fabric
only charges the time the messages would have taken. A configurable
affine model charges ``per_message_s + per_element_s * len`` for each
message.

The key semantic is the progress mode. In ``"active"`` mode (the
default), a rank's incoming latency elapses inside its own ``wait`` call
and is serialized across its messages; nothing progresses unless
somebody is actively waiting, which mirrors transports that lack truly
asynchronous progression. In ``"background"`` mode latency elapses in
real time from the moment the rank posted its exchange, so a late enough
``wait`` returns without contributing any progress time.

A fabric holds no per-multiply state, so any number of contexts may
share one, and no rank ever blocks on a peer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

__all__ = ["LatencyModel", "Fabric", "create_fabric"]

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


class Fabric:
    """Latency charges for ``nranks`` ranks sharing one process."""

    def __init__(self, nranks: int, model: LatencyModel | None = None):
        if nranks < 1:
            raise ValueError(f"rank count must be >= 1, got {nranks}")
        self.nranks = nranks
        self.model = model if model is not None else LatencyModel()

    def wait(self, posted: float, sizes) -> None:
        """Pay one rank's incoming latency for messages of ``sizes`` elements.

        ``posted`` is the ``perf_counter`` time at which the rank posted
        its exchange. In ``"active"`` mode this call sleeps the sum of
        the messages' delays. In ``"background"`` mode it sleeps only
        until ``posted`` plus the largest delay, if that is still ahead.
        """
        delays = [self.model.delay(n) for n in sizes]
        if self.model.progress == "active":
            remaining = sum(delays)
        else:
            remaining = posted + max(delays, default=0.0) - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)


def create_fabric(nranks: int, model: LatencyModel | None = None) -> Fabric:
    """Fabric with ``nranks`` endpoints and the given latency model."""
    return Fabric(nranks, model)
