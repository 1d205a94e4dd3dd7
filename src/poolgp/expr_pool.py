"""Fixed-capacity pool of reusable genome buffers.

The pool owns every tree buffer an engine run will ever touch. Capacity is
popsize + 2 * workers, with workers = min(max(1, nthreads), popsize): one
buffer per population member plus up to two parents held by each in-flight
crossover. Threads beyond popsize would have no child to breed, so they are
never started and get no headroom. Free slots are kept on a singly linked
index chain so acquire/release are O(1) and buffer storage, once allocated,
is reused for the rest of the run. The chain is LIFO over a never-used
ascending tail, so storage is allocated only when every allocated slot is
in use: `max_used` slots have storage.

Slot index 0 is reserved as the "no buffer" sentinel; real slots are
1..capacity. A per-slot in-use flag makes release refuse any slot that is
not currently handed out, so a stale handle to a freed slot cannot link it
into the free chain twice.

The pool is the one source of its usage figures: `used` now, `max_used`
over the run and `peak` since the last `reset_peak` (the engine resets it
at the start of each generation). It is not thread-safe on its own:
callers mutate it only inside the engine's single lock.
"""

from __future__ import annotations

from .errors import InvariantError

NO_SLOT = 0  # sentinel slot id meaning "holds no buffer"


class PoolExhaustedError(RuntimeError):
    """Raised when no free buffer exists.

    Under correct class-priority scheduling this is unreachable; hitting it
    means the breeding bookkeeping is broken, so it is fatal rather than
    retryable.
    """


def worker_count(popsize: int, nthreads: int) -> int:
    """Breeders a run uses: one when inline (nthreads 0), never more than children."""
    return min(max(1, nthreads), popsize)


class BufferPool:
    """Lazily allocated genome buffers linked through a free chain."""

    def __init__(self, popsize: int, nthreads: int, buffer_bytes: int):
        if popsize < 1:
            raise ValueError(f"popsize must be >= 1, got {popsize}")
        if buffer_bytes < 1:
            raise ValueError(f"buffer_bytes must be >= 1, got {buffer_bytes}")
        if nthreads < 0:
            raise ValueError(f"nthreads must be >= 0, got {nthreads}")
        self.workers = worker_count(popsize, nthreads)
        self.capacity = popsize + 2 * self.workers
        self.buffer_bytes = buffer_bytes
        # index 0 unused in every per-slot array so slot ids start at 1
        self.slots: list[bytearray | None] = [None] * (self.capacity + 1)
        self.chain = [0] * (self.capacity + 1)
        for i in range(1, self.capacity):
            self.chain[i] = i + 1
        self.chain[self.capacity] = 0  # end of chain
        self.chainhead = 1
        self.in_use = bytearray(self.capacity + 1)
        self.used = 0
        self.peak = 0
        self.max_used = 0

    def acquire(self, who) -> int:
        """Hand the next free slot to `who`, allocating its storage on first use.

        `who` is any object with a `slot_id` attribute (an Individual). The
        slot id is recorded there so release needs no search.
        """
        head = self.chainhead
        if head <= 0:
            raise PoolExhaustedError(
                f"ran out of genome buffers (capacity {self.capacity}, "
                f"used {self.used}): breeding schedule invariant broken"
            )
        if self.slots[head] is None:
            self.slots[head] = bytearray(self.buffer_bytes)
        who.slot_id = head
        self.chainhead = self.chain[head]
        if not 0 <= self.chainhead <= self.capacity:
            raise InvariantError(f"corrupt free chain: head {self.chainhead} after slot {head}")
        self.in_use[head] = 1
        self.used += 1
        if self.used > self.peak:
            self.peak = self.used
            if self.peak > self.max_used:
                self.max_used = self.peak
        return head

    def reset_peak(self) -> None:
        """Start a new `peak` window at the current use."""
        self.peak = self.used

    def release(self, who) -> None:
        """Push `who`'s slot back on the free chain. Safe to call twice."""
        slot = who.slot_id
        if slot == NO_SLOT:
            return  # already freed
        if not 1 <= slot <= self.capacity:
            raise InvariantError(f"release of slot {slot} outside 1..{self.capacity}")
        if not self.in_use[slot]:
            raise InvariantError(f"release of slot {slot}, which is not in use")
        self.in_use[slot] = 0
        self.chain[slot] = self.chainhead
        self.chainhead = slot
        self.used -= 1
        who.slot_id = NO_SLOT

    def buffer(self, slot: int) -> bytearray:
        """Backing storage of an allocated slot."""
        buf = self.slots[slot]
        if buf is None:
            raise InvariantError(f"slot {slot} has no storage")
        return buf
