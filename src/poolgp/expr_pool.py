"""Fixed-capacity pool of reusable genome buffers.

The pool owns every tree buffer an engine run will ever touch. Capacity is
popsize + 2 * workers, with workers = min(max(1, nthreads), popsize): one
buffer per population member plus up to two parents held by each in-flight
crossover. Threads beyond popsize would have no child to breed, so they are
never started and get no headroom. Every buffer is built up front, so the
pool holds exactly the bound from the start. Free slots sit on one list
used as a stack, so acquire/release are O(1). It starts as capacity..1, so
a fresh pool hands out slot 1 first and a released slot comes back next.

`slots[s]` is slot s's buffer; callers index the list directly. Real slots
are 1..capacity, and `slots[0]` is None, the "no buffer" sentinel, so a
read through a released handle fails at once. Release refuses a handle
that holds no buffer, such as one released before, and a per-slot in-use
flag makes it refuse any slot not currently handed out, so a stale handle
to a freed slot cannot push it onto the free stack twice.

The pool is the one source of its usage figures: `used` now, `max_used`
over the run and `peak` since the last `reset_peak` (the engine resets it
at the start of each generation). `breed_in_kernel` lends the whole pool
to the kernel's `breed` for a generation and takes its figures back. It
is not thread-safe on its own: callers mutate it only inside the engine's
single lock. Its sizes come from a validated `RunConfig`, and it does not
check them again.
"""

from __future__ import annotations

from array import array

from . import _kernel
from .errors import InvariantError

NO_SLOT = 0  # sentinel slot id meaning "holds no buffer"


def pool_capacity(popsize: int, nthreads: int) -> int:
    """Buffers a pool for this run builds: one per member, two per breeder the run uses."""
    return popsize + 2 * min(max(1, nthreads), popsize)


class BufferPool:
    """Buffers `slots[1..capacity]` built up front (`slots[0]` is None), on a free stack."""

    def __init__(self, popsize: int, nthreads: int, buffer_bytes: int):
        self.capacity = pool_capacity(popsize, nthreads)
        self.workers = (self.capacity - popsize) // 2  # breeders the run uses
        # index 0 unused in every per-slot array so slot ids start at 1
        self.slots = [None] + [bytearray(buffer_bytes) for _ in range(self.capacity)]
        self.free = list(range(self.capacity, 0, -1))  # stack top last
        self.in_use = bytearray(self.capacity + 1)
        self.used = 0
        self.peak = 0
        self.max_used = 0

    def acquire(self, who) -> int:
        """Hand the top free slot to `who`.

        `who` is any object with a `slot_id` attribute (an Individual). The
        slot id is recorded there so release needs no search.
        """
        if not self.free:
            raise InvariantError(
                f"ran out of genome buffers (capacity {self.capacity}, "
                f"used {self.used}): breeding schedule invariant broken"
            )
        slot = who.slot_id = self.free.pop()
        self.in_use[slot] = 1
        self.used += 1
        if self.used > self.peak:
            self.peak = self.used
            if self.peak > self.max_used:
                self.max_used = self.peak
        return slot

    def reset_peak(self) -> None:
        """Start a new `peak` window at the current use."""
        self.peak = self.used

    def release(self, who) -> None:
        """Push `who`'s slot back on the free stack; a handle that holds none raises."""
        slot = who.slot_id
        if not 1 <= slot <= self.capacity:
            raise InvariantError(f"release of slot {slot} outside 1..{self.capacity}")
        if not self.in_use[slot]:
            raise InvariantError(f"release of slot {slot}, which is not in use")
        self.in_use[slot] = 0
        self.free.append(slot)
        self.used -= 1
        who.slot_id = NO_SLOT

    def breed_in_kernel(self, breed, *arrays) -> tuple[int, int, int]:
        """Lend the pool to the kernel's `breed` for one generation at one breeder, with
        `arrays` its member, parent, point and child arrays; return its class-1 claims,
        promotions and childless parents.

        The free stack goes in as an array("i") with room for every slot, and
        `breed` writes the in-use flags in place; the free stack, `used`, the
        peak (reset first, as `reset_peak` does) and `max_used` come back as
        the Python steps leave them. A protocol fault raises the class and
        text that the steps raise.
        """
        free = array("i", self.free) + array("i", [0]) * (self.capacity - len(self.free))
        figures = array("i", [0]) * 6
        status = breed(self.slots, self.in_use, free, len(self.free), *arrays, figures)
        if status:
            error, text = _kernel.BREED_FAULTS[status]
            raise error(text.format(*figures))
        nfree, self.used, self.peak, class1, promotions, childless = figures
        self.free[:] = free[:nfree]
        self.max_used = max(self.max_used, self.peak)
        return class1, promotions, childless
