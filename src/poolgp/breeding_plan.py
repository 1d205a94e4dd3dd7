"""Per-generation breeding schedule: child classes, work queues, parent bookkeeping.

Children waiting to be created by crossover are queued by class: class 1
(at least one parent has exactly one outstanding child) and class 2+ (both
parents have two or more). Workers drain class 1 first, so single-child
parents give their buffers back as early as possible.

Class 1 is a stack linked through `forw` from `chainhd1`: it starts as the
ascending class-1 children, and a promoted child (move21) is pushed on top.
Class 2+ is `queue2`, the ascending class-2 children, read through the
cursor `next2`. A class-2 child leaves it only by a claim at the cursor or
by promotion (status 1), so skipping entries whose status is no longer 2
yields the remaining children in order with no unlinking.

Each parent also carries a list of its child ids, built in child order: its
length is the parent's outstanding child count, and the plan is the only
place that count lives. The plan also keeps every child's parents.

No internal locking: every operation runs inside the engine lock.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError

NIL = -1  # end of chain 1; "no sole survivor" from rem_child


@dataclass
class SelectionOutcome:
    """Chosen parents for every child of the next generation.

    mum_ids[s] and dad_ids[s] index the current population. They may be
    equal: self-crossover is allowed and makes the child appear twice in
    that parent's children list.
    """

    mum_ids: list[int]
    dad_ids: list[int]

    def __post_init__(self):
        if len(self.mum_ids) != len(self.dad_ids):
            raise ValueError("mum_ids and dad_ids must have equal length")
        n = len(self.mum_ids)
        for s in range(n):
            if not (0 <= self.mum_ids[s] < n and 0 <= self.dad_ids[s] < n):
                raise ValueError(f"parent index out of range for child {s}")


class BreedingPlan:
    """Work queues, parentage and children lists for one generation of crossovers."""

    def __init__(self, outcome: SelectionOutcome):
        self.mums = mums = outcome.mum_ids
        self.dads = dads = outcome.dad_ids
        children: list[list[int]] = [[] for _ in mums]
        for s, (m, d) in enumerate(zip(mums, dads)):
            children[m].append(s)
            children[d].append(s)
        self.children = children
        self.status = status = [
            1 if len(children[m]) == 1 or len(children[d]) == 1 else 2
            for m, d in zip(mums, dads)
        ]
        queue1 = [s for s, c in enumerate(status) if c == 1]
        self.forw = [NIL] * len(mums)
        for a, b in zip(queue1, queue1[1:]):
            self.forw[a] = b
        self.chainhd1 = queue1[0] if queue1 else NIL
        self.queue2 = [s for s, c in enumerate(status) if c == 2]
        self.next2 = 0

    def claim_next(self) -> int | None:
        """Take the next child to create: chain 1 first, else the class-2 queue.

        Marks the child claimed (status 0) so no other worker picks it up.
        Returns None when both queues are empty and the worker should stop.
        """
        status = self.status
        s = self.chainhd1
        if s != NIL:
            if status[s] != 1:
                raise InvariantError(f"child {s} on chain 1 has status {status[s]}")
            self.chainhd1 = self.forw[s]
        else:
            queue2 = self.queue2
            i = self.next2
            while i < len(queue2) and status[queue2[i]] != 2:
                i += 1  # promoted since the queue was built
            if i == len(queue2):
                self.next2 = i
                return None
            s = queue2[i]
            self.next2 = i + 1
        status[s] = 0
        return s

    def cancel(self) -> None:
        """Empty both queues, so every later claim_next returns None."""
        self.chainhd1 = NIL
        self.next2 = len(self.queue2)

    def rem_child(self, parent: int, s: int) -> tuple[int, int]:
        """Remove one occurrence of child s from a parent's children list.

        Exactly one occurrence goes even when s appears twice
        (self-crossover). Returns (children still outstanding, id of the sole
        survivor when exactly one remains, else NIL).
        """
        kids = self.children[parent]
        try:
            kids.remove(s)
        except ValueError:
            raise InvariantError(f"child {s} not in children list of parent {parent}") from None
        return len(kids), kids[0] if len(kids) == 1 else NIL

    def move21(self, active: int, s: int) -> None:
        """Promote class-2 child s to the top of chain 1.

        No-op when s is the child being processed right now, or when s is no
        longer class 2+ (another thread may have claimed or promoted it since
        the caller looked).
        """
        if active == s or self.status[s] != 2:
            return
        self.status[s] = 1
        self.forw[s] = self.chainhd1
        self.chainhd1 = s
