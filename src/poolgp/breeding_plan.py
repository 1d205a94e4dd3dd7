"""Per-generation breeding schedule: child classes, work queues, parent bookkeeping.

Children waiting to be created by crossover are queued by class: class 1
(at least one parent has exactly one outstanding child) and class 2+ (both
parents have two or more). Workers drain class 1 first, so single-child
parents give their buffers back as early as possible.

Class 1 is the list `chain1` used as a stack (top: `chainhd1`): the class-1
children, lowest on top, then each promoted child (move21) pushed on top.
Class 2+ is no separate structure: it is every child whose `status` is
still 2, read in ascending child order by the cursor `next2`, a child
index. A class-2 child leaves it only by a claim at the cursor or by
promotion (status 1), so no child before the cursor has status 2, and
skipping the others yields the remaining class-2 children in order.

Each parent also carries a list of its child ids, built in child order: its
length is the parent's outstanding child count, and the plan is the only
place that count lives. The plan also keeps every child's parents, as the
two array("i")s the tournaments drew.

The kernel's `plan` builds the children lists, `status` and `chain1` in one
call where it loaded; `python_plan` is its reference and the fallback.

No internal locking: every operation runs inside the engine lock.
"""

from __future__ import annotations

from array import array

from . import genome
from .errors import InvariantError

NIL = -1  # chain 1 is empty; "no sole survivor" from rem_child


def python_plan(mums, dads) -> tuple[list[list[int]], list[int], list[int]]:
    """(children, status, chain1) for a generation's parents: the reference of the kernel's
    `plan`, to the same lists and ValueError texts.

    children[p] lists parent p's children in child order; status[s] is 1
    (class 1) or 2 (class 2+); chain1 holds the class-1 children, lowest last.
    """
    n = len(mums)
    if len(dads) != n:
        raise ValueError("mums and dads must have equal length")
    children: list[list[int]] = [[] for _ in mums]
    for s, (m, d) in enumerate(zip(mums, dads)):
        if not (0 <= m < n and 0 <= d < n):
            raise ValueError(f"parent index out of range for child {s}")
        children[m].append(s)
        children[d].append(s)
    status = [1 if len(children[m]) == 1 or len(children[d]) == 1 else 2
              for m, d in zip(mums, dads)]
    return children, status, [s for s in range(n - 1, -1, -1) if status[s] == 1]


class BreedingPlan:
    """Work queues, parentage and children lists for one generation of crossovers.

    mums and dads are array("i")s, as `draw_outcome` returns them: mums[s]
    and dads[s] index the current population. They may be equal:
    self-crossover lists the child twice in that parent's children. The
    kernel's `plan` takes no other type; `python_plan` takes any sequences.
    """

    def __init__(self, mums: array, dads: array):
        """The plan's tables from the kernel's `plan` where it loaded, else from
        `python_plan`: the same lists, or the same ValueError."""
        build = python_plan if genome._native is None else genome._native.plan
        self.children, self.status, self.chain1 = build(mums, dads)
        self.mums, self.dads = mums, dads
        self.next2 = 0  # no class-2 child below this index
        # chain 1 hands out these and each promotion: the class-1 claims of a whole generation
        self.initial_class1, self.promotions = len(self.chain1), 0

    @property
    def chainhd1(self) -> int:
        """The child the next claim takes from chain 1, or NIL when it is empty."""
        return self.chain1[-1] if self.chain1 else NIL

    def claim_next(self) -> int | None:
        """Take the next child to create: chain 1 first, else the lowest class-2 child.

        The class-2 child is the first with status 2 at or after `next2`.
        Marks the child claimed (status 0) so no other worker picks it up.
        Returns None when no child is left to claim and the worker should stop.
        """
        status = self.status
        if self.chain1:
            s = self.chain1.pop()
            if status[s] != 1:
                raise InvariantError(f"child {s} on chain 1 has status {status[s]}")
        else:
            s = self.next2
            while s < len(status) and status[s] != 2:
                s += 1  # class 1 from the start, promoted, or claimed
            if s == len(status):
                self.next2 = s
                return None
            self.next2 = s + 1
        status[s] = 0
        return s

    def cancel(self) -> None:
        """Empty chain 1 and put `next2` past the last child: claims return None."""
        self.chain1.clear()
        self.next2 = len(self.status)

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
        self.chain1.append(s)
        self.promotions += 1
