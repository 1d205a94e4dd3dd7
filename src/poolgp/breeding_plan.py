"""Per-generation breeding schedule: child classes, work chains, parent bookkeeping.

Children waiting to be created by crossover are queued in two chains by
class: class 1 (at least one parent has exactly one outstanding child) and
class 2+ (both parents have two or more). Workers drain chain 1 first, so
single-child parents give their buffers back as early as possible. The
class-2+ chain is doubly linked because promotion (move21) unlinks from an
arbitrary position; the class-1 chain is consumed at the head only, so its
back links are never maintained after construction.

Each parent also carries a linear array of its outstanding child ids. A
short linear scan beats a fancier structure at realistic family sizes and
keeps all allocation in the master phase. -1 is the empty marker everywhere
in this module (the buffer pool's sentinel 0 is a valid child index here).

No internal locking: every operation runs inside the engine lock.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError

NIL = -1  # empty marker for chain links and children entries


@dataclass
class SelectionOutcome:
    """Chosen parents for every child of the next generation.

    mum_ids[s] and dad_ids[s] index the current population. They may be
    equal: self-crossover is allowed and makes the child appear twice in
    that parent's children array.
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

    def edge_counts(self) -> list[int]:
        """Parent-edge count per population member (mum and dad each count)."""
        counts = [0] * len(self.mum_ids)
        for m, d in zip(self.mum_ids, self.dad_ids):
            counts[m] += 1
            counts[d] += 1
        return counts


class BreedingPlan:
    """Work chains and children arrays for one generation of crossovers."""

    def __init__(self, outcome: SelectionOutcome, num_children: list[int]):
        popsize = len(outcome.mum_ids)
        if num_children != outcome.edge_counts():
            raise ValueError(
                "num_children disagrees with the selection outcome's edge counts"
            )
        self.popsize = popsize
        self.forw = [NIL] * popsize
        self.back = [NIL] * popsize
        self.status = [0] * popsize
        self.children: list[list[int] | None] = [None] * popsize
        self.chainhd1 = NIL
        self.chainhd2 = NIL
        last1 = NIL
        last2 = NIL
        for s in range(popsize):
            mum = outcome.mum_ids[s]
            dad = outcome.dad_ids[s]
            assert num_children[mum] > 0 and num_children[dad] > 0
            if num_children[mum] == 1 or num_children[dad] == 1:
                last1 = self._append(s, last1, chain=1)
                self.status[s] = 1
            else:
                last2 = self._append(s, last2, chain=2)
                self.status[s] = 2
            self._addchild(mum, num_children[mum], s)
            self._addchild(dad, num_children[dad], s)

    def _append(self, s: int, last: int, chain: int) -> int:
        # FIFO append so construction preserves ascending child order
        if last != NIL:
            assert self.forw[last] == NIL
            self.forw[last] = s
        self.forw[s] = NIL
        self.back[s] = last
        if chain == 1 and self.chainhd1 == NIL:
            self.chainhd1 = s
        if chain == 2 and self.chainhd2 == NIL:
            self.chainhd2 = s
        return s

    def _addchild(self, parent: int, num_children: int, s: int) -> None:
        arr = self.children[parent]
        if arr is None:
            arr = [NIL] * num_children
            self.children[parent] = arr
        for i in range(num_children):
            if arr[i] == NIL:
                arr[i] = s
                return
        raise AssertionError(f"children array of parent {parent} overflowed")

    def claim_next(self) -> int | None:
        """Take the next child to create: chain 1 first, else chain 2+.

        Marks the child claimed (status 0) so no other worker picks it up.
        Returns None when both chains are empty and the worker should stop.
        """
        if self.chainhd1 != NIL:
            s = self.chainhd1
            self.chainhd1 = self.forw[s]
        elif self.chainhd2 != NIL:
            s = self.chainhd2
            self.chainhd2 = self.forw[s]
        else:
            return None
        assert self.status[s] in (1, 2)
        self.status[s] = 0
        return s

    def rem_child(self, parent: int, num_children: int, s: int) -> tuple[int, int]:
        """Strike one occurrence of child s from a parent's children array.

        Exactly one occurrence is removed even when s appears twice
        (self-crossover). Returns (children still outstanding, id of the
        sole survivor when exactly one remains, else -1).
        """
        arr = self.children[parent]
        assert arr is not None
        target = s
        nchild = 0
        removed = 0
        last = NIL
        for i in range(num_children):
            assert NIL <= arr[i] < self.popsize
            if arr[i] == target:
                arr[i] = NIL
                removed += 1
                target = -2  # never matches again: remove only one instance
            if arr[i] != NIL:
                last = arr[i]
                nchild += 1
        if removed != 1:
            raise InvariantError(f"child {s} not in children array of parent {parent}")
        if nchild != 1:
            last = NIL
        return nchild, last

    def move21(self, active: int, s: int) -> None:
        """Promote child s from the class-2+ chain to the head of chain 1.

        No-op when s is the child being processed right now, or when s is no
        longer class 2+ (another thread may have claimed or promoted it since
        the caller looked).
        """
        if active == s:
            return
        if self.status[s] != 2:
            return
        self.status[s] = 1
        b = self.back[s]
        f = self.forw[s]
        if self.chainhd2 == s:
            self.chainhd2 = f
        self.forw[s] = NIL
        self.back[s] = NIL
        if b != NIL:
            self.forw[b] = f
        if f != NIL:
            self.back[f] = b
        # insert at head of chain 1; back links not maintained there
        self.forw[s] = self.chainhd1
        self.chainhd1 = s

    def check_integrity(self) -> str | None:
        """Verify both chains; return None if sound, else the first violation.

        Chain 1: acyclic, every node status 1. Chain 2+: acyclic, every node
        status 2, and back[forw[x]] == x for every link that has a successor
        (the head's own back pointer may be stale after a head claim; it is
        never followed). Also checks the chains are disjoint and together
        cover exactly the children whose status says they are queued.
        """
        seen1 = []
        visited = set()
        i = self.chainhd1
        while i != NIL:
            if i in visited:
                return f"cycle in chain 1 at child {i}"
            if not 0 <= i < self.popsize:
                return f"chain 1 link out of range: {i}"
            if self.status[i] != 1:
                return f"child {i} on chain 1 has status {self.status[i]}"
            visited.add(i)
            seen1.append(i)
            i = self.forw[i]
        seen2 = []
        prev = NIL
        i = self.chainhd2
        while i != NIL:
            if i in visited:
                return f"chain overlap or cycle at child {i}"
            if not 0 <= i < self.popsize:
                return f"chain 2+ link out of range: {i}"
            if self.status[i] != 2:
                return f"child {i} on chain 2+ has status {self.status[i]}"
            if prev != NIL and self.back[i] != prev:
                return f"back[{i}]={self.back[i]} does not match forw[{prev}]={i}"
            visited.add(i)
            seen2.append(i)
            prev = i
            i = self.forw[i]
        queued1 = {s for s in range(self.popsize) if self.status[s] == 1}
        queued2 = {s for s in range(self.popsize) if self.status[s] == 2}
        if set(seen1) != queued1:
            return f"chain 1 holds {sorted(seen1)} but status-1 children are {sorted(queued1)}"
        if set(seen2) != queued2:
            return f"chain 2+ holds {sorted(seen2)} but status-2 children are {sorted(queued2)}"
        return None

    def chain1_list(self) -> list[int]:
        out = []
        i = self.chainhd1
        while i != NIL:
            out.append(i)
            i = self.forw[i]
        return out

    def chain2_list(self) -> list[int]:
        out = []
        i = self.chainhd2
        while i != NIL:
            out.append(i)
            i = self.forw[i]
        return out
