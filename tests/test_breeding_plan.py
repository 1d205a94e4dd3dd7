"""Breeding plan unit tests: hand-traced queue, rem_child and move21 behavior, and the
kernel's build of the plan's tables against the Python build."""

import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from poolgp import breeding_plan, genome
from poolgp.breeding_plan import NIL, BreedingPlan
from poolgp.errors import InvariantError
from simharness import check_integrity, parents, queues


def plan_from(pairs):
    """Build a plan from [(mum, dad), ...] child parentage."""
    return BreedingPlan(*parents(pairs))


def test_build_plan_three_child_trace():
    # parents: 0 has 3 edges, 1 has 2, 2 has 1
    plan = plan_from([(0, 1), (0, 0), (1, 2)])
    assert queues(plan) == ([2], [0, 1])
    assert plan.status == [2, 2, 1]
    assert plan.children[0] == [0, 1, 1]  # self-crossover child listed twice
    assert plan.children[1] == [0, 2]
    assert plan.children[2] == [2]
    assert check_integrity(plan) is None


def test_build_plan_single_shared_parent_all_class2():
    plan = plan_from([(0, 0), (0, 0), (0, 0)])
    assert queues(plan) == ([], [0, 1, 2])
    assert plan.children[0] == [0, 0, 1, 1, 2, 2]
    assert plan.children[1] == []  # infertile parents have an empty list


def test_build_plan_self_crossover_permutation_all_class2():
    # each member the sole (mum and dad) parent of one child: two edges each,
    # so every child lands in the class-2+ chain
    plan = plan_from([(1, 1), (0, 0)])
    assert queues(plan) == ([], [0, 1])
    assert plan.status == [2, 2]


def test_outcome_rejects_out_of_range_parent():
    with pytest.raises(ValueError, match="parent index out of range for child 1"):
        BreedingPlan(array("i", [0, 3]), array("i", [1, 1]))
    with pytest.raises(ValueError, match="^mums and dads must have equal length$"):
        BreedingPlan(array("i", [0, 1]), array("i", [1]))


def test_claim_order_is_chain1_then_chain2():
    plan = plan_from([(0, 1), (0, 0), (1, 2)])
    assert plan.claim_next() == 2  # class 1 first
    assert plan.claim_next() == 0
    assert plan.claim_next() == 1
    assert plan.claim_next() is None
    assert plan.status == [0, 0, 0]


def test_claim_on_empty_plan_returns_none():
    plan = plan_from([])
    assert plan.claim_next() is None


def test_claim_from_chain2_marks_claimed():
    plan = plan_from([(s, s) for s in range(6)])  # all class 2+
    for expected in range(5):
        assert plan.claim_next() == expected
    assert queues(plan) == ([], [5])
    assert plan.claim_next() == 5
    assert plan.status[5] == 0


# rem_child traces poke the children list directly: the operation touches
# nothing else, and these cases are about list contents.

def rem_fixture(entries):
    plan = plan_from([(s, s) for s in range(8)])
    plan.children[0] = list(entries)
    return plan


def test_rem_child_leaves_survivors_and_reports_last():
    plan = rem_fixture([3, 7])
    assert plan.rem_child(0, 7) == (1, 3)
    assert plan.children[0] == [3]


def test_rem_child_removes_one_instance_on_self_crossover():
    plan = rem_fixture([5, 5])
    assert plan.rem_child(0, 5) == (1, 5)
    assert plan.children[0] == [5]


def test_rem_child_sole_entry_empties_array():
    plan = rem_fixture([4])
    assert plan.rem_child(0, 4) == (0, -1)
    assert plan.children[0] == []


def test_rem_child_last_is_nil_when_several_remain():
    plan = rem_fixture([2, 3, 4])
    assert plan.rem_child(0, 3) == (2, NIL)
    assert plan.children[0] == [2, 4]


def test_rem_child_missing_child_is_invariant_violation():
    plan = rem_fixture([3, 7])
    with pytest.raises(InvariantError):
        plan.rem_child(0, 5)
    assert plan.children[0] == [3, 7]  # a rejected removal changes nothing
    with pytest.raises(InvariantError):
        plan_from([(0, 0)] * 2).rem_child(1, 0)  # parent 1 has no children list


def move_fixture():
    """popsize 8: chain1=[2,3,4,6,7], chain2=[0,1,5]."""
    pairs = [(0, 1), (0, 1), (2, 0), (3, 0), (4, 0), (0, 1), (6, 0), (7, 0)]
    plan = plan_from(pairs)
    assert queues(plan) == ([2, 3, 4, 6, 7], [0, 1, 5])
    return plan


def snapshot(plan):
    return (
        list(plan.chain1), list(plan.status), plan.chainhd1, plan.next2,
        [list(c) for c in plan.children],
    )


def test_move21_unlinks_interior_and_heads_chain1():
    plan = move_fixture()
    plan.move21(7, 1)
    assert queues(plan) == ([1, 2, 3, 4, 6, 7], [0, 5])
    assert plan.chainhd1 == 1
    assert plan.status[1] == 1
    assert check_integrity(plan) is None
    # class-2 claims skip the promoted child where it sat in child order
    assert [plan.claim_next() for _ in range(9)] == [1, 2, 3, 4, 6, 7, 0, 5, None]


def test_move21_ignores_the_active_child():
    plan = move_fixture()
    before = snapshot(plan)
    plan.move21(1, 1)
    assert snapshot(plan) == before


def test_move21_ignores_already_promoted_child():
    plan = move_fixture()
    before = snapshot(plan)
    plan.move21(7, 2)  # child 2 is already class 1
    assert snapshot(plan) == before


def test_move21_handles_chain2_head_and_tail():
    plan = move_fixture()
    plan.move21(7, 0)  # head
    assert queues(plan)[1] == [1, 5]
    plan.move21(7, 5)  # tail
    assert queues(plan) == ([5, 0, 2, 3, 4, 6, 7], [1])
    assert check_integrity(plan) is None


def test_check_integrity_fresh_and_empty_plans():
    assert check_integrity(move_fixture()) is None
    assert check_integrity(plan_from([])) is None


def test_check_integrity_reports_status_mismatch():
    plan = move_fixture()
    plan.status[0] = 1  # chain2 node claiming to be class 1
    assert check_integrity(plan) is not None


def test_class_assignment_matches_min_parent_edges():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randrange(1, 20)
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(m)]
        counts = [0] * m
        for a, b in pairs:
            counts[a] += 1
            counts[b] += 1
        plan = plan_from(pairs)
        assert [len(c) for c in plan.children] == counts
        for s, (a, b) in enumerate(pairs):
            expected = 1 if min(counts[a], counts[b]) == 1 else 2
            assert plan.status[s] == expected
        assert check_integrity(plan) is None


def test_cancel_leaves_nothing_to_claim():
    plan = move_fixture()
    assert plan.claim_next() == 2
    plan.move21(7, 1)
    plan.cancel()
    assert queues(plan) == ([], [])
    assert plan.claim_next() is None
    assert plan.claim_next() is None


def test_chainhd1_predicts_every_claim():
    # the traced run tells class-1 from class-2 claims by chainhd1 alone
    rng = random.Random(19)
    promoted = cancelled = 0
    for _ in range(300):
        m = rng.randrange(1, 30)
        plan = plan_from([(rng.randrange(m), rng.randrange(m)) for _ in range(m)])
        cancel_at, s = rng.randrange(m + 1), NIL
        for claims in range(m + 1):
            class2 = [t for t, c in enumerate(plan.status) if c == 2]
            if class2 and rng.random() < 0.5:
                plan.move21(s, rng.choice(class2))
                promoted += 1
            if claims == cancel_at:
                plan.cancel()
                cancelled += 1
            head, next2 = plan.chainhd1, plan.next2
            s = plan.claim_next()
            if s is None:
                assert head == NIL
                break
            assert head in (NIL, s)
            assert (head == NIL) == (plan.next2 != next2)
        assert plan.claim_next() is None
    assert promoted and cancelled
    with pytest.raises(AttributeError):
        plan.chainhd1 = 0


def test_plan_invariants_hold_under_python_optimize():
    src = Path(breeding_plan.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from array import array\n"
        "from poolgp.breeding_plan import BreedingPlan\n"
        "from poolgp.errors import InvariantError\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "plan = BreedingPlan(array('i', [0, 0, 1]), array('i', [1, 0, 2]))\n"
        "try:\n"
        "    plan.rem_child(2, 0)\n"
        "    sys.exit(3)\n"
        "except InvariantError:\n"
        "    pass\n"
        "plan.status[plan.chainhd1] = 2\n"
        "try:\n"
        "    plan.claim_next()\n"
        "except InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(4)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


needs_kernel = pytest.mark.skipif(genome.evaluator() != "c", reason="no C kernel on this machine")


def tables(plan):
    return plan.children, plan.status, plan.chain1, plan.next2


def python_build(monkeypatch, mums, dads):
    """`BreedingPlan(mums, dads)` without the kernel: its tables, or the ValueError's text."""
    with monkeypatch.context() as m:
        m.setattr(genome, "_native", None)
        try:
            return tables(BreedingPlan(mums, dads))
        except ValueError as refused:
            return str(refused)


def plan_cases():
    """(mums, dads), two lists of ints: M = 0, 1, 2 and 4000; self-crossover; every child
    on one parent; random pairs."""
    rng = random.Random(30)
    yield [], []
    yield [0], [0]
    yield [0, 1], [1, 0]
    yield [1, 1], [0, 1]
    m = 4000
    perm = rng.sample(range(m), m)
    yield perm, perm  # each member the mum and dad of one child
    yield [7] * m, [7] * m  # every child on one parent
    yield [rng.randrange(m) for _ in range(m)], [rng.randrange(m) for _ in range(m)]
    for m in (3, 9, 40, 300):
        mums = [rng.randrange(m) for _ in range(m)]
        dads = [mum if rng.random() < 0.2 else rng.randrange(m) for mum in mums]
        yield mums, dads


@needs_kernel
def test_the_kernels_plan_builds_the_python_plans_tables(monkeypatch):
    for mums, dads in plan_cases():
        mums, dads = array("i", mums), array("i", dads)
        assert tables(BreedingPlan(mums, dads)) == python_build(monkeypatch, mums, dads), len(mums)


@needs_kernel
def test_the_kernels_plan_refuses_with_the_python_plans_text(monkeypatch):
    for mums, dads in (([0, 1], [1]), ([], [0]), ([0, 3], [1, 1]), ([0, 1], [-1, 5]),
                       ([2 ** 31 - 1, 0], [0, 0]), ([0, 0, 0], [0, 1, -(2 ** 31)]),
                       ([0, 1], [1, 2])):
        mums, dads = array("i", mums), array("i", dads)
        with pytest.raises(ValueError) as refused:
            BreedingPlan(mums, dads)
        assert str(refused.value) == python_build(monkeypatch, mums, dads), (mums, dads)
