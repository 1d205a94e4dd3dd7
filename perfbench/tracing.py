"""Span tracer that instruments poolgp from outside, for the traced benchmark run.

Nothing under src/ knows about it. `install` rebinds the module and class
attributes the engine looks up at call time (engine.draw_outcome,
genome.evaluate, BreedingPlan.rem_child, BufferPool.acquire, ...) to timing
wrappers, swaps the engine's lock for a TimedLock and its thread class for a
TracedThread, and returns a function that puts everything back.

Each span records id, parent span, name, thread, start, end and self time
(span time minus the time its child spans cover). Spans go into per-thread
arrays so no lock is needed and rows never interleave; they are written out
once, when the run ends. Counters that need to look at arguments or state
(claim class, promotions, crossover attempts) are kept per thread as well
and summed at the end.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from array import array
from collections import Counter

perf_counter = time.perf_counter


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # [span id, start, child time]
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self.counters: Counter = Counter()
        self.extents: list[tuple[int, int]] = []  # subtree_end calls of one crossover


class Tracer:
    def __init__(self):
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self.phase = "master"  # "master" until the first claim of a generation

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._states_lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.st = st
        return st

    def current_span(self) -> int:
        stack = self.state().stack
        return stack[-1][0] if stack else -1

    def begin(self, t0: float | None = None, parent: int | None = None) -> list:
        st = self.state()
        if parent is None:
            parent = st.stack[-1][0] if st.stack else -1
        frame = [next(self._next_id), perf_counter() if t0 is None else t0, 0.0, parent]
        st.stack.append(frame)
        return frame

    def end(self, nid: int, frame: list) -> None:
        t1 = perf_counter()
        st = self.state()
        st.stack.pop()
        dur = t1 - frame[1]
        if st.stack:
            st.stack[-1][2] += dur
        self._record(st, frame[0], frame[3], nid, frame[1], t1, dur - frame[2])

    def point(self, nid: int, t0: float, t1: float) -> None:
        """Record a leaf span that already ended (lock wait)."""
        st = self.state()
        parent = st.stack[-1][0] if st.stack else -1
        if st.stack:
            st.stack[-1][2] += t1 - t0
        self._record(st, next(self._next_id), parent, nid, t0, t1, t1 - t0)

    @staticmethod
    def _record(st, sid, parent, nid, t0, t1, self_s):
        st.ids.append(sid)
        st.parents.append(parent)
        st.names.append(nid)
        st.starts.append(t0)
        st.ends.append(t1)
        st.selfs.append(self_s)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            frame = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(nid, frame)

        return traced

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(st.ids) for st in self._states)

    def totals(self) -> dict[str, list[float]]:
        """name -> [count, total seconds, self seconds]."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for st in self._states:
            for nid, t0, t1, s in zip(st.names, st.starts, st.ends, st.selfs):
                row = out[self.names[nid]]
                row[0] += 1
                row[1] += t1 - t0
                row[2] += s
        return out

    def counters(self) -> Counter:
        total: Counter = Counter()
        for st in self._states:
            total.update(st.counters)
        return total

    def worker_phase_wall(self) -> float:
        """Sum over generations of first thread start to last join return."""
        start = self._name_ids.get("engine.threads.start")
        join = self._name_ids.get("engine.threads.join")
        if start is None:
            return 0.0
        phases: dict[int, list[float]] = {}
        for st in self._states:
            for nid, parent, t0, t1 in zip(st.names, st.parents, st.starts, st.ends):
                if nid == start or nid == join:
                    lo_hi = phases.setdefault(parent, [t0, t1])
                    lo_hi[0] = min(lo_hi[0], t0)
                    lo_hi[1] = max(lo_hi[1], t1)
        return sum(hi - lo for lo, hi in phases.values())

    def write(self, path) -> None:
        """One CSV row per span, after a header naming the run."""
        rows = []
        for st in self._states:
            for sid, parent, nid, t0, t1 in zip(st.ids, st.parents, st.names, st.starts, st.ends):
                rows.append((sid, parent, self.names[nid], st.index, t0, t1))
        rows.sort()
        with open(path, "w") as fh:
            fh.write(f"# run_id={self.run_id}\n")
            fh.write("span,parent,name,thread,start_s,end_s\n")
            fh.writelines(f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]:.9f},{r[5]:.9f}\n" for r in rows)


class TimedLock:
    """Stand-in for the engine's lock: records wait and hold spans."""

    def __init__(self, tracer: Tracer):
        self._lock = threading.Lock()
        self._tracer = tracer
        self._wait = tracer.name_id("engine.lock.wait")
        self._hold = tracer.name_id("engine.lock.hold")

    def __enter__(self):
        t0 = perf_counter()
        self._lock.acquire()
        t1 = perf_counter()
        self._tracer.point(self._wait, t0, t1)
        self._tracer.begin(t1)
        return self

    def __exit__(self, *exc):
        st = self._tracer.state()
        self._tracer.end(self._hold, st.stack[-1])
        self._lock.release()
        return False


def install(tracer: Tracer, engine) -> callable:
    """Instrument the poolgp modules and one PooledEngine; return the undo."""
    from poolgp import breeding_plan, engine as engine_mod, expr_pool, genome, metrics, problems

    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    for owner, attr, name in [
        (engine_mod, "draw_outcome", "engine.draw_outcome"),
        (engine_mod, "child_stream", "engine.child_stream"),
        (breeding_plan.BreedingPlan, "rem_child", "breeding_plan.rem_child"),
        (expr_pool.BufferPool, "acquire", "expr_pool.acquire"),
        (metrics, "record_generation", "metrics.record_generation"),
        (problems.Problem, "fitness", "problems.fitness"),
    ]:
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    build = breeding_plan.BreedingPlan.__init__
    build_id = tracer.name_id("breeding_plan.build")

    def traced_build(plan, *args, **kwargs):
        tracer.phase = "master"
        frame = tracer.begin()
        try:
            build(plan, *args, **kwargs)
        finally:
            tracer.end(build_id, frame)

    patch(breeding_plan.BreedingPlan, "__init__", traced_build)

    claim = breeding_plan.BreedingPlan.claim_next
    claim_id = tracer.name_id("breeding_plan.claim_next")

    def traced_claim(plan):
        tracer.phase = "breed"
        frame = tracer.begin()
        cls = "claims.class1" if plan.chainhd1 != breeding_plan.NIL else "claims.class2"
        try:
            s = claim(plan)
        finally:
            tracer.end(claim_id, frame)
        if s is not None:
            tracer.state().counters[cls] += 1
        return s

    patch(breeding_plan.BreedingPlan, "claim_next", traced_claim)

    move21 = breeding_plan.BreedingPlan.move21
    move21_id = tracer.name_id("breeding_plan.move21")

    def traced_move21(plan, active, s):
        frame = tracer.begin()
        before = plan.status[s]
        try:
            move21(plan, active, s)
        finally:
            tracer.end(move21_id, frame)
        if before == 2 and plan.status[s] == 1:
            tracer.state().counters["move21.promotions"] += 1

    patch(breeding_plan.BreedingPlan, "move21", traced_move21)

    release = expr_pool.BufferPool.release
    release_id = tracer.name_id("expr_pool.release")

    def traced_release(pool, who):
        frame = tracer.begin()
        held = who.slot_id != expr_pool.NO_SLOT
        try:
            release(pool, who)
        finally:
            tracer.end(release_id, frame)
        if held:
            key = "release.childless" if tracer.phase == "master" else "release.early"
            tracer.state().counters[key] += 1

    patch(expr_pool.BufferPool, "release", traced_release)

    subtree_end = genome.subtree_end
    subtree_end_id = tracer.name_id("genome.subtree_end")

    def traced_subtree_end(code, start):
        frame = tracer.begin()
        try:
            end = subtree_end(code, start)
        finally:
            tracer.end(subtree_end_id, frame)
        tracer.state().extents.append((start, end))
        return end

    patch(genome, "subtree_end", traced_subtree_end)

    crossover = engine_mod.subtree_crossover
    crossover_id = tracer.name_id("genome.subtree_crossover")

    def traced_crossover(mum, mum_len, dad, dad_len, child, capacity, rng):
        st = tracer.state()
        st.extents = []
        frame = tracer.begin()
        try:
            n = crossover(mum, mum_len, dad, dad_len, child, capacity, rng)
        finally:
            tracer.end(crossover_id, frame)
        ext = st.extents
        attempts = len(ext) // 2
        st.counters["crossover.attempts"] += attempts
        if attempts == genome.CROSSOVER_ATTEMPTS:
            (mp, m_end), (dp, d_end) = ext[-2], ext[-1]
            if mum_len - (m_end - mp) + (d_end - dp) > capacity:
                st.counters["crossover.fallbacks"] += 1
        return n

    patch(engine_mod, "subtree_crossover", traced_crossover)

    evaluate = genome.evaluate
    evaluate_id = tracer.name_id("genome.evaluate")

    def traced_evaluate(code, length, x):
        frame = tracer.begin()
        try:
            return evaluate(code, length, x)
        finally:
            tracer.end(evaluate_id, frame)
            tracer.state().counters["evaluate.opcodes"] += length * len(x)

    patch(genome, "evaluate", traced_evaluate)

    run_generation = engine.run_generation
    run_generation_id = tracer.name_id("engine.run_generation")

    def traced_run_generation(g):
        frame = tracer.begin()
        c0 = time.thread_time()
        try:
            run_generation(g)
        finally:
            tracer.state().counters["main.cpu_s"] += time.thread_time() - c0
            tracer.end(run_generation_id, frame)

    engine.run_generation = traced_run_generation
    engine.lock = TimedLock(tracer)

    start_id = tracer.name_id("engine.threads.start")
    join_id = tracer.name_id("engine.threads.join")
    worker_id = tracer.name_id("engine.worker")

    class TracedThread(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._parent_span = tracer.current_span()

        def start(self):
            frame = tracer.begin()
            try:
                super().start()
            finally:
                tracer.end(start_id, frame)

        def join(self, timeout=None):
            frame = tracer.begin()
            try:
                super().join(timeout)
            finally:
                tracer.end(join_id, frame)

        def run(self):
            frame = tracer.begin(parent=self._parent_span)
            c0 = time.thread_time()
            try:
                super().run()
            finally:
                tracer.state().counters["workers.cpu_s"] += time.thread_time() - c0
                tracer.end(worker_id, frame)

    class _Threading:
        Thread = TracedThread
        Lock = threading.Lock

    patch(engine_mod, "threading", _Threading)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        del engine.run_generation

    return restore


def run_traced(engine) -> tuple[object, float, Tracer]:
    """Run one engine under the tracer; return (result, wall seconds, tracer)."""
    tracer = Tracer()
    restore = install(tracer, engine)
    run_id = tracer.name_id("engine.run")
    try:
        frame = tracer.begin()
        try:
            result = engine.run()
        finally:
            tracer.end(run_id, frame)
    finally:
        restore()
    t = tracer.totals()["engine.run"][1]
    return result, t, tracer


def raw_layer_totals(tracer: Tracer) -> dict[str, float]:
    """Additive per-run figures; `layer_metrics` turns summed ones into metrics."""
    totals = tracer.totals()
    raw = {}
    for name, (n, s, self_s) in totals.items():
        raw[f"{name}.n"] = n
        raw[f"{name}.s"] = s
        raw[f"{name}.self_s"] = self_s
    raw.update(tracer.counters())
    raw["workers.wall_s"] = tracer.worker_phase_wall()
    raw["spans"] = tracer.span_count()
    return raw
