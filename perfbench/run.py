"""poolgp benchmark: end-to-end and per-layer figures, gated on the naive oracle.

    python3 perfbench/run.py --workload bigtree-inline --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root. `--workload all` runs every workload,
alternating their order between rounds. Each workload is a fixed list of
RunConfigs (common.WORKLOADS), one per trajectory, seeded from --seed.

For every trajectory the naive two-population engine runs once in this
process, timed but outside the measured region, and serves as the oracle.
Each repetition then runs in a fresh child process (one_run.py), so set-up
time and peak RSS are those of a process that ran one trajectory. Every
repetition's per-generation fitness vectors, final genomes and pool
occupancy are checked against the oracle and the buffer bound, and any
generation that disagrees counts as failed.

--trace 0 runs rounds of repetitions for at least --seconds and prints the
end-to-end metrics (README.md says how times are taken). --trace 1 runs each
trajectory once untraced and then traced, in at least two rounds, writes the
first traced run's spans to perfbench/out/, and prints the per-layer
metrics. The last line of output is one JSON object: correct, attempted,
failed, metrics. The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import common

ONE_RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "one_run.py")
OUT_DIR = common.ROOT / "perfbench" / "out"
SETUP_SAMPLES = 3
# The calibration loop's time on the reference box (2 cores, Python 3.11.7,
# numpy 2.4.6) in its fast state. Timings are reported at this host speed.
CALIB_REF_S = 0.025
# A repetition ran in the host's fast state when the calibration right before
# it is within this factor of the fastest one. Past --seconds, rounds go on
# until every trajectory has two such repetitions, for at most as long again.
FAST_CALIB = 1.15
CHILD_TIMEOUT_S = 150
# counts a deterministic (inline) run must reproduce exactly
EXACT_COUNTS = (
    "evaluate.opcodes",
    "claims.class1",
    "claims.class2",
    "move21.promotions",
    "crossover.fallbacks",
)


def calibrate() -> float:
    """Fixed pure-Python plus small-numpy loop; moves only with the host.

    The fastest of three runs, taken right before each repetition.
    """
    return min(_calibration_loop() for _ in range(3))


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(20.0)
    for _ in range(10_000):
        a = a * 1.0000001 + 0.5
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, calib_s: float) -> float:
    """A time taken while the calibration loop ran in calib_s, at reference speed."""
    return seconds * CALIB_REF_S / calib_s


def launch(request: dict) -> dict | None:
    """Run one child; None when it failed (its stderr is passed through)."""
    try:
        proc = subprocess.run(
            [sys.executable, ONE_RUN, json.dumps(request)],
            cwd=common.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s: {request['config']}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"child exited {proc.returncode}: {request['config']}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"child printed no result: {request['config']}", file=sys.stderr)
        return None


def spread(values) -> float:
    """Largest minus smallest, as a share of the median."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        _, count = common.WORKLOADS[name]
        self.configs = [common.config_fields(name, s) for s in common.trajectory_seeds(seed, count)]
        self.oracles: list[dict] = []
        self.naive_s: list[float] = []
        self.untraced: list[list[dict]] = [[] for _ in self.configs]
        self.traced: list[list[dict]] = [[] for _ in self.configs]
        self.setup_s: list[float] = []
        self.calib_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0

    def run_oracles(self, poolgp) -> None:
        for fields in self.configs:
            t0 = time.perf_counter()
            result = poolgp.run_evolution_naive(poolgp.RunConfig(**fields))
            self.naive_s.append(time.perf_counter() - t0)
            self.oracles.append({
                "fitness": common.fitness_digests(result.fitness_history),
                "genomes": common.genome_digest(result.genomes),
            })

    def sample_setup(self) -> None:
        for _ in range(SETUP_SAMPLES):
            calib = calibrate()
            self.calib_s.append(calib)
            res = launch({"config": self.configs[0], "setup_only": True})
            if res is None:
                self.problems.append("set-up child failed")
            else:
                self.setup_s.append(at_reference_speed(res["setup_s"], calib))

    def check(self, i: int, res: dict | None) -> None:
        """Count failed generations of one repetition against the oracle."""
        fields = self.configs[i]
        gens = fields["generations"]
        self.attempted += gens
        if res is None:
            self.failed += gens
            return
        oracle = self.oracles[i]
        bound = common.capacity_bound(fields)
        bad = set()
        for g in range(gens):
            if g >= len(res["fitness"]) or res["fitness"][g] != oracle["fitness"][g]:
                bad.add(g)
            elif res["pool_used_peak"][g] > bound:
                bad.add(g)
            elif g >= 1 and res["pool_used_peak"][g] < fields["popsize"] + 1:
                bad.add(g)
        if res["genomes"] != oracle["genomes"] or res["peak_buffers"] > bound:
            bad.add(gens - 1)
        self.failed += len(bad)

    def repetition(self, i: int, trace: bool) -> None:
        calib = calibrate()
        self.calib_s.append(calib)
        request = {"config": self.configs[i], "trace": trace}
        if trace and not self.traced[i]:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            request["spans_path"] = str(OUT_DIR / f"{self.name}-{i}.spans.csv")
        res = launch(request)
        self.check(i, res)
        if res is not None:
            res["calib_s"] = calib
            self.setup_s.append(at_reference_speed(res["setup_s"], calib))
            (self.traced if trace else self.untraced)[i].append(res)

    def run_round(self, trace: bool) -> None:
        order = range(len(self.configs))
        if self.rounds % 2:
            order = reversed(order)
        for i in order:
            if not trace or self.rounds == 0:
                self.repetition(i, trace=False)
            if trace:
                self.repetition(i, trace=True)
        self.rounds += 1

    def fast_repetitions(self) -> int:
        """Fewest untraced repetitions of any trajectory taken in the fast state."""
        limit = FAST_CALIB * min(self.calib_s)
        return min(sum(r["calib_s"] <= limit for r in reps) for reps in self.untraced)

    # -- end-to-end ---------------------------------------------------------

    def generation_times(self) -> list[list[float]]:
        """Per trajectory, each generation's time at reference host speed.

        Every repetition's generation times are scaled by the calibration
        taken right before it; the median over repetitions is kept.
        """
        return [
            [statistics.median(col) for col in zip(*(
                [at_reference_speed(t, r["calib_s"]) for t in r["gen_s"]] for r in reps))]
            for reps in self.untraced
        ]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        if not all(self.untraced):
            return {}
        gens = self.generation_times()
        run = [sum(g) for g in gens]
        breed = [sum(g[1:]) for g in gens]
        first = [reps[0] for reps in self.untraced]
        return {
            "run_s": (statistics.mean(run), "s"),
            "children_per_s": (sum(r["children"] for r in first) / sum(breed), "1/s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_buffers": (max(r["peak_buffers"] for reps in self.untraced for r in reps), "count"),
            "peak_rss_mib": (statistics.median(r["maxrss_mib"] for reps in self.untraced for r in reps), "MiB"),
        }

    # -- per layer ----------------------------------------------------------

    def check_traced(self) -> None:
        """Traced results equal untraced ones; exact counts repeat when inline."""
        inline = self.configs[0]["nthreads"] == 0
        for i, reps in enumerate(self.traced):
            for r in reps:
                for u in self.untraced[i]:
                    if (r["fitness"], r["genomes"]) != (u["fitness"], u["genomes"]):
                        self.problems.append(f"trajectory {i}: traced result differs from untraced")
                if r["layers"]["evaluate.opcodes"] != r["opcodes"]:
                    self.problems.append(
                        f"trajectory {i}: traced opcode count {r['layers']['evaluate.opcodes']} "
                        f"!= engine's total_opcodes_evaluated {r['opcodes']}")
                if inline:
                    for key in EXACT_COUNTS:
                        if r["layers"].get(key, 0) != reps[0]["layers"].get(key, 0):
                            self.problems.append(f"trajectory {i}: {key} did not repeat exactly")

    def count_spread(self) -> float:
        worst = 0.0
        for reps in self.traced:
            if len(reps) > 1:
                for key in EXACT_COUNTS:
                    worst = max(worst, spread([r["layers"].get(key, 0) for r in reps]))
        return worst

    def per_layer(self) -> dict[str, tuple[float, str]]:
        if not all(self.traced) or not all(self.untraced):
            return {}
        first = [reps[0] for reps in self.traced]
        raw: dict[str, float] = {}
        for r in first:
            for key, value in r["layers"].items():
                raw[key] = raw.get(key, 0) + value

        def s(name):
            return raw.get(f"{name}.s", 0.0)

        def n(name):
            return raw.get(f"{name}.n", 0)

        def per(total, count, scale=1e6):
            return total / count * scale if count else 0.0

        children = sum(r["children"] for r in first)
        threaded = self.configs[0]["nthreads"] > 0
        cpu = raw.get("workers.cpu_s" if threaded else "main.cpu_s", 0.0)
        wall = raw.get("workers.wall_s", 0.0) if threaded else s("engine.run_generation")
        untraced_run = sum(
            at_reference_speed(reps[0]["run_s"], reps[0]["calib_s"]) for reps in self.untraced)
        traced_run = sum(at_reference_speed(r["run_s"], r["calib_s"]) for r in first)
        return {
            "engine.draw_outcome.s": (s("engine.draw_outcome"), "s"),
            "engine.draw_outcome.us_per_child": (per(s("engine.draw_outcome"), children), "us"),
            "engine.child_stream.us_per_child": (per(s("engine.child_stream"), children), "us"),
            "engine.gen0.s": (s("engine.run") - s("engine.run_generation"), "s"),
            "engine.lock.acquisitions": (n("engine.lock.hold"), "count"),
            "engine.lock.wait_s": (s("engine.lock.wait"), "s"),
            "engine.lock.hold_s": (s("engine.lock.hold"), "s"),
            "engine.threads.start_s": (s("engine.threads.start"), "s"),
            "engine.threads.join_wait_s": (s("engine.threads.join"), "s"),
            "engine.workers.cpu_s": (cpu, "s"),
            "engine.workers.cpu_per_wall": (cpu / wall if wall else 0.0, "cores"),
            "engine.effective_cores_reported": (
                statistics.mean(r["effective_cores"] for r in first), "cores"),
            "breeding_plan.build.s": (s("breeding_plan.build"), "s"),
            "breeding_plan.claims.class1": (raw.get("claims.class1", 0), "count"),
            "breeding_plan.claims.class2": (raw.get("claims.class2", 0), "count"),
            "breeding_plan.rem_child.calls": (n("breeding_plan.rem_child"), "count"),
            "breeding_plan.rem_child.us_per_call": (
                per(s("breeding_plan.rem_child"), n("breeding_plan.rem_child")), "us"),
            "breeding_plan.move21.calls": (n("breeding_plan.move21"), "count"),
            "breeding_plan.move21.promotions": (raw.get("move21.promotions", 0), "count"),
            "breeding_plan.move21.promote_ratio": (
                per(raw.get("move21.promotions", 0), n("breeding_plan.move21"), 1), "ratio"),
            "expr_pool.acquire.calls": (n("expr_pool.acquire"), "count"),
            "expr_pool.acquire.us_per_call": (
                per(s("expr_pool.acquire"), n("expr_pool.acquire")), "us"),
            "expr_pool.release.early": (raw.get("release.early", 0), "count"),
            "expr_pool.release.childless": (raw.get("release.childless", 0), "count"),
            "expr_pool.allocated": (max(r["allocated"] for r in first), "count"),
            "genome.subtree_crossover.us_per_child": (
                per(s("genome.subtree_crossover"), children), "us"),
            "genome.crossover.attempts_per_child": (
                per(raw.get("crossover.attempts", 0), children, 1), "ratio"),
            "genome.crossover.fallbacks": (raw.get("crossover.fallbacks", 0), "count"),
            "genome.evaluate.s": (s("genome.evaluate"), "s"),
            "genome.evaluate.ns_per_opcode": (
                per(s("genome.evaluate"), raw.get("evaluate.opcodes", 0), 1e9), "ns"),
            "genome.evaluate.opcodes": (raw.get("evaluate.opcodes", 0), "count"),
            "problems.fitness.self_us_per_eval": (
                per(raw.get("problems.fitness.self_s", 0.0), n("problems.fitness")), "us"),
            "metrics.record_generation.s": (s("metrics.record_generation"), "s"),
            "gpops_per_s": (sum(r["opcodes"] for r in first) / untraced_run, "1/s"),
            "naive.run_s": (statistics.mean(self.naive_s), "s"),
            "host.calib_s": (statistics.median(self.calib_s), "s"),
            "trace.overhead_ratio": (traced_run / untraced_run, "ratio"),
            "trace.spans": (raw.get("spans", 0), "count"),
            "trace.count_spread": (self.count_spread(), "ratio"),
        }


def print_metrics(w: Workload, metrics: dict, trace: bool) -> None:
    print(f"[{w.name}] trajectories={len(w.configs)} rounds={w.rounds} "
          f"failed={w.failed}/{w.attempted} generations")
    if not trace:
        runs = [r["run_s"] for reps in w.untraced for r in reps]
        if runs:
            print(f"  run_s per repetition: median {statistics.median(runs):.4f} "
                  f"max {max(runs):.4f} n={len(runs)}")
        print(f"  setup_s samples: median {statistics.median(w.setup_s):.4f} "
              f"max {max(w.setup_s):.4f} n={len(w.setup_s)}" if w.setup_s else "  setup_s: none")
        print(f"  host.calib_s median {statistics.median(w.calib_s):.4f} "
              f"min {min(w.calib_s):.4f} s n={len(w.calib_s)}")
        if metrics:
            runs = [sum(g) for g in w.generation_times()]
            print("  run_s per trajectory at reference host speed: "
                  + " ".join(f"{t:.4f}" for t in runs))
            opcodes = sum(reps[0]["opcodes"] for reps in w.untraced)
            print(f"  gpops_per_s = {opcodes / sum(runs):.6g} 1/s (not gated: opcodes follow "
                  "the seed's tree sizes, run time mostly does not)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {w.failed / max(1, w.attempted):g} ratio")
    for p in w.problems:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        poolgp = common.import_poolgp()
    except ImportError as exc:
        print(f"perfbench: cannot import poolgp from this checkout: {exc}", file=sys.stderr)
        return 2

    # One CPU for this process and every child. With the GIL two breeder
    # threads never run Python at the same time, and unpinned, cross-CPU
    # hand-offs made one threaded run take 3.0 to 5.1 s on the reference box
    # depending on the host's state (2.05 to 2.15 s pinned, in its fast state).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = sorted(common.WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [Workload(name, args.seed) for name in names]
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for w in workloads:
        w.run_oracles(poolgp)
        if not trace:
            w.sample_setup()

    start = time.perf_counter()
    # untraced: every generation's median is over at least three
    # repetitions, two of them taken in the host's fast state if it shows up
    min_rounds = 2 if trace else 3
    while True:
        order = workloads if workloads[0].rounds % 2 == 0 else workloads[::-1]
        for w in order:
            w.run_round(trace)
        elapsed = time.perf_counter() - start
        if workloads[0].rounds < min_rounds or elapsed < args.seconds:
            continue
        if trace or elapsed >= 2 * args.seconds or all(
                w.fast_repetitions() >= 2 for w in workloads):
            break

    all_metrics = {}
    for w in workloads:
        if trace:
            w.check_traced()
        metrics = w.per_layer() if trace else w.end_to_end()
        if not metrics:
            w.problems.append("no complete repetition to measure")
        print_metrics(w, metrics, trace)
        prefix = f"{w.name}/" if len(workloads) > 1 else ""
        all_metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    attempted = sum(w.attempted for w in workloads)
    failed = sum(w.failed for w in workloads)
    correct = failed == 0 and not any(w.problems for w in workloads)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
