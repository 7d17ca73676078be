"""Seeded end-to-end and per-layer benchmark of the maxlin2 package.

Run from the root of a checkout:

    python3 bench/run.py --workload occ2-mixed --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload, one process each
    python3 bench/run.py --self-check      # generator claims, count repeatability

One run drives one workload with a single closed-loop client: one op at a
time, no threads. The op batch is fixed by the seed; the run repeats it in
passes while the time left holds another pass. With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics, taken
from traced passes that alternate with untraced ones. A full record with
per-op sizes and latencies goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import generators  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
TAIL_BEYOND = 10
# The speed of a shared host swings by up to 1.6x for tens of seconds at a
# time (seen with fixed loops on a 2-vCPU VM), which would swamp the bounds.
# So every reported time is scaled by CALIBRATION_REFERENCE_S over the median
# time of a fixed calibration run between the ops of the same pass or set-up,
# which gives seconds at a fixed reference speed; raw times go to the record.
CALIBRATION_REFERENCE_S = 0.006
SUBMODULES = ("baseline", "bipartize", "core", "formats", "gadgets", "occ2", "twovar")


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


def load_package():
    """Import maxlin2 afresh from the checkout's ``src`` directory."""
    for name in [n for n in sys.modules if n == "maxlin2" or n.startswith("maxlin2.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("maxlin2")
        for sub in SUBMODULES:
            importlib.import_module(f"maxlin2.{sub}")
    except ImportError as exc:
        raise SetupError(f"cannot import maxlin2 from {SRC}: {exc}") from None
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"maxlin2 resolved to {pkg.__file__}, outside {SRC}")
    return pkg


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Calibrator:
    """Times a fixed workload that tracks the host's current speed.

    An integer loop follows the CPU's clock; random reads from a 4 MiB table,
    larger than the L2 cache, follow the contention for cache and memory
    that slows the package's heap-heavy ops but not the loop. Neither part
    allocates anything that survives, so the package's heap does not slow it.
    """

    def __init__(self) -> None:
        size = 512 * 1024
        self.table = array.array("q", range(size))
        self.order = random.Random(0).sample(range(size), 20000)

    def __call__(self) -> float:
        start = perf_counter()
        acc = 0
        for i in range(20000):
            acc ^= (i * 2654435761) & 0xFFFF
        table = self.table
        for j in self.order:
            acc ^= table[j]
        return perf_counter() - start


def generator_problems(pkg, seed: int) -> list[str]:
    """Generator claims on tiny instances, judged by the brute-force oracle."""

    def oracle(n, rows):
        system = pkg.core.LinSystem.build(n, rows)
        return pkg.baseline.brute_force_min_falsified(system).falsified_weight

    return generators.tiny_checks(seed, oracle)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND values above it."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


class Run:
    """One workload, one seed: set-up, timed passes, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: int, traced: bool) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tracer = spans.Tracer()
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.check_counts: Counter = Counter()
        self.calibrate = Calibrator()

    def set_up(self) -> None:
        """Import, generate the batch and warm up, SETUP_REPS times."""
        self.setup_times = []
        self.raw_setup_times = []
        for _ in range(SETUP_REPS):
            scale = CALIBRATION_REFERENCE_S / statistics.median(self.calibrate() for _ in range(5))
            start = perf_counter()
            self.pkg = load_package()
            self.ops = self.workload.build(random.Random(self.seed), self.pkg)
            warm = self.workload.build(random.Random(self.seed), self.pkg, tiny=True)
            for op in warm:
                try:
                    self.workload.run(self.pkg, op)
                except Exception as exc:  # a broken program fails the run, not the benchmark
                    self.problems.append(f"warm-up {op.kind}: {exc!r}")
            self.raw_setup_times.append(perf_counter() - start)
            self.setup_times.append(self.raw_setup_times[-1] * scale)
        self.latencies: list[list[float]] = [[] for _ in self.ops]
        self.digests: list[object] = [None] * len(self.ops)
        self.output_m = [0] * len(self.ops)
        self.expanded = [None] * len(self.ops)

    def measure(self) -> None:
        """Run passes over the batch while another pass fits in the time left."""
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.raw_walls: list[float] = []
        self.calibrations: list[float] = []
        self.layer_passes: list[tuple[Counter, Counter]] = []
        start = perf_counter()
        index = 0
        while True:
            traced = self.traced and index % 3 != 0
            began = perf_counter()
            self._pass(traced)
            index += 1
            elapsed = perf_counter() - start
            enough = not self.traced or (self.walls[False] and len(self.layer_passes) >= 2)
            if enough and elapsed + (perf_counter() - began) > self.seconds:
                break

    def _pass(self, traced: bool) -> None:
        tracer = self.tracer
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        wall = 0.0
        elapsed_of = [0.0] * len(self.ops)
        calibrations = []
        try:
            for i, op in enumerate(self.ops):
                self.attempted += 1
                calibrations.append(self.calibrate())
                expanded_before = tracer.counts["bipartize.expanded_edges"]
                start = perf_counter()
                try:
                    answer = self.workload.run(self.pkg, op)
                except Exception as exc:  # counted as a failed op
                    answer = None
                    self.failures.append(f"{op.kind} #{i}: {exc!r}")
                elapsed_of[i] = perf_counter() - start
                wall += elapsed_of[i]
                if traced:
                    self.expanded[i] = tracer.counts["bipartize.expanded_edges"] - expanded_before
                if answer is None:
                    continue
                tracer.paused = True
                try:
                    self._verify(i, op, answer)
                finally:
                    tracer.paused = False
                del answer
        finally:
            if traced:
                tracer.uninstall()
        calibration = statistics.median(calibrations)
        scale = CALIBRATION_REFERENCE_S / calibration
        self.calibrations.append(calibration)
        self.walls[traced].append(wall * scale)
        if traced:
            self_s = Counter({span: t * scale for span, t in tracer.self_s.items()})
            self.layer_passes.append((self_s, Counter(tracer.counts)))
        else:
            self.raw_walls.append(wall)
            for i, elapsed in enumerate(elapsed_of):
                self.latencies[i].append(elapsed * scale)

    def _verify(self, i: int, op, answer) -> None:
        """Full check the first time an op succeeds; digest match afterwards."""
        try:
            if self.digests[i] is not None:
                if self.workload.digest(answer) != self.digests[i]:
                    self.failures.append(f"{op.kind} #{i}: answer differs from the checked pass")
                return
            problem = self.workload.check(self.pkg, op, answer, self.check_counts)
            if problem is None:
                self.digests[i] = self.workload.digest(answer)
                self.output_m[i] = answer.output_m
        except Exception as exc:  # a check that cannot run is a failed op
            problem = f"check raised {exc!r}"
        if problem is not None:
            self.failures.append(f"{op.kind} #{i}: {problem}")

    def check_claims(self) -> None:
        """Generator claims on tiny instances, and count repeatability."""
        self.problems += generator_problems(self.pkg, self.seed)
        counts = [c for _, c in self.layer_passes]
        if any(c != counts[0] for c in counts[1:]):
            self.problems.append("per-layer counts differ between traced passes")

    def end_to_end(self) -> dict[str, float]:
        per_op = [statistics.median(t) for t in self.latencies if t]
        tail_value, self.tail_pct = tail(per_op)
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": statistics.median(self.walls[False]),
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "output_m": sum(self.output_m),
        }

    def per_layer(self, names) -> dict[str, float]:
        times = {
            span: statistics.median(s[span] for s, _ in self.layer_passes)
            for span in set().union(*(s for s, _ in self.layer_passes))
        }
        counts = self.layer_passes[0][1] + self.check_counts
        values = {}
        for name in names:
            if name == "trace.overhead_s":
                value = statistics.median(self.walls[True]) - statistics.median(self.walls[False])
            elif name == "gadgets.blowup":
                value = counts["gadgets.out_m"] / counts["gadgets.in_m"] if counts["gadgets.in_m"] else 0.0
            elif name.endswith("_s"):
                value = times.get(name[:-2], 0.0)
            else:
                value = counts.get(name, 0)
            values[name] = value
        return values


def run_one(args, spec: dict) -> int:
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.set_up()
    run.measure()
    run.check_claims()
    e2e = run.end_to_end()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = run.per_layer([m["name"] for m in declared]) if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
    }
    failed = len(run.failures)
    print(f"workload {args.workload}, trace {args.trace}, " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"passes: {len(run.walls[False])} untraced, {len(run.walls[True])} traced; "
          f"set-up repeated {SETUP_REPS} times")
    print(f"host speed: calibration {statistics.median(run.calibrations) * 1e3:.3f} ms "
          f"(reference {CALIBRATION_REFERENCE_S * 1e3} ms); times are scaled to the reference; "
          f"raw wall_s {statistics.median(run.raw_walls)} s, "
          f"raw setup_s {statistics.median(run.raw_setup_times)} s")
    for name, metric in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{run.tail_pct:.1f} of {len(run.ops)} ops, {TAIL_BEYOND} beyond)"
        print(f"  {name} = {metric['value']} {metric['unit']}{note}")
    print(f"  error_rate = {failed / run.attempted} ({failed} of {run.attempted} ops failed)")
    for message in (run.problems + run.failures)[:20]:
        print(f"  problem: {message}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "metrics": metrics,
        "error_rate": failed / run.attempted,
        "op_tail_percentile": run.tail_pct,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "calibrations_s": run.calibrations,
        "raw_walls_s": run.raw_walls,
        "raw_setup_s": run.raw_setup_times,
        "problems": run.problems,
        "failures": run.failures,
        "ops": [
            dict(kind=op.kind, **op.size, M=m, out_m=out, seconds=lat)
            for op, m, out, lat in zip(run.ops, run.expanded, run.output_m, run.latencies)
        ],
    }
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def child(workload: str, seed: int, seconds: int, trace: int, capture: bool):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=capture, text=True)


def run_all(args) -> int:
    codes = [child(name, args.seed, args.seconds, args.trace, False).returncode
             for name in WORKLOADS]
    return max(codes)


def self_check(args, spec: dict) -> int:
    """Tiny generator claims, then two traced runs of each workload compared."""
    problems = generator_problems(load_package(), args.seed)
    print(f"generator claims on tiny instances: {len(problems)} failed")
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    for name in WORKLOADS:
        results = []
        for _ in range(2):
            proc = child(name, args.seed, 1, 1, True)
            if proc.returncode != 0:
                problems.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
                break
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if len(results) < 2:
            continue
        if not all(r["correct"] for r in results):
            problems.append(f"{name}: a run reported incorrect output")
        differ = [
            f"{metric} {a} vs {b}"
            for metric in counted
            for a, b in [(r["metrics"][metric]["value"] for r in results)]
            if a != b
        ]
        problems += [f"{name}: differs between runs: {d}" for d in differ]
        print(f"{name}: {len(counted) - len(differ)} of {len(counted)} per-layer counts repeat")
    for message in problems:
        print(f"problem: {message}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        spec = load_spec()
        if args.self_check:
            return self_check(args, spec)
        if args.workload is None:
            return run_all(args)
        load_package()
        return run_one(args, spec)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
