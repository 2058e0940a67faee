"""Seeded end-to-end and per-layer benchmark of nielsenkit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload survey-r2 --seed 1 --seconds 50 --trace 0

The program is imported from `src/` of the checkout and runs in this one
process and thread.  One run:

1. set-up: nine fresh interpreters import nielsenkit and generate the
   workload's inputs from --seed; `setup_s` is the median of their times;
2. correctness gate: `nielsenkit emit-corpus` then `nielsenkit verify --suite`
   must exit 0;
3. the first pass runs every instance once, timed, and checks each output
   from outside the program (workloads.py); fingerprint counts and a sha256
   of all outputs are printed;
4. more passes, each in a fresh seeded order, until --seconds have passed
   since the first began; every output must equal the instance's first.
   With --trace 0 the end-to-end metrics come from per-instance median
   latencies.  With --trace 1 traced and untraced passes alternate; the
   traced ones give the per-layer metrics, and their spans are written to
   .perfbench_out/.

Every time reported is scaled to a nominal host speed (hostspeed.py); the
raw figures are printed above the result.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  Exit 0 when every
check passed, 1 when one failed, 2 when the program cannot be imported from
this checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Tune and first measure a change on seed 1; confirm a claimed gain on the
# held-out seed 2, which its author did not tune on.
DEFAULT_SEED = 1
SETUP_REPEATS = 9
# Some route analyses never finish (see README.md).  An instance is
# abandoned, and tallied as such, once its calls to Endomorphism.apply have
# taken APPLY_BUDGET letters in all: a budget of work, unlike one of time,
# gives up on the same instances in every run.  The slowest instance that
# finishes takes ~1.4M letters.  WALL_LIMIT_S backs the budget up for loops
# that do not go through apply.
APPLY_BUDGET = 2_000_000
WALL_LIMIT_S = 10
PERCENTILES = (50, 90, 95, 99, 99.9)

END_TO_END = (
    ("inst_per_s", "1/s", "higher"),
    ("inst_p50_ms", "ms", "lower"),
    ("inst_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("certified_frac", "ratio", "higher"),
)


class ProgramMissing(RuntimeError):
    pass


class InstanceLimit(Exception):
    """Raised in the running instance when its budget or time runs out."""


def _limit_expired(signum, frame):
    raise InstanceLimit


def import_program():
    """Import nielsenkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "nielsenkit" / "__init__.py").is_file():
        raise ProgramMissing(f"no nielsenkit package under {src}")
    sys.path.insert(0, str(src))
    import nielsenkit
    import nielsenkit.cli
    import nielsenkit.sampling
    if Path(nielsenkit.__file__).resolve().parent != (src / "nielsenkit").resolve():
        raise ProgramMissing(f"nielsenkit imported from {nielsenkit.__file__}")
    return nielsenkit


def setup_seconds(args) -> float:
    """Median scaled set-up time over fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--instances", str(args.instances)]
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def corpus_gate() -> list[str]:
    """`nielsenkit verify --suite` over the emitted corpus must exit 0."""
    corpus = OUT / "corpus"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    problems = []
    for argv in (["emit-corpus", str(corpus)], ["verify", "--suite", str(corpus)]):
        res = subprocess.run([sys.executable, "-m", "nielsenkit.cli", *argv],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=120)
        if res.returncode != 0:
            problems.append(f"nielsenkit {argv[0]} exited {res.returncode}: "
                            f"{(res.stdout + res.stderr)[-400:]}")
            break
    return problems


class Run:
    """The instances of one workload and everything measured on them."""

    def __init__(self, nk, name: str, inputs):
        self.nk, self.name, self.inputs = nk, name, inputs
        self.wl = workloads.WORKLOADS[name]
        self.run_one = workloads.runner(self.wl)
        self.check = workloads.checker(self.wl)
        self.expected: list = [None] * len(inputs)
        self.speed = hostspeed.HostSpeed()
        self.tracer = None          # a spans.Tracer told which instance runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.budget = APPLY_BUDGET      # letters left for the running instance
        signal.signal(signal.SIGALRM, _limit_expired)
        cls = nk.words.Endomorphism
        original = getattr(cls.apply, "__wrapped__", cls.apply)

        def apply(endo, w):
            self.budget -= len(w)
            if self.budget < 0:
                raise InstanceLimit
            return original(endo, w)

        apply.__wrapped__ = original
        cls.apply = apply

    def execute(self, i: int) -> tuple[float, float]:
        """Run instance i; returns its start and latency.  Its first output
        is checked and kept; every later one must equal it byte for byte."""
        self.speed.sample()
        if self.tracer is not None:
            self.tracer.instance = i
        self.budget = APPLY_BUDGET
        signal.setitimer(signal.ITIMER_REAL, WALL_LIMIT_S)
        t0 = time.perf_counter()
        try:
            text = self.run_one(self.nk, self.inputs[i])
        except self.nk.rtt.StructureViolation as exc:
            text = workloads.STRUCTURE_ERROR + str(exc)
        except self.nk.invariants.AnalysisError as exc:
            text = f"AnalysisError: {exc}"
        except InstanceLimit:
            text = workloads.ABANDONED
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        self.attempted += 1
        if self.expected[i] is None:
            self.expected[i] = text
            for why in self.check(self.inputs[i], text):
                self.fail(i, why)
        elif text != self.expected[i]:
            self.fail(i, "output differs from its first run")
        return t0, dt

    def fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"instance {i} {self.inputs[i]}: {why}")

    def answered(self, i: int) -> bool:
        return self.expected[i] != workloads.ABANDONED

    def order(self, seed: int, p: int) -> list[int]:
        """The instances of pass p in a seeded order; after the first pass
        only those it answered."""
        order = [i for i in range(len(self.inputs)) if not p or self.answered(i)]
        random.Random(f"order-{seed}-{p}").shuffle(order)
        return order

    def first_pass(self, seed: int) -> tuple[list, dict]:
        """Every instance once, timed and checked; returns the (start,
        latency) pairs and the fingerprint.  One counting hook tallies
        attraction verdicts."""
        runs: list = [None] * len(self.inputs)
        counter = spans.Tracer(self.nk, layers={"boundary.attraction_check"},
                               keep_spans=0)

        def body():
            for i in self.order(seed, 0):
                runs[i] = self.execute(i)

        counter.run_pass(body)
        return runs, workloads.fingerprint(self.wl, self.expected, counter.count)

    def full_pass(self, seed: int, p: int) -> tuple[float, float]:
        """Pass p; returns its raw and scaled seconds."""
        raw = scaled = 0.0
        for i in self.order(seed, p):
            t0, dt = self.execute(i)
            raw += dt
            scaled += dt * self.speed.scale(t0)
        return raw, scaled


def timed_samples(run: Run, first: list, deadline: float, seed: int) -> list:
    """(start, latency) pairs per instance: the first pass, then further
    passes in fresh seeded orders until the deadline."""
    samples = [[r] if run.answered(i) else [] for i, r in enumerate(first)]
    for p in itertools.count(1):
        for i in run.order(seed, p):
            if time.perf_counter() >= deadline:
                return samples
            samples[i].append(run.execute(i))


def tail_percentile(n: int) -> float:
    """The highest of PERCENTILES with at least ten samples beyond it."""
    return max(q for q in PERCENTILES if q == 50 or n * (100 - q) / 100 >= 10)


def latency_metrics(lat: list[float]) -> tuple[dict, float]:
    """Throughput and latency percentiles of per-instance latencies."""
    lat = sorted(lat)
    q = tail_percentile(len(lat))
    tail = statistics.quantiles(lat, n=1000, method="inclusive")[round(10 * q) - 1]
    return {
        "inst_per_s": len(lat) / sum(lat),
        "inst_p50_ms": 1000 * statistics.median(lat),
        "inst_tail_ms": 1000 * tail,
    }, q


def end_to_end(run: Run, samples: list) -> dict:
    answered = [s for s in samples if s]
    scaled, q = latency_metrics(
        [statistics.median(dt * run.speed.scale(t0) for t0, dt in s) for s in answered])
    raw, _ = latency_metrics([statistics.median(dt for _, dt in s) for s in answered])
    runs = [len(s) for s in answered]
    print(f"inst_tail_ms is p{q} of n={len(answered)} per-instance medians "
          f"({min(runs)}-{max(runs)} runs per instance)")
    print(f"host ran {run.speed.slowdown():.2f}x the nominal loop time; raw: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + f", peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return scaled


def traced_metrics(run: Run, first: list, deadline: float, seed: int) -> dict:
    """Traced and untraced passes alternate after the first pass until the
    deadline; per-layer metrics are medians over the traced passes."""
    tracer = run.tracer = spans.Tracer(run.nk)
    answered = [r for i, r in enumerate(first) if run.answered(i)]
    n = len(answered)
    plain = [sum(dt * run.speed.scale(t0) for t0, dt in answered)]
    traced, layers = [], []
    for p in itertools.count(1):
        if traced and time.perf_counter() >= deadline:
            break
        if p % 2:
            raw, scaled = tracer.run_pass(lambda: run.full_pass(seed, p))
            traced.append(scaled)
            layers.append(tracer.pass_totals(scale=scaled / raw))
        else:
            plain.append(run.full_pass(seed, p)[1])
    out = {name: statistics.median(t[name] for t in layers)
           for name, _, _ in spans.METRICS}
    out["trace.overhead_inst_per_s"] = (n / statistics.median(traced)
                                       - n / statistics.median(plain))
    tracer.write(OUT / f"spans-{run.name}-seed{seed}.jsonl")
    print(f"trace: {len(traced)} traced and {len(plain)} untraced passes; "
          f"{tracer.dropped} spans beyond the first {tracer.keep_spans} not kept")
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=None,
                    help="instances per run (default: the workload's own)")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate only; print the scaled set-up time")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    if args.instances is None:
        args.instances = wl.instances
    if args.instances < 1 or args.seconds <= 0:
        ap.error("--instances and --seconds must be positive")
    return args, wl


def main(argv=None) -> int:
    args, wl = parse_args(argv)
    try:
        nk, import_s = hostspeed.timed(import_program)
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    inputs, generate_s = hostspeed.timed(
        lambda: workloads.generate(nk, wl, args.seed, args.instances))
    if args.setup_only:
        print(json.dumps({"setup_s": import_s + generate_s}))
        return 0

    OUT.mkdir(exist_ok=True)
    setup_s = setup_seconds(args)
    gate = corpus_gate()
    run = Run(nk, args.workload, inputs)
    deadline = time.perf_counter() + args.seconds
    first, fp = run.first_pass(args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(inputs)} instances")
    print("fingerprint " + json.dumps(fp, sort_keys=True))

    if args.trace:
        metrics = traced_metrics(run, first, deadline, args.seed)
        units = {name: unit for name, unit, _ in spans.METRICS}
    else:
        metrics = end_to_end(run, timed_samples(run, first, deadline, args.seed))
        metrics["setup_s"] = setup_s
        metrics["certified_frac"] = workloads.certified_frac(wl, fp)
        units = {name: unit for name, unit, _ in END_TO_END}

    for why in gate:
        print("corpus gate failed: " + why)
    for why in run.problems:
        print("check failed: " + why)
    print(f"fail_frac {run.failed / max(1, run.attempted):.6g} "
          f"({run.failed} of {run.attempted} attempted)")
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:14.6g} {unit}")
    correct = not gate and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
