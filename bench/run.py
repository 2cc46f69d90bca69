"""The verdict benchmark of the jsbaf engine.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Set-up generates the seeded corpus of instance text.  The load is a closed
loop with one client: one process, one thread, and the next instance
starts when the previous verdict returns.  Each instance is parsed from
its text into fresh objects, timed up to its verdict, and then checked,
outside its timed span, against what the paper guarantees.

``--trace 0`` makes passes over the corpus until the timed spans sum to
``--seconds`` (at least three passes), and prints the end-to-end metrics.
Each pass after the first visits the corpus in its own seeded order.

The times are scaled to a reference speed of the machine.  On a shared
virtual machine a fixed loop runs up to twice as slow in spells of seconds
to minutes, which no statistic inside one run removes.  So a probe, a fixed
piece of pure-Python work that calls nothing from jsbaf, runs at the start
and end of each pass and after every ``PROBE_EVERY_S`` of timed work; every
run in a pass, and a set-up next to it, is multiplied by
``REFERENCE_PROBE_S`` over the pass's median probe.  A change to the
program moves the scaled times as much as the wall times.  An instance's
time is the lower quartile of its scaled runs, one per pass.

``--trace 1`` makes one pass in which every instance runs untraced and
then with the span recorders, back to back, and prints the per-layer
metrics of the recorded runs with the tracing overhead.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("non-interference", "grounded-oracle", "translate", "postulate-fuzz")
SETUPS = 3  # set-ups per run (this process and two children); setup_s is their median
DIGEST_COUNT = 200  # the output digest covers the first instances of the corpus
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10
MIN_PASSES = 3
REFERENCE_PROBE_S = 1e-3  # times are reported for a machine on which one probe takes this long
PROBE_EVERY_S = 0.02  # a probe follows each instance that ends this much timed work since the last
PROBE_WINDOW = 2  # a run is scaled by the median of this many probes before it and as many after
SETUP_PROBES = 5  # the same for a set-up, which lasts a second or more
BOUNDED = ("instances_per_s", "verdict_p50_ms", "verdict_tail_ms", "setup_s", "peak_rss_mb")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, help="corpus seed; the same seed gives the same instances")
    parser.add_argument(
        "--seconds", type=float, required=True, help="timed work of a --trace 0 run"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help="distinct instances in the corpus (default: the workload's)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if options.size is not None and options.size < 1:
        parser.error("--size must be positive")
    return options


def import_package():
    """Import jsbaf from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "jsbaf" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'jsbaf'} not found; run from the root of a jsbaf checkout")
    sys.path.insert(0, str(SRC))
    import jsbaf

    if Path(jsbaf.__file__).resolve().parent != SRC / "jsbaf":
        sys.exit(f"error: jsbaf was imported from {jsbaf.__file__}, not from {SRC}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lower_quartile(runs: list[float]) -> float:
    """By nearest rank."""
    return sorted(runs)[len(runs) // 4]


class Tally:
    """Timed runs and verdict accounting, by corpus index."""

    def __init__(self):
        self.times: dict[int, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.failures: list[str] = []
        self.outputs: dict[int, str] = {}  # corpus index -> digest of its canonical output

    def fail(self, index: int, message: str):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"instance {index}: {message}")

    def instance_times(self) -> list[float]:
        """Each timed instance's lower-quartile run."""
        return [lower_quartile(runs) for runs in self.times.values()]

    def digest(self, count: int) -> str:
        return sha256("\n".join(self.outputs.get(i, "missing") for i in range(count)))


def run_instance(workload, seed, index, instance, tally, check=True, installation=None) -> float:
    """Time one verdict, then account for it outside the timed span; returns
    the time.

    With ``check``, the first verdict on each corpus index goes through the
    workload's check; every later one must repeat its output.  With an
    ``installation``, the span recorders are applied only while timed.
    """
    from jsbaf.errors import ResourceLimitError

    if installation is not None:
        installation.apply()
    error = None
    started = time.perf_counter()
    try:
        verdict = workload.solve(instance)
    except Exception as exc:  # inconclusive, or a failure; the run goes on either way
        error = exc
    elapsed = time.perf_counter() - started
    if installation is not None:
        installation.restore()
    tally.times.setdefault(index, []).append(elapsed)
    tally.attempted += 1

    inconclusive, problem = False, None
    if isinstance(error, ResourceLimitError):
        output, inconclusive = f"inconclusive: {error}", True
    elif error is not None:
        output, problem = f"raised {type(error).__name__}", f"raised {type(error).__name__}: {error}"
    else:
        outcome = workload.outcome(verdict)
        output, inconclusive = outcome.output, outcome.inconclusive
        if check and index not in tally.outputs:
            try:
                problem = workload.check(seed, index, instance, verdict)
            except Exception as exc:  # the check itself failing is a failure
                problem = f"check raised {type(exc).__name__}: {exc}"
    digest = sha256(output)
    if tally.outputs.setdefault(index, digest) != digest:
        problem = "output differs from the first verdict on the same text"
    if problem is not None:
        tally.fail(index, problem)
    elif inconclusive:
        tally.inconclusive += 1
    return elapsed


def probe() -> float:
    """The time of a fixed piece of pure-Python work in the program's style:
    small frozensets, a dict, sorting, hashing and bit operations.  It calls
    nothing from jsbaf, so no change to the program moves it."""
    started = time.perf_counter()
    acc = 0
    table = {}
    for i in range(400):
        s = frozenset(range(i % 13, i % 13 + 6))
        t = frozenset(range(i % 7, i % 7 + 5))
        table[i % 31, i % 17] = len(s & t) + len(s | t)
        acc ^= hash(tuple(sorted(s - t))) & 0xFFFF
        mask = 0
        for j in s:
            mask |= 1 << j
        acc += mask.bit_count()
    return time.perf_counter() - started


def speed(probes: list[float]) -> float:
    """The factor that scales a time measured next to these probes."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def tail(times: list[float], distinct: int) -> tuple[float, float]:
    """(percentile, seconds): the highest ladder percentile with at least ten
    of the corpus' distinct instances beyond it, by nearest rank.  Tying the
    percentile to the corpus keeps it fixed for a workload, so that runs of
    different speed stay comparable."""
    percentile = next(
        (p for p in TAIL_LADDER if distinct * (100.0 - p) / 100.0 >= MIN_BEYOND_TAIL), 50.0
    )
    ordered = sorted(times)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return percentile, ordered[rank - 1]


def child_setup(options) -> tuple[float, str]:
    """One more set-up in a fresh interpreter: (setup_s, corpus digest)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", options.workload,
        "--seed", options.seed, "--seconds", "0", "--setup-only",
    ]
    if options.size is not None:
        command += ["--size", str(options.size)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report["setup_s"], report["corpus"]


def print_result(correct: bool, attempted: int, failed: int, metrics: dict):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


def report_failures(tally: Tally):
    for line in tally.failures:
        print(f"failure: {line}", file=sys.stderr)


def timed_run(options, workload, corpus, setup_s, corpus_digest) -> int:
    tally = Tally()
    digest_count = min(DIGEST_COUNT, len(corpus))
    # the run's own set-up ended just now; a repeated one gets probes on both sides
    setup_wall = [setup_s]
    setups = [setup_s * speed([probe() for _ in range(2 * SETUP_PROBES)])]
    same_corpus = True
    scaled: dict[int, list[float]] = {}
    timed = 0.0
    passes = 0
    while timed < options.seconds or passes < MIN_PASSES:
        order = list(range(len(corpus)))
        if passes:  # each later pass in its own seeded order, so that no
            # instance keeps meeting the same moment of a periodic disturbance
            random.Random(f"{options.seed}-pass-{passes}").shuffle(order)
        probes = [probe()]
        runs = []  # (corpus index, seconds, probes before it)
        since = 0.0
        for index in order:
            elapsed = run_instance(workload, options.seed, index, corpus[index], tally)
            runs.append((index, elapsed, len(probes)))
            timed += elapsed
            since += elapsed
            if since >= PROBE_EVERY_S:
                probes.append(probe())
                since = 0.0
        probes.append(probe())
        for index, elapsed, before in runs:
            nearby = probes[max(0, before - PROBE_WINDOW) : before + PROBE_WINDOW]
            scaled.setdefault(index, []).append(elapsed * speed(nearby))
        passes += 1
        # the repeated set-ups run between passes, a third and two thirds of
        # the way through, so that they meet the machine at other moments
        while len(setups) < SETUPS and timed >= options.seconds * len(setups) / SETUPS:
            before = [probe() for _ in range(SETUP_PROBES)]
            child_s, child_digest = child_setup(options)
            after = [probe() for _ in range(SETUP_PROBES)]
            setup_wall.append(child_s)
            setups.append(child_s * speed(before + after))
            if child_digest != corpus_digest:
                print("error: a repeated set-up generated a different corpus", file=sys.stderr)
                same_corpus = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_instance = [lower_quartile(runs) for runs in scaled.values()]
    percentile, tail_s = tail(per_instance, len(corpus))
    report = {
        "instances_per_s": (len(per_instance) / sum(per_instance), "1/s"),
        "verdict_p50_ms": (statistics.median(per_instance) * 1000.0, "ms"),
        "verdict_tail_ms": (tail_s * 1000.0, "ms"),
        "inconclusive_ratio": (tally.inconclusive / tally.attempted, "ratio"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = tally.instance_times()
    print(
        f"workload {workload.name}, seed {options.seed}: {len(per_instance)} distinct instances, "
        f"{passes} passes, {tally.attempted} timed runs in {timed:.3f} s; "
        "closed loop, one client"
    )
    print(f"  times are scaled to a probe of {REFERENCE_PROBE_S * 1000.0:g} ms; unscaled figures follow them")
    for name, (value, unit) in report.items():
        note = ""
        if name == "verdict_tail_ms":
            note = f"  (p{percentile:g} of {len(per_instance)} instances)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in setups) + ")"
        print(f"  {name:<20} {value:.6g} {unit}{note}")
    print(
        f"  unscaled wall time: instances_per_s {len(wall) / sum(wall):.6g}, "
        f"verdict_p50_ms {statistics.median(wall) * 1000.0:.6g}, "
        f"verdict_tail_ms {tail(wall, len(corpus))[1] * 1000.0:.6g}, "
        f"setup_s {statistics.median(setup_wall):.6g}"
    )
    print(f"  output digest, first {digest_count} instances: {tally.digest(digest_count)}")
    print(f"  corpus digest: {corpus_digest}")
    report_failures(tally)

    correct = same_corpus and tally.failed == 0
    print_result(correct, tally.attempted, tally.failed, {name: report[name] for name in BOUNDED})
    return 0 if correct else 1


def traced_run(options, workload, corpus, setup_tracer) -> int:
    """Untraced and recorded runs alternate instance by instance, so that a
    slow spell of the machine weighs on both sides of the overhead alike."""
    import spans

    tracer = spans.Tracer()
    installation = spans.install(tracer)
    installation.restore()
    untraced, traced = Tally(), Tally()
    for index, instance in enumerate(corpus):
        run_instance(workload, options.seed, index, instance, untraced)
        run_instance(workload, options.seed, index, instance, traced, check=False, installation=installation)

    metrics = spans.layer_metrics(tracer, setup_tracer)
    untraced_ips = len(corpus) / sum(untraced.instance_times())
    traced_ips = len(corpus) / sum(traced.instance_times())
    metrics["trace.instances_per_s"] = (traced_ips, "1/s")
    metrics["trace.overhead_per_s"] = (traced_ips - untraced_ips, "1/s")
    metrics["trace.overhead_ratio"] = ((untraced_ips - traced_ips) / untraced_ips, "ratio")

    digest_count = min(DIGEST_COUNT, len(corpus))
    same_outputs = untraced.outputs == traced.outputs
    dead = spans.dead_layers(workload.name, tracer, setup_tracer)
    print(f"workload {workload.name}, seed {options.seed}: {len(corpus)} instances, each untraced and traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(f"  output digest, first {digest_count} instances: {traced.digest(digest_count)}")
    if not same_outputs:
        print("error: traced and untraced runs gave different outputs", file=sys.stderr)
    if dead:
        print(f"error: layers recorded no calls: {', '.join(dead)}", file=sys.stderr)
    report_failures(untraced)
    report_failures(traced)

    failed = untraced.failed + traced.failed
    correct = failed == 0 and same_outputs and not dead
    print_result(correct, untraced.attempted + traced.attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    options = parse_args(argv)
    import_package()
    import workloads

    workload = workloads.WORKLOADS[options.workload]
    size = options.size or workload.size
    setup_tracer = installation = None
    if options.trace:
        import spans

        setup_tracer = spans.Tracer()
        installation = spans.install(setup_tracer)
    try:
        corpus = workload.corpus(options.seed, size)
    finally:
        if installation is not None:
            installation.restore()
    setup_s = time.perf_counter() - STARTED
    corpus_digest = sha256(json.dumps(corpus))
    if options.setup_only:
        print(json.dumps({"setup_s": setup_s, "corpus": corpus_digest}))
        return 0
    if options.trace:
        return traced_run(options, workload, corpus, setup_tracer)
    return timed_run(options, workload, corpus, setup_s, corpus_digest)


if __name__ == "__main__":
    sys.exit(main())
