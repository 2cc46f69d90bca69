"""Self-test of the benchmark: python3 bench/selftest.py (from the checkout root).

1. Every workload runs at a tiny size, untraced and traced, through the
   benchmark's own command.  Each run must exit 0 with ``correct`` true,
   print the metrics BENCHMARK.json lists with their units, and, when
   traced, pass the liveness check (every expected layer recorded calls).
2. On the criterion-7 corpus of the acceptance suite (seed
   ``acceptance-non-interference``, 50 pairs), the traced enumerator must
   scan exactly 10,178,993 candidate IN-sets.  This takes about half a
   minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = {"non-interference": 8, "grounded-oracle": 30, "translate": 10, "postulate-fuzz": 50}
CRITERION_7_SEED = "acceptance-non-interference"
CRITERION_7_SEARCH_SPACE = 10_178_993


def run_tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "selftest",
        "--seconds", "1", "--trace", str(trace), "--size", str(TINY[workload]),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_tiny_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(TINY), f"BENCHMARK.json lists workloads the benchmark lacks: {names}"
    for workload in TINY:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = run_tiny(workload, trace)
            assert result["correct"] and result["failed"] == 0, f"{workload} --trace {trace}: {result}"
            assert result["attempted"] >= 1
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            wanted = {metric["name"]: metric["unit"] for metric in listed}
            assert printed == wanted, f"{workload} --trace {trace}: metrics {printed} != {wanted}"
            if trace == 0:
                # the report lines carry all seven end-to-end metrics, the
                # two ratios that are not bounded in BENCHMARK.json included
                units = {line.split()[0]: line.split()[2] for line in lines[1:-1] if len(line.split()) >= 3}
                for name, unit in (*wanted.items(), ("inconclusive_ratio", "ratio"), ("failed_ratio", "ratio")):
                    assert units.get(name) == unit, f"{workload}: {name} not printed with unit {unit}"
            print(f"PASS {workload} --trace {trace}")


def check_criterion_7_search_space():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads
    from jsbaf import textio

    pairs = workloads.non_interference_pairs(CRITERION_7_SEED, 50)
    instances = [
        ("raw" if i % 2 == 0 else "interleave", textio.format_system(s1), textio.format_system(s2))
        for i, (s1, s2) in enumerate(pairs)
    ]
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        for instance in instances:
            workloads.solve_non_interference(instance)
    finally:
        installation.restore()
    search_space = tracer.counts["framework.search_space"]
    assert search_space == CRITERION_7_SEARCH_SPACE, f"search space {search_space}"
    print(f"PASS criterion-7 corpus: framework.search_space = {search_space}")


if __name__ == "__main__":
    check_tiny_runs()
    check_criterion_7_search_space()
