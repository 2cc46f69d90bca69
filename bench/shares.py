"""Size bands' shares of each stratified workload's natural distribution.

    python3 bench/shares.py <non-interference|grounded-oracle|translate> <draws>

Run from the root of a checkout.  Draws ``draws`` unfiltered instances of
the workload's generator (seed ``natural``) and prints, for each stratum of
its corpus and for the sizes no stratum takes, the share of the accepted
draws and the stratum's count in the default corpus.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

STRATIFIED = {
    "non-interference": (workloads.NI_STRATA, workloads._draw_pair),
    "grounded-oracle": (workloads.GROUNDED_STRATA, workloads._draw_ground),
    "translate": (workloads.TRANSLATE_STRATA, workloads._draw_system),
}


def main(name: str, draws: int):
    strata, draw = STRATIFIED[name]
    sizes = [d[0] for d in (draw(workloads._rng("natural", i)) for i in range(draws)) if d is not None]
    print(f"{name}: {len(sizes)} of {draws} draws accepted")
    print(f"{'sizes':>12} {'share':>7} {'count':>6}")
    taken = set()
    for low, high, count in strata:
        inside = [i for i, size in enumerate(sizes) if low <= size and (high is None or size <= high)]
        taken.update(inside)
        label = f"{low}-{'' if high is None else high}"
        print(f"{label:>12} {len(inside) / len(sizes):7.4f} {count:6d}")
    left = sorted(size for i, size in enumerate(sizes) if i not in taken)
    if left:
        print(f"{'not drawn':>12} {len(left) / len(sizes):7.4f}       sizes {left[0]}-{left[-1]}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
