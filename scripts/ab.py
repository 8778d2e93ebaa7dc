"""A/B-compare two source trees on one benchmark workload, in alternating pairs of runs.

    python3 scripts/ab.py PARENT_TREE CHANGE_TREE --workload W --pairs K --seconds S [--seed N]

Each tree is a full checkout (``bench/run.py`` and ``src/``).  Pair i runs
``bench/run.py --workload W --seed N --seconds S --trace 0`` once in each
tree, from the tree's root, the parent first on even i and the change first
on odd i, so a drift of the machine's speed over the runs falls on both
sides alike; after each pair it prints both sides' ``wall_s`` and
``cpu_s_per_call``.  For every end-to-end metric of ``BENCHMARK.json`` it prints
q1/median/q3 of each side, the change of the median relative to the parent's
and against its bound, the median over the pairs of each pair's change/parent
ratio (a drift of the machine's speed over the runs cancels within a pair),
the number of pairs each side won (ties count for neither) and whether the
change meets the rule for claiming a gain (``claim_met``, see ``summarize``).  It then runs
``scripts/pinned_outputs.py --src TREE/src`` (the script beside this one) on
both trees and prints every output whose hash differs between them or that
only one tree printed; trees without a ``src/hetdeconv`` package skip this
step.  The last line is the same summary as one JSON object, with the
differing outputs under ``pinned_differ`` (null when skipped).

The trees must sit at paths of equal length: the runner's peak RSS depends
on the checkout directory's path, so trees at paths of different lengths
would compare their directories as well as their code.  Exits 2 on such
trees, 1 if a run fails or reports a problem, 0 otherwise; the exit status
says nothing about which side won or whether the outputs differ.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

PINNED_SCRIPT = Path(__file__).resolve().with_name("pinned_outputs.py")


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """metric -> value of one timed ``bench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        sys.exit(f"{tree}: bench/run.py exit {proc.returncode}, result {result or 'none'}\n"
                 f"{proc.stderr.strip()}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _pinned(tree: Path) -> dict:
    """name -> hash of every output that ``pinned_outputs.py`` prints for ``tree``'s package."""
    proc = subprocess.run([sys.executable, str(PINNED_SCRIPT), "--src", str(tree / "src")],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return listing(proc.stdout)


def listing(text: str) -> dict:
    """name -> hash of the ``name hash`` lines of ``text``."""
    return dict(line.split() for line in text.splitlines() if line.strip())


def differing_outputs(parent: dict, change: dict) -> list:
    """(name, parent hash, change hash) of every output whose hash differs between two
    listings, None for a side that does not list it; in listing order."""
    return [(name, parent.get(name), change.get(name)) for name in {**parent, **change}
            if parent.get(name) != change.get(name)]


def _quartiles(values) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(metrics, parent_runs, change_runs) -> dict:
    """Per metric of ``metrics`` (BENCHMARK.json's end_to_end): quartiles, wins and the bound.

    ``parent_runs`` and ``change_runs`` hold one metric -> value mapping per
    pair, in pair order.  ``ratio_q`` holds q1/median/q3 of the pairs'
    change/parent ratios; it informs and decides nothing.  ``claim_met`` holds when the change won at least
    nine tenths of the pairs (rounded up) and its median is better than the
    parent's by more than the parent's q3 - q1: the rule a claimed gain must meet.
    """
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        p_q, c_q = _quartiles(parent), _quartiles(change)
        ratio_q = _quartiles([c / p for p, c in zip(parent, change)])
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        lost = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        worse = (c_q[1] - p_q[1]) / p_q[1] * (1 if lower else -1)
        gain = (p_q[1] - c_q[1]) * (1 if lower else -1)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent_q": p_q, "change_q": c_q, "ratio_q": ratio_q,
            "change_won": won, "parent_won": lost,
            "relative_worse": worse, "within_bound": worse <= spec["bound"],
            "within_parent_iqr": p_q[0] <= c_q[1] <= p_q[2],
            "claim_met": won >= math.ceil(0.9 * len(parent)) and gain > p_q[2] - p_q[0],
            "parent_spread": (p_q[2] - p_q[0]) / p_q[1],
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        print(f"error: trees at paths of different length ({len(str(parent))} and "
              f"{len(str(change))} characters); the runner's peak RSS depends on it",
              file=sys.stderr)
        sys.exit(2)
    for tree in (parent, change):
        if not (tree / "bench" / "run.py").is_file():
            print(f"error: no bench/run.py under {tree}", file=sys.stderr)
            sys.exit(2)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    runs = {parent: [], change: []}
    for i in range(args.pairs):
        for tree in (parent, change) if i % 2 == 0 else (change, parent):
            runs[tree].append(_run(tree, args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{name} parent {runs[parent][-1][name]:.4g} change {runs[change][-1][name]:.4g}"
            for name in ("wall_s", "cpu_s_per_call")), flush=True)

    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarize(metrics, runs[parent], runs[change])
    print(f"{'metric':16s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s} "
          f"{'worse':>8s} {'bound':>6s} {'ratio':>7s} {'won c/p':>8s} {'claim':>5s}")
    for name, s in summary.items():
        quartiles = ["/".join(f"{v:.4g}" for v in s[side]) for side in ("parent_q", "change_q")]
        print(f"{name:16s} {quartiles[0]:>30s} {quartiles[1]:>30s} "
              f"{s['relative_worse']:+8.2%} {s['bound']:6.2f} {s['ratio_q'][1]:7.4f} "
              f"{s['change_won']:>4d}/{s['parent_won']:<3d} {'met' if s['claim_met'] else 'no':>5s}")

    differ = None
    if all((tree / "src" / "hetdeconv").is_dir() for tree in (parent, change)):
        hashes = [_pinned(tree) for tree in (parent, change)]
        differ = differing_outputs(*hashes)
        print(f"pinned outputs: {len(differ)} of {len({**hashes[0], **hashes[1]})} differ")
        for name, was, now in differ:
            print(f"  {name}: parent {was}, change {now}")
    else:
        print("pinned outputs: skipped (a tree has no src/hetdeconv)")
    print(json.dumps({"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
                      "seed": args.seed, "metrics": summary, "pinned_differ": differ}))


if __name__ == "__main__":
    main()
