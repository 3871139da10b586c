"""Alternated A/B runs of the benchmark: a base commit against a change.

Run from the repository root:

    python3 tools/ab.py --scratch /tmp/ab --base HEAD --pairs 10 --seconds 60 \
        --workload turbulence-64 --workload cli-restart-32 --out BENCH_N.json

The base commit is exported with ``git archive`` into the scratch directory.
The change is the working tree, or another commit exported the same way
(``--change``); ``--base HEAD --change HEAD`` is an A/A run of one commit
against itself, whose spread is the smallest gain a claim can make that day.
Each pair runs ``bench/run.py`` once per side and workload with the same
seed, ``--first-seed`` plus the pair index, so no seed is chosen after the
fact; the base goes first in even pairs and second in odd ones.

For every run the record keeps the end-to-end metrics that ``bench/run.py``
prints, the plain median round time ``wall_run_s`` beside the scaled
``run_s``, the mean of the reference pass that scales it, the child's user
CPU time and minor page faults (``RUSAGE_CHILDREN`` deltas), and the failed
operations.  The summary gives each side's median and quartiles per metric
and the pairs the change won.  A metric counts as a gain when the change
wins at least nine tenths of the pairs and its median beats the base's by
more than the distance between the base's quartiles; as a regression when
its median is worse than the base's by more than the bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# metrics beside the benchmark's own, all better when lower
EXTRA = ("wall_run_s", "reference_mean_s", "user_cpu_s", "minor_faults")


def export(rev: str, scratch: Path) -> tuple[str, Path]:
    """The commit's full hash and a directory holding its files."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = scratch / sha
    if not tree.is_dir():
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        tree.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
    return sha, tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` process and what it left behind."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    row = {"seed": seed, "exit": proc.returncode, "process_wall_s": wall,
           "user_cpu_s": after.ru_utime - before.ru_utime,
           "minor_faults": after.ru_minflt - before.ru_minflt}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        row["stderr"] = proc.stderr[-2000:]
        return row
    result = json.loads(lines[-1])
    row.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"])
    row.update({k: v["value"] for k, v in result["metrics"].items()})
    record = json.loads((tree / "bench" / "results" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    row["wall_run_s"] = record["wall_run_s"]
    row["reference_mean_s"] = statistics.fmean(record["reference_s"])
    row["machine"] = record["machine"]
    return row


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], bounds: dict) -> dict:
    """Medians, quartiles, wins and the verdict of each metric."""
    done = [p for p in pairs if "run_s" in p["base"] and "run_s" in p["change"]]
    out = {"pairs": len(pairs), "pairs_complete": len(done),
           "failed": {side: sum(p[side].get("failed", 0) for p in pairs)
                      for side in ("base", "change")},
           "runs_without_result": {side: sum("run_s" not in p[side] for p in pairs)
                                   for side in ("base", "change")},
           "correct": all(p[side].get("correct") for p in pairs for side in ("base", "change"))}
    if not done:
        return out
    for name in [*bounds, *EXTRA]:
        lower = bounds.get(name, {"better": "lower"})["better"] == "lower"
        base = [p["base"][name] for p in done]
        change = [p["change"][name] for p in done]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b_med, c_med = statistics.median(base), statistics.median(change)
        b_q = quartiles(base)
        gain = c_med - b_med if not lower else b_med - c_med
        row = {"base_median": b_med, "change_median": c_med,
               "change_pct": 100.0 * (c_med - b_med) / b_med if b_med else None,
               "base_quartiles": b_q, "change_quartiles": quartiles(change),
               "change_better_pairs": wins}
        if name in bounds:
            if wins >= 0.9 * len(done) and gain > b_q[1] - b_q[0]:
                row["verdict"] = "gain"
            elif -gain > bounds[name]["bound"] * b_med:
                row["verdict"] = "regression"
            else:
                row["verdict"] = "no claim"
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for the exported trees")
    parser.add_argument("--base", required=True, help="the base commit")
    parser.add_argument("--change", help="a commit in place of the working tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base_sha, base_tree = export(args.base, args.scratch)
    if args.change is None:
        change_sha, change_tree = "working tree", ROOT
    else:
        change_sha, change_tree = export(args.change, args.scratch)
    trees = {"base": base_tree, "change": change_tree}

    pairs = {w: [] for w in args.workload}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in args.workload:
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
            pairs[workload].append(pair)
            print(f"pair {i} {workload}: run_s base {pair['base'].get('run_s')} "
                  f"change {pair['change'].get('run_s')}", file=sys.stderr, flush=True)

    report = {
        "method": (f"tools/ab.py: bench/run.py --trace 0 --seconds {args.seconds:g}, "
                   f"{args.pairs} pairs, seed {args.first_seed} + pair index, base first "
                   "in even pairs"),
        "base": base_sha,
        "change": change_sha,
        "summary": {w: summarize(p, bounds) for w, p in pairs.items()},
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
