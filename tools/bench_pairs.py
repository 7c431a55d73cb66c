"""Alternating before/after pairs of the benchmark, summarized into BENCH_<label>.json.

    python3 tools/bench_pairs.py --before DIR --after DIR --label NAME \
        --workload weyl-newton [--workload checks ...] --seed 23 --seconds 40 --pairs 10

DIR is the root of a checkout; each side runs its own
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` with that
checkout as the working directory, so it imports ``src`` from its own tree.
Every run compiles the package afresh: ``PYTHONDONTWRITEBYTECODE`` stops it
writing bytecode, and its own empty ``PYTHONPYCACHEPREFIX`` directory, made
for the run and removed after it, stops it reading the ``__pycache__`` a
checkout may already hold, so neither side's ``setup_s`` gains from a cache
the other lacks.  Pair k runs "before" first when k is even and "after"
first when k is odd, so a slow spell of the host does not fall on one side
only.  The last stdout line of every run (its ``correct``,
``attempted``, ``failed`` and ``metrics``) is kept, and each end-to-end
metric gets the medians of both sides, their ratio, the before side's
interquartile range and the number of pairs in which "after" was lower.
The file is written into the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_ref", "cpu_ref", "setup_s", "peak_rss_mb")
SIDES = ("before", "after")


def record(pair, side, line):
    """One run's record from the last line of its stdout, whose metrics are
    {name: {"value": v, "unit": u}}."""
    out = json.loads(line)
    return {"pair": pair, "side": side, "correct": out["correct"],
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {m: out["metrics"][m]["value"] for m in METRICS}}


def _iqr(values):
    """Distance between the quartiles (statistics.quantiles, exclusive method);
    0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(records):
    """{metric: before/after medians, ratio, before IQR, pairs where after was
    lower, number of complete pairs} over the records of one workload."""
    by_pair = {}
    for rec in records:
        by_pair.setdefault(rec["pair"], {})[rec["side"]] = rec["metrics"]
    pairs = [p for _, p in sorted(by_pair.items()) if set(SIDES) <= p.keys()]
    if not pairs:
        return {}
    summary = {}
    for m in METRICS:
        before = [p["before"][m] for p in pairs]
        after = [p["after"][m] for p in pairs]
        med_b, med_a = statistics.median(before), statistics.median(after)
        summary[m] = {"before_median": round(med_b, 4), "after_median": round(med_a, 4),
                      "ratio": round(med_a / med_b, 4), "before_iqr": round(_iqr(before), 4),
                      "after_lower_pairs": sum(a < b for b, a in zip(before, after)),
                      "pairs": len(pairs)}
    return summary


def run_once(checkout, workload, seed, seconds):
    """The last stdout line of one benchmark run in a checkout, run with no
    bytecode cache to read or write."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as prefix:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=prefix)
        proc = subprocess.run(argv, cwd=checkout, env=env, check=True, stdout=subprocess.PIPE,
                              text=True)
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}

    runs = []
    for workload in args.workload:
        records = []
        for pair in range(args.pairs):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                line = run_once(trees[side], workload, args.seed, args.seconds)
                records.append(record(pair, side, line))
                print(workload, pair, side, line, flush=True)
        runs.append({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                     "summary": summarize(records), "records": records})

    result = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0, "
                   "run from a checkout of each side",
        "method": "alternating pairs: even pairs run before first, odd pairs after first; "
                  "both sides import src from their own tree; every run compiles it "
                  "afresh, neither reading nor writing bytecode (PYTHONDONTWRITEBYTECODE "
                  "and an empty PYTHONPYCACHEPREFIX of its own)",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "runs": runs,
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
