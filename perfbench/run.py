"""tkkwb benchmark: run the CLI in-process on one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 it repeats whole passes over the workload's jobs for about S
seconds and reports the end-to-end metrics; with --trace 1 it makes one
untraced and one traced pass and reports the per-layer metrics.  Every job's
output is checked by its oracle.  The full record goes to
perfbench/out/<workload>-seed<N>-trace<T>.json, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import TRACED, Tracer
from workloads import PINNED_SHA256, WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_MIN_SAMPLES = 5
REFERENCE_RUNS = 3


def load_cli():
    """Import tkkwb.cli from the checkout's src, never from an installed copy."""
    if not (SRC / "tkkwb" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tkkwb package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tkkwb.cli
    if SRC.resolve() not in Path(tkkwb.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported tkkwb from {tkkwb.__file__}, not {SRC}")
    return tkkwb.cli


def set_up(workload, seed):
    """Import the package and write the workload's inputs: the work before the first job."""
    cli = load_cli()
    return cli, make_jobs(workload, seed, OUT / "inputs")


def time_set_up(workload, seed):
    """Wall seconds of a fresh interpreter doing set_up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    # a blocking wait: a timeout would make subprocess poll in 50 ms steps
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def reference():
    """A fixed loop of stdlib Fraction arithmetic, about 5 ms: the yardstick
    for how fast the host runs this process at the time."""
    s = Fraction(0)
    for i in range(1, 800):
        s += Fraction(i * i + 1, i + 7)
    return s


def time_reference(walls, cpus):
    """Time REFERENCE_RUNS runs of `reference`, appending to walls and cpus."""
    for _ in range(REFERENCE_RUNS):
        t0, c0 = time.perf_counter(), time.process_time()
        reference()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)


def run_job(cli, job):
    """One CLI invocation in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        rc, reason = None, f"raised {exc!r}"
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    text = out.getvalue()
    sha = hashlib.sha256(text.encode()).hexdigest()
    if reason is None:
        reason = job.oracle(rc, text)
    pinned = PINNED_SHA256.get(job.name)
    if reason is None and pinned is not None and sha != pinned:
        reason = "stdout sha256 differs from the pinned table"
    if reason is not None:
        print(f"perfbench: job {job.name} failed: {reason}", file=sys.stderr)
    return {"job": job.name, "rc": rc, "wall_s": wall, "cpu_s": cpu,
            "stdout_sha256": sha, "ok": reason is None, "reason": reason,
            "stderr": err.getvalue()[-2000:]}


def run_pass(cli, jobs):
    """Every job once, with the reference loop timed before each job and after
    the last; the pass keeps the mean reference times."""
    gc.collect()
    ref_walls, ref_cpus = [], []
    time_reference(ref_walls, ref_cpus)
    records = []
    for job in jobs:
        records.append(run_job(cli, job))
        time_reference(ref_walls, ref_cpus)
    return {"wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "ref_wall_s": statistics.fmean(ref_walls),
            "ref_cpu_s": statistics.fmean(ref_cpus),
            "jobs": records}


def pass_seeds(seed):
    """Pass 0 runs its jobs with `seed`; each later pass with a seed drawn from it,
    so that seed-dependent work (random sample points) averages out over a run."""
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


def run_timed(cli, workload, seed, seconds):
    """Whole passes, each followed by one set-up sample, while one more pass and
    sample, as slow as the slowest so far, end within `seconds`; at least one.
    Returns the passes and at least SETUP_MIN_SAMPLES set-up samples."""
    passes, setups = [], []
    t0 = time.perf_counter()
    for pass_seed in pass_seeds(seed):
        passes.append(run_pass(cli, make_jobs(workload, pass_seed, OUT / "inputs")))
        setups.append(time_set_up(workload, seed))
        slowest = max(p["wall_s"] for p in passes) + max(setups)
        if time.perf_counter() - t0 + slowest > seconds:
            break
    while len(setups) < SETUP_MIN_SAMPLES:
        setups.append(time_set_up(workload, seed))
    return passes, setups


def run_traced(cli, jobs):
    """One untraced pass, then the same pass traced; their stdout must match."""
    plain = run_pass(cli, jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, jobs)
    finally:
        tracer.uninstall()
    for a, b in zip(plain["jobs"], traced["jobs"]):
        if a["stdout_sha256"] != b["stdout_sha256"] and b["ok"]:
            b["ok"], b["reason"] = False, "traced stdout differs from untraced stdout"
            print(f"perfbench: job {b['job']} failed: {b['reason']}", file=sys.stderr)
    return plain, traced, tracer.summary()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {"python": sys.version.split()[0], "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "git_commit": git_commit()}


def layer_metrics(summary, overhead_s):
    funcs = summary["functions"]
    metrics = {}
    for layer, qualname in TRACED:
        f = funcs[f"{layer}.{qualname}"]
        metrics[f"{layer}.{qualname}.calls"] = {"value": f["calls"], "unit": "count"}
        metrics[f"{layer}.{qualname}.self_s"] = {"value": f["self_s"], "unit": "s"}
    counters = summary["counters"]
    inserts = funcs["linalg.RowSpan.insert"]["calls"]
    accepted = counters["linalg.RowSpan.insert.accepted"]
    metrics["linalg.RowSpan.insert.accepted"] = {"value": accepted, "unit": "count"}
    metrics["linalg.RowSpan.insert.accept_ratio"] = {
        "value": accepted / inserts if inserts else 0.0, "unit": "ratio"}
    metrics["linalg.max_coeff_bits"] = {"value": counters["linalg.max_coeff_bits"], "unit": "bits"}
    metrics["weyl.cell_vectors"] = {"value": counters["weyl.cell_vectors"], "unit": "count"}
    metrics["weyl.sweeps"] = {"value": counters["weyl.sweeps"], "unit": "count"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def ratio_of_means(passes, key, ref_key):
    """Mean pass time over the mean reference time, both over the whole run:
    a pass's length in runs of the reference loop."""
    return (statistics.fmean(p[key] for p in passes) /
            statistics.fmean(p[ref_key] for p in passes))


def tally(passes):
    """(attempted, failed) over every job of every pass."""
    records = [r for p in passes for r in p["jobs"]]
    return len(records), sum(not r["ok"] for r in records)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the default single-thread closure is what gets measured
    os.environ.pop("TKKWB_THREADS", None)
    cli, jobs = set_up(args.workload, args.seed)
    if args.setup_only:
        return 0
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed)}

    if args.trace:
        plain, traced, summary = run_traced(cli, jobs)
        passes = [plain, traced]
        metrics = layer_metrics(summary, traced["wall_s"] - plain["wall_s"])
        record["trace_summary"] = summary
    else:
        passes, setups = run_timed(cli, args.workload, args.seed, args.seconds)
        record.update(setup_samples_s=setups,
                      raw_wall_s=statistics.median(p["wall_s"] for p in passes),
                      raw_cpu_s=statistics.median(p["cpu_s"] for p in passes))
        metrics = {
            "wall_ref": {"value": ratio_of_means(passes, "wall_s", "ref_wall_s"), "unit": "ref"},
            "cpu_ref": {"value": ratio_of_means(passes, "cpu_s", "ref_cpu_s"), "unit": "ref"},
            # the fastest set-up: host contention only ever adds time
            "setup_s": {"value": min(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    attempted, failed = tally(passes)
    record.update(passes=passes, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, metrics=metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
