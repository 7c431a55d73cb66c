"""The pairing tool's pure summary, on canned last lines of benchmark runs,
and the environment each of its runs gets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402
from bench_pairs import record, run_once, summarize  # noqa: E402


def line(wall, rss, correct=True):
    metrics = {"wall_ref": (wall, "ref"), "cpu_ref": (wall + 1, "ref"), "setup_s": (0.1, "s"),
               "peak_rss_mb": (rss, "MB"), "raw_wall_s": (9.9, "s")}
    return json.dumps({"correct": correct, "attempted": 12, "failed": 0 if correct else 1,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def test_record_keeps_the_end_to_end_metrics():
    rec = record(3, "after", line(30.0, 24.0, correct=False))
    assert rec == {"pair": 3, "side": "after", "correct": False, "attempted": 12, "failed": 1,
                   "metrics": {"wall_ref": 30.0, "cpu_ref": 31.0, "setup_s": 0.1,
                               "peak_rss_mb": 24.0}}


def test_summary_medians_ratio_iqr_and_lower_pairs():
    before = [40.0, 42.0, 44.0, 46.0, 48.0]
    after = [30.0, 31.0, 45.0, 33.0, 34.0]
    records = []
    for k, (b, a) in enumerate(zip(before, after)):
        sides = [("before", b), ("after", a)] if k % 2 == 0 else [("after", a), ("before", b)]
        records += [record(k, side, line(v, 24.0)) for side, v in sides]
    # a pair with one side only is left out
    records.append(record(5, "before", line(10.0, 24.0)))
    s = summarize(records)
    assert s["wall_ref"] == {"before_median": 44.0, "after_median": 33.0, "ratio": 0.75,
                             "before_iqr": 6.0, "after_lower_pairs": 4, "pairs": 5}
    assert s["cpu_ref"]["before_median"] == 45.0 and s["cpu_ref"]["after_lower_pairs"] == 4
    # equal values are not lower
    assert s["peak_rss_mb"]["after_lower_pairs"] == 0 and s["peak_rss_mb"]["ratio"] == 1.0
    assert set(s) == {"wall_ref", "cpu_ref", "setup_s", "peak_rss_mb"}


def test_summary_of_one_pair_has_no_spread():
    s = summarize([record(0, "before", line(2.0, 20.0)), record(0, "after", line(1.0, 21.0))])
    assert s["wall_ref"]["before_iqr"] == 0.0
    assert s["wall_ref"]["ratio"] == pytest.approx(0.5)
    assert s["peak_rss_mb"]["after_lower_pairs"] == 0


def test_summary_of_no_complete_pair_is_empty():
    assert summarize([record(0, "after", line(1.0, 20.0))]) == {}


def test_every_run_gets_its_own_empty_bytecode_prefix(monkeypatch, tmp_path):
    # a run may neither write bytecode nor read a __pycache__ the checkout
    # already holds: each gets an empty PYTHONPYCACHEPREFIX of its own,
    # removed once the run is over
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = env["PYTHONPYCACHEPREFIX"]
        seen.append((env["PYTHONDONTWRITEBYTECODE"], prefix, os.listdir(prefix), cwd))
        return subprocess.CompletedProcess(argv, 0, stdout="progress\n" + line(1.0, 20.0) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert run_once(tmp_path, "checks", 0, 1) == line(1.0, 20.0)
    assert run_once(tmp_path, "checks", 0, 1) == line(1.0, 20.0)
    assert [(flag, files, cwd) for flag, _, files, cwd in seen] == [("1", [], tmp_path)] * 2
    prefixes = [prefix for _, prefix, _, _ in seen]
    assert prefixes[0] != prefixes[1]
    assert not any(os.path.exists(prefix) for prefix in prefixes)
