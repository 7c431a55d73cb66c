"""The benchmark's workloads: the CLI jobs of each, their inputs and oracles.

A job is one ``tkkwb`` command line.  Its oracle looks at the exit code and
the captured stdout and returns ``None`` when the output is right, or a one
line reason when it is not.  The oracles do not import ``tkkwb``: each one is
independent of the code it checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("weyl-newton", "weyl-local", "checks")

# (n, cutoff = max-degree) of the newton reps, (n, D) of the local reps
# Each job takes 0.2 to 2 s, so that a run holds many passes and the host's
# speed can be read next to every job (see run.reference_s).
NEWTON = ((3, 5), (2, 5), (4, 4))
LOCAL = ((7, 6), (6, 7))
CHECKS = (
    ("tkk-spin8", ("tkk", "check", "--builtin", "spin-factor", "--dim", "8")),
    ("tkk-matrix3", ("tkk", "check", "--builtin", "matrix", "--size", "3")),
    ("jordan-matrix4", ("jordan", "check", "--builtin", "matrix", "--size", "4")),
    ("jspace-newton3", ("jspace", "check", "--builtin-rep", "newton", "--n", "3", "--cutoff", "4")),
)
GARLAND = (4, 3, 2)     # newton n, cutoff, samples

# sha256 of the stdout of every `weyl dims` job.  These bytes do not depend
# on --seed, so a change to them fails the job.
PINNED_SHA256 = {
    "newton-n3-D5": "4150a8e7fa859556c62fd43dce1910f22ee83669cf60e7edc53e2ce1a281a6b5",
    "newton-n2-D5": "3e7d8c7468e063745e04d56e626dc313283c5d442d12a7dc7780c8bda7879359",
    "newton-n4-D4": "5b21af4f23f0d220ae9b2f53940f323b4a1e8e503c34a870b9b243b2c66a0fad",
    "local-n7-D6": "43107be7efdda489b085aeeb654b0e89c9ac284a858098a1b93d55636c7d2ada",
    "local-n6-D7": "46bec94d55e3137ea5dadad7fd66df28bc97a0ecce6e9c0795234d46ce03f232",
}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    oracle: Callable[[int, str], str | None]


# -- oracles ------------------------------------------------------------------

def qbinomial(n, k):
    """Coefficients of the Gaussian binomial [n choose k]_q, lowest degree first."""
    if not 0 <= k <= n:
        return []
    row = [[1]]
    for m in range(1, n + 1):
        # [m, j] = [m-1, j-1] + q^j [m-1, j]
        new = []
        for j in range(m + 1):
            left = row[j - 1] if j >= 1 else []
            right = [0] * j + row[j] if j < m else []
            size = max(len(left), len(right))
            new.append([(left[i] if i < len(left) else 0) +
                        (right[i] if i < len(right) else 0) for i in range(size)])
        row = new
    return row[k]


def qbinomial_table(n, D):
    """{(weight, degree): dim} of the local Weyl module of level n, degrees <= D:
    the coefficient of q^d in [n choose l]_q sits at weight n - 2l."""
    table = {}
    for ell in range(n + 1):
        for d, c in enumerate(qbinomial(n, ell)[:D + 1]):
            if c:
                table[(n - 2 * ell, d)] = c
    return table


def qbinomial_mismatch(csv_text, n, D):
    """None when csv_text is the q-binomial table of level n up to degree D,
    else the first difference."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "weight,degree,dim":
        return "missing csv header"
    got = {}
    for line in lines[1:]:
        try:
            w, d, dim = (int(x) for x in line.split(","))
        except ValueError:
            return f"malformed csv line {line!r}"
        if (w, d) in got:
            return f"duplicate cell ({w},{d})"
        if (n - w) % 2 or not -n <= w <= n or not 0 <= d <= D:
            return f"cell ({w},{d}) outside the table"
        got[(w, d)] = dim
    want = qbinomial_table(n, D)
    for key in sorted(set(got) | set(want)):
        if got.get(key, 0) != want.get(key, 0):
            return f"weight {key[0]} degree {key[1]}: {got.get(key, 0)} != {want.get(key, 0)}"
    return None


def newton_oracle(rc, out):
    if rc != 0:
        return f"exit code {rc}"
    if "oracle: symmetric-power enumeration matches" not in out.splitlines():
        return "no symmetric-power oracle match line"
    return None


def local_oracle(n, D):
    def oracle(rc, out):
        return f"exit code {rc}" if rc != 0 else qbinomial_mismatch(out, n, D)
    return oracle


def report_oracle(rc, out):
    """A `check` report: one `<title>: PASS` line and every item `ok`."""
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    titles = [ln for ln in lines if ln.endswith((": PASS", ": FAIL"))]
    items = [ln for ln in lines if ln.startswith("  ")]
    if len(titles) != 1 or not titles[0].endswith(": PASS"):
        return "report verdict is not PASS"
    if not items:
        return "report has no items"
    for ln in items:
        if not ln.startswith("  ok "):
            return f"report item failed: {ln.strip()}"
    return None


def garland_oracle(samples, seed):
    def oracle(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        rows = [ln for ln in lines if ln.startswith("sample ")]
        # one line per contraction depth in {0, 1, n, n+1} per sample
        if len(rows) != 4 * samples:
            return f"{len(rows)} sample lines, want {4 * samples}"
        for ln in rows:
            if not ln.endswith(" PASS"):
                return f"garland mismatch: {ln}"
        if lines[-1] != f"seed: {seed}":
            return "missing seed line"
        return None
    return oracle


# -- jobs ---------------------------------------------------------------------

def local_rep(n, D):
    """Level-n local rep of truncated-poly:D: rho(1) = n on a 1-dim module, rho(t^l) = 0."""
    return {"algebra": f"truncated-poly:{D}",
            "module": {"labels": ["v"], "degrees": [0]},
            "rho": [[[str(n)]]] + [[["0"]]] * D}


def newton_job(n, D, seed):
    return Job(f"newton-n{n}-D{D}",
               ("weyl", "dims", "--builtin-rep", "newton", "--n", str(n), "--cutoff", str(D),
                "--max-degree", str(D), "--format", "csv", "--oracle", "snlt",
                "--seed", str(seed)),
               newton_oracle)


def local_job(n, D, seed, inputs_dir):
    """Writes the rep file into inputs_dir."""
    path = Path(inputs_dir) / f"local-n{n}-D{D}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(local_rep(n, D), sort_keys=True) + "\n")
    return Job(f"local-n{n}-D{D}",
               ("weyl", "dims", "--rep", str(path), "--max-degree", str(D),
                "--format", "csv", "--seed", str(seed)),
               local_oracle(n, D))


def check_job(name, argv, seed):
    return Job(name, tuple(argv) + ("--seed", str(seed)), report_oracle)


def garland_job(n, cutoff, samples, seed):
    return Job(f"garland-n{n}-c{cutoff}",
               ("garland", "verify", "--builtin-rep", "newton", "--n", str(n),
                "--cutoff", str(cutoff), "--samples", str(samples), "--seed", str(seed)),
               garland_oracle(samples, seed))


def make_jobs(workload, seed, inputs_dir):
    """The jobs of one workload; writes the input files they read into inputs_dir."""
    if workload == "weyl-newton":
        return [newton_job(n, D, seed) for n, D in NEWTON]
    if workload == "weyl-local":
        return [local_job(n, D, seed, inputs_dir) for n, D in LOCAL]
    if workload == "checks":
        return [check_job(name, argv, seed) for name, argv in CHECKS] + \
            [garland_job(*GARLAND, seed)]
    raise ValueError(f"unknown workload {workload!r}")
