"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench
"""

import itertools
import tempfile
import unittest
from pathlib import Path

import run
import workloads as wl
from tracer import Tracer

cli = run.load_cli()


def csv_of(table):
    keys = sorted(table, key=lambda wd: (-wd[0], wd[1]))
    return "\n".join(["weight,degree,dim"] + [f"{w},{d},{table[(w, d)]}" for w, d in keys])


class QBinomialOracle(unittest.TestCase):
    def test_gaussian_binomials(self):
        self.assertEqual(wl.qbinomial(4, 2), [1, 1, 2, 1, 1])
        self.assertEqual(wl.qbinomial(5, 0), [1])
        self.assertEqual(sum(sum(wl.qbinomial(6, k)) for k in range(7)), 2 ** 6)

    def test_accepts_the_table(self):
        self.assertIsNone(wl.qbinomial_mismatch(csv_of(wl.qbinomial_table(5, 4)), 5, 4))

    def test_rejects_one_entry_off_by_one(self):
        table = wl.qbinomial_table(5, 4)
        for key in table:
            bad = dict(table)
            bad[key] += 1
            self.assertIsNotNone(wl.qbinomial_mismatch(csv_of(bad), 5, 4), key)

    def test_rejects_extra_and_missing_cells(self):
        table = wl.qbinomial_table(4, 4)
        missing = dict(table)
        missing.pop((0, 2))
        self.assertIsNotNone(wl.qbinomial_mismatch(csv_of(missing), 4, 4))
        extra = dict(table)
        extra[(1, 0)] = 1
        self.assertIsNotNone(wl.qbinomial_mismatch(csv_of(extra), 4, 4))


class Smoke(unittest.TestCase):
    """One small instance per workload, through the same job runner and oracles."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def assertPasses(self, job):
        record = run.run_job(cli, job)
        self.assertTrue(record["ok"], record["reason"])

    def test_weyl_newton(self):
        self.assertPasses(wl.newton_job(2, 3, seed=5))

    def test_weyl_local(self):
        self.assertPasses(wl.local_job(3, 4, seed=5, inputs_dir=self.tmp.name))

    def test_checks(self):
        for argv in (("tkk", "check", "--builtin", "spin-factor", "--dim", "3"),
                     ("jordan", "check", "--builtin", "matrix", "--size", "2"),
                     ("jspace", "check", "--builtin-rep", "newton", "--n", "2", "--cutoff", "2")):
            self.assertPasses(wl.check_job(argv[0], argv, seed=5))
        self.assertPasses(wl.garland_job(2, 2, 1, seed=5))


class Failures(unittest.TestCase):
    def test_nonzero_exit_counts_as_failed(self):
        missing = str(Path(tempfile.gettempdir()) / "no-such-rep.json")
        bad = wl.Job("missing-rep", ("weyl", "dims", "--rep", missing, "--max-degree", "2",
                                     "--format", "csv"), wl.local_oracle(2, 2))
        good = wl.newton_job(1, 2, seed=0)
        passes = [run.run_pass(cli, [good, bad])]
        self.assertEqual(passes[0]["jobs"][1]["rc"], 3)
        self.assertEqual(run.tally(passes), (2, 1))

    def test_changed_pinned_bytes_fail(self):
        job = wl.newton_job(1, 2, seed=0)
        wl.PINNED_SHA256[job.name] = "0" * 64
        self.addCleanup(wl.PINNED_SHA256.pop, job.name)
        self.assertFalse(run.run_job(cli, job)["ok"])


class Passes(unittest.TestCase):
    def test_pass_reports_reference_times(self):
        passes = [run.run_pass(cli, [wl.newton_job(1, 2, seed=0)]) for _ in range(2)]
        self.assertGreater(passes[0]["ref_wall_s"], 0)
        ratio = run.ratio_of_means(passes, "wall_s", "ref_wall_s")
        self.assertAlmostEqual(ratio, (passes[0]["wall_s"] + passes[1]["wall_s"]) /
                               (passes[0]["ref_wall_s"] + passes[1]["ref_wall_s"]))

    def test_pass_seeds_follow_the_seed(self):
        first = list(itertools.islice(run.pass_seeds(7), 5))
        self.assertEqual(first[0], 7)
        self.assertEqual(first, list(itertools.islice(run.pass_seeds(7), 5)))
        self.assertNotEqual(first, list(itertools.islice(run.pass_seeds(8), 5)))


class Tracing(unittest.TestCase):
    def test_traced_output_and_counts(self):
        from tkkwb import jspace, linalg, weyl
        originals = (linalg.Matrix.apply, weyl.extend_to_g0, jspace.build_sl2)
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        job = wl.local_job(3, 3, seed=0, inputs_dir=tmp.name)
        plain = run.run_job(cli, job)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(weyl.extend_to_g0, originals[1])
            traced = run.run_job(cli, job)
        finally:
            tracer.uninstall()
        self.assertEqual((linalg.Matrix.apply, weyl.extend_to_g0, jspace.build_sl2), originals)
        self.assertEqual(plain["stdout_sha256"], traced["stdout_sha256"])
        summary = tracer.summary()
        funcs = summary["functions"]
        self.assertEqual(funcs["cli.main"]["calls"], 1)
        self.assertEqual(funcs["weyl.weyl_dimensions"]["calls"], 1)
        # called through the names weyl and jspace imported
        self.assertEqual(funcs["jspace.extend_to_g0"]["calls"], 1)
        self.assertEqual(funcs["tkk.build_sl2"]["calls"], 1)
        self.assertGreater(summary["counters"]["weyl.cell_vectors"], 0)
        self.assertGreater(summary["counters"]["linalg.RowSpan.insert.accepted"], 0)
        total = funcs["cli.main"]["total_s"]
        self_sum = sum(f["self_s"] for f in funcs.values())
        self.assertLessEqual(self_sum, total + 1e-9)


if __name__ == "__main__":
    unittest.main()
