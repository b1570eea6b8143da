"""Self-test of the benchmark harness at toy sizes (a few seconds).

    python3 perfbench/selftest.py

Shows that every workload runs and passes its checks, that the correctness
gate catches a corrupted reference and counts raising or failing commands
instead of crashing, and that span self times are computed correctly.
"""

from __future__ import annotations

import copy
import shutil
import tempfile
import unittest
from pathlib import Path

import run  # sets up the import path and pins BLAS threads
import checks
import tracing
import workloads
from workloads import Command


class HarnessTest(unittest.TestCase):
    def setUp(self):
        root = run.ROOT / ".perfbench-work"
        root.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=root))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def smoke(self, name: str):
        cmds = workloads.build(name, 3, self.workdir / name, smoke=True)
        return cmds, [run.run_list(cmds)]

    def test_smoke_pass_of_every_workload(self):
        for name in workloads.WORKLOADS:
            cmds, passes = self.smoke(name)
            attempted, failed, problems = run.gate(cmds, passes, None)
            self.assertEqual((attempted, failed), (len(cmds), 0), (name, problems))

    def test_gate_catches_a_corrupted_reference(self):
        cmds, passes = self.smoke("exact-certify")
        reference = [checks.summarize(c, r.stdout) for c, r in zip(cmds, passes[-1])]
        self.assertEqual(run.gate(cmds, passes, reference)[1], 0)
        corrupted = copy.deepcopy(reference)
        cheeger = next(i for i, c in enumerate(cmds) if c.kind == "cheeger")
        corrupted[cheeger]["h_num"] += 1
        attempted, failed, problems = run.gate(cmds, passes, corrupted)
        self.assertEqual(failed, 1)
        self.assertIn("h_num", problems[0])
        corrupted = copy.deepcopy(reference)
        corrupted[0]["rows"][0][2] *= 1 + 1e-6  # a float beyond REL_TOL
        self.assertEqual(run.gate(cmds, passes, corrupted)[1], 1)

    def test_gate_catches_a_corrupted_output(self):
        cmds, passes = self.smoke("exact-rational")
        path = cmds[0].outputs[0]
        path.write_text(path.read_text().replace(",", ",1", 4))
        self.assertEqual(run.gate(cmds, passes, None)[1], 1)

    def test_failing_commands_are_counted_not_fatal(self):
        cmds, _ = self.smoke("sample-spectral")
        missing = self.workdir / "missing.txt"
        cmds.append(Command("cheeger", ["cheeger", str(missing)]))  # raises
        cmds.append(Command("sample", ["sample", "--chi", "3", "--n", "2",
                                       "--out", str(self.workdir / "x.csv")]))  # exit 2
        passes = [run.run_list(cmds), run.run_list(cmds)]
        self.assertIn("FileNotFoundError", passes[0][-2].error)
        self.assertIn("exit code 2", passes[0][-1].error)
        attempted, failed, _ = run.gate(cmds, passes, None)
        self.assertEqual((attempted, failed), (2 * len(cmds), 4))

    def test_self_time_of_a_partly_covered_parent(self):
        parent = tracing.Span("spectra", "p", None, 0, 0.0, 10.0)
        kids = [tracing.Span("cheeger", "a", parent, 0, 1.0, 3.0),
                tracing.Span("cheeger", "b", parent, 0, 2.0, 5.0),  # overlaps a
                tracing.Span("cli", "c", parent, 0, 8.0, 12.0)]  # runs past p
        grandchild = tracing.Span("bounds", "g", kids[1], 0, 4.0, 4.5)
        selfs = tracing.self_times([parent, *kids, grandchild])
        self.assertAlmostEqual(selfs[id(parent)], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(selfs[id(kids[1])], 2.5)
        self.assertAlmostEqual(selfs[id(grandchild)], 0.5)

    def test_traced_pass_accounts_for_wall_time_and_uninstalls(self):
        from expander_forge import cli, sampler
        original = sampler.sample_graph
        cmds, _ = self.smoke("exact-certify")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.sample_graph, original)
            results = run.run_list(cmds, tracer)
        finally:
            tracer.uninstall()
        self.assertIs(cli.sample_graph, original)
        self.assertIs(sampler.sample_graph, original)
        m = tracing.layer_metrics(tracer.spans)
        accounted = sum(v for k, v in m.items() if k.endswith(".self_s"))
        roots = [sp for sp in tracer.spans if sp.parent is None]
        self.assertEqual(len(roots), len(results))
        self.assertAlmostEqual(accounted, sum(sp.duration for sp in roots), places=9)
        self.assertLessEqual(accounted, run._wall(results))
        self.assertGreater(m["cheeger.kernel_nodes"], 0)
        self.assertEqual(m["sampler.trials"], 4)  # sample --trials 4
        self.assertEqual(m["construct.base_attempts"], 2)  # named bases, m = 1, 2
        self.assertEqual(m["construct.base_accept_ratio"], 1.0)


if __name__ == "__main__":
    unittest.main()
