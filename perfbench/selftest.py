"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about ten seconds.
"""

import json
import os
import sys
import tempfile
import unittest

import run  # puts src/ on sys.path
import gen
import layers
from workloads import WORKLOADS, Op, op_list


def cli_report(tmp, argv, runner=("-m", "bhl.cli")):
    """Report bytes and exit status of one CLI command."""
    out = os.path.join(tmp, "report-%d.json" % len(os.listdir(tmp)))
    _, _, code, _ = run.spawn([sys.executable, *runner, *argv, "--out", out],
                              os.path.join(tmp, "log"))
    with open(out, "rb") as fh:
        return fh.read(), code


class GeneratorTest(unittest.TestCase):

    def test_same_seed_same_bytes(self):
        for base, dense in (("sweedler", True), ("group_algebra:4", False)):
            self.assertEqual(gen.generate(base, 7, dense),
                             gen.generate(base, 7, dense))

    def test_seeds_differ(self):
        specs = {gen.generate("sweedler", seed, True) for seed in range(4)}
        self.assertGreater(len(specs), 1)

    def test_dense_map_fills_in_and_diagonal_map_does_not(self):
        def nonzeros(spec):
            return sum(e != "0" for row in json.loads(spec)["hopf"]["m"]
                       for e in row)
        plain = gen.base_datum("sweedler")
        base = sum(1 for row in plain.m.matrix.entries for e in row if e)
        self.assertGreater(nonzeros(gen.generate("sweedler", 1, True)), base)
        ga = gen.generate("group_algebra:4", 1, False)
        self.assertEqual(nonzeros(ga), 16)

    def test_op_order_is_seeded(self):
        self.assertEqual(op_list("cli_builtins", 3), op_list("cli_builtins", 3))
        self.assertNotEqual(op_list("cli_builtins", 3),
                            op_list("cli_builtins", 4))
        self.assertEqual(sorted(op.id for op in op_list("cli_builtins", 3)),
                         sorted(op.id for op in WORKLOADS["cli_builtins"][1]))


class CorrectnessCheckTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.expected = run.load_expected("cli_builtins")

    def flips(self, report):
        for i in range(len(report)):
            yield report[:i] + bytes([report[i] ^ 0x01]) + report[i + 1:]

    def test_every_flipped_byte_fails_a_builtin_op(self):
        op = Op("check-hopf", "group_algebra:2", None)
        with tempfile.TemporaryDirectory() as tmp:
            report, code = cli_report(tmp, op.argv(tmp))
        exp = self.expected[op.id]
        self.assertEqual(code, exp["exit"])
        self.assertEqual(run.check_report(op, exp, report, 5, None), [])
        for bad in self.flips(report):
            self.assertNotEqual(run.check_report(op, exp, bad, 5, None), [])

    def test_flipped_bytes_fail_an_op_on_a_generated_input(self):
        op = Op("antipode", None, "sweedler-dense")
        exp = self.expected[op.id]
        for seed in (run.DEFAULT_SEED, 9):
            spec = gen.generate("sweedler", seed, True)
            with tempfile.TemporaryDirectory() as tmp:
                with open(os.path.join(tmp, op.spec + ".json"), "wb") as fh:
                    fh.write(spec)
                report, code = cli_report(tmp, op.argv(tmp))
            self.assertEqual(code, exp["exit"])
            self.assertEqual(run.check_report(op, exp, report, seed, spec), [])
            for bad in self.flips(report):
                self.assertNotEqual(
                    run.check_report(op, exp, bad, seed, spec), [])

    def test_missing_report_fails(self):
        op = Op("check-hopf", "group_algebra:2", None)
        self.assertNotEqual(
            run.check_report(op, self.expected[op.id], None, 0, None), [])

    def test_every_op_has_an_expectation(self):
        for workload in WORKLOADS:
            run.load_expected(workload)


class SpanTest(unittest.TestCase):
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9] > d [6, 7]
    NAMES = ["cli.main", "coend.compute_coend", "exactalg.SparseEliminator.add",
             "exactalg.Matrix.__mul__", "exactalg.Matrix.__mul__"]
    SPANS = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1),
             (3, 5.0, 9.0, 0), (4, 6.0, 7.0, 3)]

    def test_self_times_add_up_to_the_root(self):
        own = layers.self_times(self.SPANS)
        self.assertEqual(own, [3.0, 2.0, 1.0, 3.0, 1.0])
        self.assertEqual(sum(own), self.SPANS[0][2] - self.SPANS[0][1])

    def test_layer_times(self):
        t = layers.op_layer_times({"names": self.NAMES, "spans": self.SPANS})
        self.assertEqual(t["cli.self_s"], 3.0)
        self.assertEqual(t["coend.self_s"], 2.0)
        self.assertEqual(t["exactalg.self_s"], 5.0)
        self.assertEqual(t["coend.compute_s"], 3.0)
        self.assertEqual(t["exactalg.elim_s"], 1.0)
        # the nested product is inside the outer one: not counted twice
        self.assertEqual(t["exactalg.matmul_s"], 4.0)
        self.assertEqual(sum(v for k, v in t.items() if k.endswith("self_s")),
                         10.0)


class TracedRunTest(unittest.TestCase):

    def test_traced_and_counted_reports_are_byte_identical(self):
        argvs = [["verify-reconstruction", "--builtin", "group_algebra:2"],
                 ["yd-check", "--builtin", "sweedler"]]
        with tempfile.TemporaryDirectory() as tmp:
            for argv in argvs:
                plain = cli_report(tmp, argv)
                for mode in ("time", "count"):
                    record = os.path.join(tmp, mode + ".rec.json")
                    self.assertEqual(
                        cli_report(tmp, argv,
                                   (run.CHILD, mode, record, "--")), plain)
                    with open(record, encoding="utf-8") as fh:
                        self.assertTrue(json.load(fh))


class DeclarationTest(unittest.TestCase):

    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            decl = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in decl["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in decl["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in decl["workloads"]),
                         sorted(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
