"""Tests of the benchmark itself: the answer checker and the tracer.

    python3 -m pytest perfbench -q      (or: python3 -m unittest discover perfbench)
"""

import copy
import json
import os
import random
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from pqvol import cli  # noqa: E402
from worker import run_ops  # noqa: E402


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        ops, files = workloads.make_group("count-sparse", 7, self.tmp.name)
        for name, text in files.items():
            with open(os.path.join(self.tmp.name, name), "w") as fh:
                fh.write(text)
        self.ops = ops[:5]
        self.results, _, _ = run_ops(cli, self.ops)
        self.ref = workloads.Reference()

    def tearDown(self):
        self.tmp.cleanup()

    def test_right_answers_pass(self):
        self.assertEqual(workloads.count_failures(self.ref, self.ops, self.results), 0)

    def test_tampered_reference_counts_as_failed_op(self):
        ops = copy.deepcopy(self.ops)
        ops[2]["graph"][1].pop()  # the reference now describes a graph with one edge fewer
        self.assertEqual(workloads.count_failures(self.ref, ops, self.results), 1)

    def test_nonzero_exit_exception_garbage_and_missing_result_fail(self):
        results = copy.deepcopy(self.results)
        results[0]["rc"] = 2
        results[1] = {"error": "Traceback ...", "out": "", "ms": 1.0}
        results[2]["out"] = "[1]"
        self.assertEqual(workloads.count_failures(self.ref, self.ops, results[:4]), 4)


class ReferenceTest(unittest.TestCase):
    def test_block_product_matches_whole_graph_flow_count(self):
        rng = random.Random(3)
        ref = workloads.Reference()
        for n, chords in ((5, 2), (6, 3), (7, 2), (7, 4)):
            graph = workloads.sparse_graph(rng, n, chords, 1)
            self.assertEqual(ref.block_product(graph), ref.flow_count(graph))
        graph = workloads.sparse_graph(rng, 7, 3, 2)  # two components
        self.assertEqual(ref.block_product(graph), ref.flow_count(graph))


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_to_root_span(self):
        original = cli.main
        tr = tracer.Tracer()
        tr.install()
        try:
            root = tr.open("job")
            ops = [{"argv": argv} for argv in (
                ["count", "--family", "cycle-deleted:6,4", "--engine", "flow"],
                ["verify", "--family", "cycle-deleted", "--n", "5"],
                ["ehrhart", "--family", "complete:3"],
                ["search", "--n-max", "4"],
            )]
            results, _, _ = run_ops(cli, ops, tr)
            tr.close(root)
        finally:
            tr.uninstall()
        self.assertIs(cli.main, original)
        self.assertTrue(all(r.get("rc") == 0 for r in results))

        spans = {f: getattr(tr, f) for f in tracer.FIELDS}
        own = tracer.self_times(spans)
        self.assertTrue(all(x >= 0 for x in own))
        self.assertEqual(sum(own), tr.end[root] - tr.start[root])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.bin")
            tr.dump(path)
            self.assertEqual(sum(tracer.self_times(tracer.load(path))), sum(own))

        layers = tracer.layer_metrics(tr)
        self.assertEqual(layers["cli.main.calls"], 4)
        for name in ("draconian.is_draconian_flow.calls", "lost_sequences.verify_identity.calls",
                     "ehrhart.count_dilate_points.calls", "tripling._canonical_encoding.calls"):
            self.assertGreater(layers[name], 0, name)
        self.assertEqual(layers["tripling.connected_graph_stream.graphs"], 1 + 2 + 6)
        module_total = sum(layers[f"{m}.self_s"] for m in tracer.MODULES)
        self.assertLessEqual(module_total, (tr.end[root] - tr.start[root]) / 1e9)


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_run_py_prints(self):
        import run

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         tracer.LAYER_METRICS)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), tuple(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
