"""Self-test of the benchmark's own arithmetic; needs no regsob.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import per_layer_metrics  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import Ops  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            ("outer", 0.0, 10.0, -1),
            ("a", 1.0, 3.0, 0),
            ("b", 2.0, 5.0, 0),  # overlaps a: covered once
            ("a.inner", 1.5, 2.0, 1),
            ("late", 9.0, 11.0, 0),  # clipped to the parent's interval
        ]
        self.assertEqual(self_times(spans), [5.0, 1.5, 3.0, 0.5, 2.0])

    def test_wrapped_toy_calls(self):
        tr = Tracer(wrapped=())
        inner = tr.wrap("inner", lambda x: x + 1)
        outer = tr.wrap("outer", lambda x: inner(inner(x)))
        self.assertEqual(outer(1), 3)
        recs = tr.span_records()
        self.assertEqual([r["name"] for r in recs], ["outer", "inner", "inner"])
        self.assertEqual([r["parent"] for r in recs], [-1, 0, 0])
        out = recs[0]
        kids = sum(r["end"] - r["start"] for r in recs[1:])
        self.assertAlmostEqual(out["self"], out["end"] - out["start"] - kids, 12)
        agg = tr.layer_metrics()
        self.assertEqual(agg["inner"]["calls"], 2)

    def test_span_closed_when_call_raises(self):
        tr = Tracer(wrapped=())
        boom = tr.wrap("boom", lambda: 1 / 0)
        with self.assertRaises(ZeroDivisionError):
            boom()
        (rec,) = tr.span_records()
        self.assertIsNotNone(rec["end"])

    def test_missing_name_is_reported_not_raised(self):
        tr = Tracer(wrapped=(("gone.fn", "json", "no_such_function"),))
        tr.install()
        tr.uninstall()
        self.assertEqual(tr.missing, ["gone.fn"])
        m = per_layer_metrics({}, {})
        self.assertTrue(all(v == 0 for v, _ in m.values()))


class FailureCounting(unittest.TestCase):
    def test_raise_and_check(self):
        ops = Ops()
        self.assertEqual(ops.call("ok", lambda: 2), 2)
        self.assertIsNone(ops.call("raises", lambda: [][1]))
        ops.check("ok", False, "value 3 above 2")
        ops.check("ok", False, "second failed check on the same operation")
        self.assertEqual(ops.attempted, 2)
        self.assertEqual(len(ops.failed), 2)
        self.assertIn("FAILED ok: value 3 above 2", ops.messages)

    def test_one_call_for_several_operations(self):
        ops = Ops()

        def verdicts():
            raise RuntimeError("variance too high")

        ops.call(["v.lam=1", "v.lam=2", "v.lam=3"], verdicts)
        self.assertEqual((ops.attempted, len(ops.failed)), (3, 3))


if __name__ == "__main__":
    unittest.main()
