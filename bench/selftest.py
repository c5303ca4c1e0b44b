"""Self-tests of the benchmark's own arithmetic, on synthetic spans.

    python3 bench/selftest.py

They need numpy but not the program, and take about a second.
"""

import os
import sys
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402


class Clock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertEqual(spans.tail_percentile(range(1, 101)), 90)
        self.assertEqual(spans.tail_percentile(range(1, 201)), 180)
        self.assertIsNone(spans.tail_percentile(range(1, 100)))
        self.assertIsNone(spans.tail_percentile([]))

    def test_order_of_samples_does_not_matter(self):
        values = list(range(1, 151))
        self.assertEqual(spans.tail_percentile(values[::-1]),
                         spans.tail_percentile(values))
        self.assertEqual(spans.tail_percentile(values), 135)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        clock = Clock()
        tracer = spans.Tracer(spans=True, clock=clock)
        a = tracer.open("a")            # a: 0..10, children b (2) and c (4)
        clock.tick(1)
        b = tracer.open("b")
        clock.tick(2)
        tracer.close(b)
        clock.tick(1)
        c = tracer.open("c")            # c: 4..8, child d (2)
        clock.tick(1)
        d = tracer.open("d")
        clock.tick(2)
        tracer.close(d)
        clock.tick(1)
        tracer.close(c)
        clock.tick(2)
        tracer.close(a)
        selfs = dict(zip((s.name for s in tracer.spans),
                         spans.self_times(tracer.spans)))
        self.assertEqual(selfs, {"a": 4.0, "b": 2.0, "c": 2.0, "d": 2.0})
        self.assertEqual(sum(selfs.values()), tracer.spans[a].duration)

    def test_out_of_order_close_is_refused(self):
        tracer = spans.Tracer(spans=True, clock=Clock())
        outer = tracer.open("outer")
        tracer.open("inner")
        with self.assertRaises(RuntimeError):
            tracer.close(outer)

    def _training_round(self, traced):
        """Three optimizer steps of 5 time units; 1 unit of each is `op`."""
        clock = Clock()
        tracer = spans.Tracer(spans=traced, clock=clock)

        def op():
            clock.tick(1)

        op = tracer.wrap(op, "op")
        with tracer.round(steps=True):
            clock.tick(7)               # work before the loop
            for _ in range(3):
                op()
                clock.tick(4)
                tracer.step_returned()
            clock.tick(9)               # work after the loop
        return tracer

    def test_round_is_cut_into_steps(self):
        tracer = self._training_round(traced=True)
        steps = [s for s in tracer.spans if s.name == spans.STEP]
        self.assertEqual([s.counted for s in steps], [False, True, True, False])
        self.assertEqual([s.duration for s in steps], [12.0, 5.0, 5.0, 9.0])
        self.assertEqual(tracer.step_times(), [5.0, 5.0])
        metrics = spans.layer_metrics(tracer.spans, spans.STEP)
        self.assertEqual(metrics["pipeline.step_other_ms"], (4000.0, "ms"))
        self.assertEqual(metrics["tensor.conv2d.fwd_ms"], (0.0, "ms"))

    def test_untraced_round_keeps_only_the_clock(self):
        tracer = self._training_round(traced=False)
        self.assertEqual([s.name for s in tracer.spans], [spans.ROUND] + ["op"] * 3)
        self.assertEqual(tracer.step_times(), [5.0, 5.0])

    def test_per_unit_and_per_setup_sums(self):
        clock = Clock()
        tracer = spans.Tracer(spans=True, clock=clock)
        conv = tracer.wrap(lambda: clock.tick(0.002), "tensor.conv2d",
                           before=lambda c, a, k: c.update(flop=1e9))
        load = tracer.wrap(lambda: clock.tick(0.5), "data.load_dataset",
                           after=lambda c, a, k, r: c.update(records=10))
        for _ in range(2):
            with tracer.span(spans.SETUP):
                load()
        for _ in range(2):
            with tracer.round(steps=False):
                conv()
                conv()
        m = spans.layer_metrics(tracer.spans, spans.ROUND)
        self.assertAlmostEqual(m["tensor.conv2d.fwd_ms"][0], 4.0)
        self.assertEqual(m["tensor.conv2d.calls"][0], 2)
        self.assertAlmostEqual(m["tensor.conv2d.gflop"][0], 2.0)
        self.assertAlmostEqual(m["data.load_dataset_s"][0], 0.5)
        self.assertEqual(m["data.records"][0], 10)


class Patching(unittest.TestCase):
    def test_every_binding_is_swapped_and_restored(self):
        mod = types.ModuleType("fake")
        other = types.ModuleType("fake_user")

        def f():
            return 1

        mod.f = other.f = f
        tracer = spans.Tracer(spans=True, clock=Clock())
        tracer.patch(mod, "f", lambda: 2, modules=[mod, other])
        self.assertEqual((mod.f(), other.f()), (2, 2))
        tracer.unpatch()
        self.assertIs(mod.f, f)
        self.assertIs(other.f, f)


class Oracles(unittest.TestCase):
    def test_pair_auc_counts_ties_as_half(self):
        scores = [0.9, 0.5, 0.5, 0.1]
        labels = [1, 1, 0, 0]
        self.assertEqual(oracles.pair_auc(scores, labels), 3.5 / 4)

    def test_far_frr_sweep(self):
        th, far, frr = oracles.far_frr([0.9, 0.2, 0.6, 0.1], [1, 1, 0, 0])
        self.assertEqual(list(th), [np.inf, 0.1, 0.2, 0.6, 0.9])
        self.assertEqual(list(far), [0.0, 1.0, 0.5, 0.5, 0.0])
        self.assertEqual(list(frr), [1.0, 0.0, 0.0, 0.5, 0.5])

    def test_rbf_mmd(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(40, 3))
        self.assertAlmostEqual(oracles.rbf_mmd(a, a), 0.0, places=12)
        self.assertGreater(oracles.rbf_mmd(a, a + 2.0), 0.1)

    def test_float32_rounding_bound(self):
        x = np.array([1.0 / 3.0, -2.5e-7, 123.456])
        self.assertTrue(oracles.within_f32_rounding(
            x, x.astype(np.float32).astype(np.float64)))
        self.assertFalse(oracles.within_f32_rounding(x, x * (1 + 2 ** -22)))


if __name__ == "__main__":
    unittest.main()
