"""Span recording, self times and the attribution identity."""

import time

from hexbench.spans import ROOT, Instrumentation, SpanRecorder, layer_self_times, self_times


class Target:
    calls = 0

    def method(self, depth=0):
        time.sleep(0.002)
        if depth:
            return self.method(depth - 1)
        return depth

    @classmethod
    def build(cls, size):
        time.sleep(0.001)
        return [0] * size

    @staticmethod
    def helper():
        return "helper"


def test_self_times_add_up_to_the_root():
    recorder = SpanRecorder()
    with recorder.span(ROOT):
        with recorder.span("a"):
            time.sleep(0.002)
            with recorder.span("b"):
                time.sleep(0.001)
        with recorder.span("b"):
            time.sleep(0.001)
    root = recorder.spans[0]
    own = self_times(recorder.spans)
    assert abs(sum(own) - (root[2] - root[1])) < 1e-12
    layers = layer_self_times(recorder.spans)
    assert set(layers) == {ROOT, "a", "b"}
    assert all(value >= 0 for value in layers.values())


def test_instrumentation_wraps_and_restores_every_kind_of_attribute():
    originals = {name: vars(Target)[name] for name in ("method", "build", "helper")}
    instrumentation = Instrumentation([
        (Target, "method", "layer.method", None),
        (Target, "build", "layer.build", lambda recorder, result, args: recorder.add("built", len(result))),
        (Target, "helper", None, None),
    ])
    with instrumentation as recorder:
        with recorder.span(ROOT):
            assert Target().method(depth=2) == 0
            assert Target.build(3) == [0, 0, 0]
            assert Target.helper() == "helper"
    names = [span[0] for span in recorder.spans]
    # The recursive calls of one layer record one span, not three.
    assert names == [ROOT, "layer.method", "layer.build"]
    assert recorder.counts["built"] == 3
    assert {name: vars(Target)[name] for name in originals} == originals
