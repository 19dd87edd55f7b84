"""Self-time arithmetic of the tracer, on synthetic calls with a fake clock."""

import threading

import pytest

import tracing


class FakeClock:
    """A clock that moves only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def make_tracer():
    clock = FakeClock()
    return tracing.Tracer(clock=clock, cpu_clock=clock), clock


def test_nested_self_time():
    tracer, clock = make_tracer()
    leaf = tracer.wrap(lambda: clock.tick(2.0), "basis.eval")

    def middle():
        clock.tick(1.0)
        leaf()
        clock.tick(0.5)
        leaf()
        clock.tick(3.0)

    tracer.begin_op(0)
    tracer.wrap(middle, "local_ops.context")()
    tracer.end_op()

    assert [s[0] for s in tracer.spans] == ["local_ops.context", "basis.eval", "basis.eval"]
    assert [s[4] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.self_times() == pytest.approx([4.5, 2.0, 2.0])
    summary = tracer.op_summary(0, op_wall=9.0)
    assert summary["local_ops.context.self_s"] == pytest.approx(4.5)
    assert summary["basis.eval.self_s"] == pytest.approx(4.0)
    assert summary["basis.eval.calls"] == 2
    assert summary["trace.coverage"] == pytest.approx(8.5 / 9.0)


def test_span_from_second_thread_is_child_of_the_caller():
    tracer, clock = make_tracer()
    work = tracer.wrap(lambda: clock.tick(5.0), "local_ops.context")

    def caller():
        clock.tick(1.0)
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.tick(2.0)

    tracer.begin_op(3)
    tracer.wrap(caller, "harness.glue")()
    tracer.end_op()

    glue, ctx = tracer.spans
    assert ctx[5] != glue[5]           # recorded on another thread
    assert ctx[4] == 0                 # whose parent is the caller's span
    assert ctx[6] == glue[6] == 3      # in the same operation
    assert tracer.self_times() == pytest.approx([3.0, 5.0])
    summary = tracer.op_summary(3, op_wall=8.0)
    assert summary["harness.glue.self_s"] == pytest.approx(3.0)
    assert summary["local_ops.context.self_s"] == pytest.approx(5.0)
    assert summary["local_ops.context.calls"] == 1
    assert summary["local_ops.us_per_cell"] == pytest.approx(5e6)
    assert summary["trace.coverage"] == pytest.approx(1.0)


def test_overlapping_children_are_counted_once():
    tracer, _ = make_tracer()
    # layer, fn, start, end, parent, thread, op, cpu
    tracer.spans = [
        ["harness.glue", "p", 0.0, 10.0, -1, 1, 0, 0.0],
        ["local_ops.context", "a", 1.0, 5.0, 0, 2, 0, 4.0],
        ["local_ops.context", "b", 3.0, 7.0, 0, 3, 0, 1.0],
    ]
    assert tracer.self_times() == pytest.approx([4.0, 4.0, 4.0])
    summary = tracer.op_summary(0, op_wall=10.0)
    assert summary["local_ops.offcpu_s"] == pytest.approx(3.0)
    assert summary["local_ops.context.calls"] == 2


def test_spans_outside_the_operation_are_ignored():
    tracer, clock = make_tracer()
    leaf = tracer.wrap(lambda: clock.tick(1.0), "basis.eval")
    leaf()
    tracer.begin_op(1)
    leaf()
    tracer.count("assembly.cg_iters", 7)
    tracer.end_op()
    summary = tracer.op_summary(1, op_wall=1.0)
    assert summary["basis.eval.calls"] == 1
    assert summary["basis.eval.self_s"] == pytest.approx(1.0)
    assert summary["assembly.cg_iters"] == 7
