"""The no-reference-cycle tests run their steps through
assert_no_reference_cycle, which collects and measures inside untraced(): a
line tracer that keeps a recorder per frame, which refers back to its
frame, leaves a cycle for each traced call (gc callbacks included), and
gc.collect() would count those."""

import gc
import sys


class untraced:
    """A block run with no trace function set; the old one is set again
    when it exits.  __enter__'s own frame drops its local trace function,
    so a per-frame tracer keeps no cycle through it either."""

    def __enter__(self):
        self.trace = sys.gettrace()
        sys.settrace(None)
        sys._getframe().f_trace = None

    def __exit__(self, *exc):
        sys.settrace(self.trace)


def assert_no_reference_cycle(*steps):
    """Call each step in turn, untraced and with the cyclic collector off,
    and assert after each that gc.collect() finds nothing to free: a step
    may leave garbage, but none of it in a reference cycle."""
    with untraced():
        gc.collect()
        gc.disable()
        try:
            for step in steps:
                step()
                assert gc.collect() == 0
        finally:
            gc.enable()
