"""The no-reference-cycle tests collect and measure inside untraced(): a
line tracer that keeps a recorder per frame, which refers back to its
frame, leaves a cycle for each traced call (gc callbacks included), and
gc.collect() would count those."""

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
