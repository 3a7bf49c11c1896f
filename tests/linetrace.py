"""A line guard for tests: run some code under `sys.settrace` and name the
lines of chosen functions that it never executed.

A test that drives a function with a fixed set of inputs uses it to fail on
any branch those inputs never take, so a rewrite cannot keep a line that no
input reaches.
"""

import sys


def lines_run(action, codes=(), filename=None):
    """Call `action()` under a line tracer. Returns `{code: lines run}` for
    each code object in `codes`, entered or not, and for each code object
    from the file `filename` that the call entered."""
    ran = {code: set() for code in codes}

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in ran and code.co_filename != filename:
            return None
        ran.setdefault(code, set()).add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        action()
    finally:
        sys.settrace(previous)
    return ran


def missed_lines(ran):
    """The `name:line` of every line of each code object in `ran` that is
    not among its lines run, sorted."""
    return sorted({f"{code.co_name}:{line}"
                   for code, lines in ran.items() for _, _, line in code.co_lines()
                   if line is not None and line not in lines})
