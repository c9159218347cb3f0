"""Fixtures shared by the test files."""

import sys

import pytest


def _line_events(module, call, *args):
    """Line events in ``module``'s source file during ``call(*args)``, per
    function; a generator expression's lines count toward the function
    that runs it.  The count does not depend on the machine's speed."""
    counts = {}

    def trace(frame, event, arg):
        if frame.f_code.co_filename != module.__file__:
            return None
        owner = frame
        while owner.f_code.co_name.startswith("<"):
            owner = owner.f_back
        name = owner.f_code.co_name

        def local(frame, event, arg):
            if event == "line":
                counts[name] = counts.get(name, 0) + 1
            return local

        return local

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        call(*args)
    finally:
        sys.settrace(before)
    return counts


@pytest.fixture
def line_events():
    """Count the Python line events one call runs in one module: a cost
    that a test can bound without timing anything."""
    return _line_events
