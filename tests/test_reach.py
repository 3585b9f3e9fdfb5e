"""The bookkeeping of the reach report, ``tests/reach.py``, on a small source; its traced run is a CI job of its own."""

import reach

SOURCE = '''\
import os


def f(x):
    """Not a statement that runs."""
    if x:
        return 1
    try:
        y = (x +
             1)
    except ValueError:
        raise
    return y


class C:
    size = 1

    @staticmethod
    def g():
        pass
'''


def test_a_statement_spans_its_header_or_all_of_its_lines():
    # module and class bodies hold no function-body line; a docstring compiles to nothing
    assert reach.statement_spans(SOURCE) == [(6, 6), (7, 7), (8, 8), (9, 10), (11, 11), (12, 12), (13, 13), (21, 21)]


def test_a_statement_is_reached_by_an_event_on_any_of_its_lines():
    assert reach.unreached("m.py", SOURCE, {6, 7, 8, 10, 13}) == [
        ("m.py", 11, "except ValueError:"), ("m.py", 12, "raise"), ("m.py", 21, "pass"),
    ]


def test_an_unreached_statement_needs_an_entry_and_an_entry_needs_its_statement():
    missed = [("m.py", 12, "raise"), ("m.py", 30, "raise"), ("m.py", 21, "pass")]
    allowed = {("m.py", "raise"): (1, "why"), ("m.py", "return y"): (1, "why")}
    assert reach.judge(missed, allowed) == (["m.py:30: raise", "m.py:21: pass"], ["m.py: return y"])
    assert reach.judge(missed[:1], {("m.py", "raise"): (1, "why")}) == ([], [])
