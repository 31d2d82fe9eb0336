"""Counted-work curves: how many calls an operation makes as its input grows.

A count does not move with the host's load, so it gates a change to the
algorithm where a wall time cannot.
"""

from collections import Counter

import pytest

from lamtower import frontseed
from lamtower.cells import RedSeq, seq_invert
from lamtower.witness import span_beta_seq


def _span_zigzag(lengths):
    """Chained sequences of the given lengths over the span's beta step and
    its inverse in turn, starting at the span's source."""
    total = sum(lengths)
    beta = span_beta_seq()
    terms = (beta.source, beta.target) * (total // 2 + 1)
    steps = (beta.steps[0], seq_invert(beta).steps[0]) * (total // 2 + 1)
    cuts = [sum(lengths[:i]) for i in range(len(lengths) + 1)]
    return [RedSeq(terms[a:b + 1], steps[a:b]) for a, b in zip(cuts, cuts[1:])]


_COUNTED = ("boundary3_words", "word_reduce", "seq_compose")

# Calls made by fs_assoc_compare(p, q, r) and then boundary3_words of its
# cell, with |q| = |r| = 1.  Each row is exactly quadratic in n = |p|:
# boundary3_words (3n² + 9n + 2) / 2, word_reduce 3n² + 16n, seq_compose
# n² + 11n + 3.  At each doubling boundary3_words grows 3.68× and then 3.83×,
# word_reduce 3.50× and 3.71×, seq_compose 3.17× and 3.48×, toward 4×.
_CALLS = {
    16: {"boundary3_words": 457, "word_reduce": 1_024, "seq_compose": 435},
    32: {"boundary3_words": 1_681, "word_reduce": 3_584, "seq_compose": 1_379},
    64: {"boundary3_words": 6_433, "word_reduce": 13_312, "seq_compose": 4_803},
}


@pytest.mark.parametrize("n", sorted(_CALLS))
def test_assoc_compare_work_is_pinned(monkeypatch, n):
    # the wrappers replace frontseed's own bindings, which its recursive
    # calls and its constructors' checks look up
    calls = Counter()
    for name in _COUNTED:
        def counted(*args, _name=name, _f=getattr(frontseed, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(frontseed, name, counted)
    p, q, r = _span_zigzag((n, 1, 1))
    frontseed.boundary3_words(frontseed.fs_assoc_compare(p, q, r))
    assert dict(calls) == _CALLS[n]
