"""Counted-work curves: how many calls an operation makes as its input grows.

A count does not move with the host's load, so it gates a change to the
algorithm where a wall time cannot.
"""

from collections import Counter

import pytest

from lamtower import frontseed, kinfinity
from lamtower.cells import RedSeq, seq_invert
from lamtower.domains import Tower, flat_base
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


_COUNTED = ("boundary3_words", "word_reduce", "_norm_letter", "seq_compose")

# Calls made by fs_assoc_compare(p, q, r) and then boundary3_words of its
# cell, with |q| = |r| = 1.  Each row is exactly quadratic in n = |p|:
# boundary3_words (3n² + 9n + 2) / 2, word_reduce (5n² + 27n + 6) / 2,
# _norm_letter (n² + 11n + 2) / 2, seq_compose n² + 11n + 3.  At each
# doubling boundary3_words grows 3.68× and then 3.83×, word_reduce 3.49× and
# 3.71×, _norm_letter 3.18× and 3.48×, seq_compose 3.17× and 3.48×, toward
# 4×.  A word that word_reduce built, or a whiskering of one that
# boundary3_words built, is marked reduced and comes back from word_reduce
# with no letter normalized.  Before the mark, word_reduce made 3n² + 16n
# calls and _norm_letter 2n² + 11n - 5 (683 / 2 395 / 8 891).  Of the
# _norm_letter calls left, (n² + 5n + 2) / 2 normalize a whiskering of an
# empty word, one per level the boundary reads descend (a one-letter word
# not in normal form, so never marked); 3n build the HeadNorm generators'
# words.
_CALLS = {
    16: {"boundary3_words": 457, "word_reduce": 859, "_norm_letter": 217,
         "seq_compose": 435},
    32: {"boundary3_words": 1_681, "word_reduce": 2_995, "_norm_letter": 689,
         "seq_compose": 1_379},
    64: {"boundary3_words": 6_433, "word_reduce": 11_107, "_norm_letter": 2_401,
         "seq_compose": 4_803},
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


# Calls made by one cold verify_laws(tower, 3) on the flat base of 3 and of 4
# elements, s = 11 and 67 stage-1 elements.  Tower.apply is called once per
# entry the laws read, quadratic in s.  The laws apply a thread to a whole
# shared row in one app_row call: two per reification of a FromThread (its
# stage-0 and stage-1 rows), s + 4 of them, and eight at each of stages 0
# and 1 in the section law (the 5 reified endomaps and the 3 FromThread
# sides), 2s + 24 in all; no entry goes through app.  stage_embed fills the two rows (|D_0| + s calls) and
# embeds the bottom and the density law's four approximants of each of the
# s stage-1 threads: |D_0| + 5s + 1.  Both are linear in s.  (With one app
# call and one stage_embed call per applied entry they were 322 / 5 609 and
# 499 / 6 592.)
_KINFTY_CALLS = {
    3: {"app_row": 46, "stage_embed": 59, "Tower.apply": 608},
    4: {"app_row": 158, "stage_embed": 340, "Tower.apply": 14_922},
}


@pytest.mark.parametrize("base_size", sorted(_KINFTY_CALLS))
def test_law_suite_work_is_pinned(monkeypatch, base_size):
    # app, app_row and stage_embed are looked up in kinfinity's namespace by
    # its own callers, Tower.apply on the class
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper
    for name in ("app", "app_row", "stage_embed"):
        monkeypatch.setattr(kinfinity, name, counted(name, getattr(kinfinity, name)))
    monkeypatch.setattr(Tower, "apply", counted("Tower.apply", Tower.apply))
    poles = ("sR1", "sL1") + tuple(f"s{i}" for i in range(base_size - 3))
    tower = Tower(flat_base(poles))
    assert kinfinity.verify_laws(tower, 3)["ok"]
    assert dict(calls) == _KINFTY_CALLS[base_size]
    s, d0 = len(tower.stage1), len(tower.base)
    assert calls["app_row"] == 2 * s + 24 and calls["stage_embed"] == d0 + 5 * s + 1
