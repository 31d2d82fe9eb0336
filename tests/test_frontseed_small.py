"""Bounded-exhaustive front-seed checks: every chain (p, q, r, s) of 0- or
1-step forward sequences that starts at a de Bruijn term of at most 6 nodes
with at most two free variables, and every chain from a term of at most 4
nodes whose 0- or 1-step sequences may also step back, by the invert_step of
a forward step from another such term.

The seeded quadruples of acceptance criterion 6 can miss a rare small shape
(the small-scope hypothesis: Jackson, Software Abstractions, 2006).  Each
sequence here is empty, one step by a redex of find_redexes, in the order
find_redexes lists them, or one step back, so the first failure named is a
smallest one.  Forward chains alone never step three times in a row; the
steps back give the nontrivial associators.
"""

import random

import pytest
from smallterms import all_terms

from lamtower.cells import (Pentagon, RedSeq, Triangle, empty_seq, globular_check,
                            seq_compose, seq_invert)
from lamtower.frontseed import (AssL, FS1Seed, FS2Seed, HeadNorm, SeedL, VComp,
                                WlL, WrL, boundary3_words, empty_word,
                                fs_assoc_compare, fs_bridges, fs_pentagon,
                                mixed_target_word, pentagon_words, shell_word,
                                word_of, word_reduce)
from lamtower.gen import gen_composable_seqs
from lamtower.terms import apply_step, find_redexes

SIZE, FREE, ZIGZAG_SIZE = 6, 2, 4


def _chain(*seqs):
    out = seqs[0]
    for s in seqs[1:]:
        out = seq_compose(out, s)
    return out


def _quadruples(terms, back):
    """Every chain (p, q, r, s) from one of `terms` whose sequences are
    empty, one forward step, or one of the steps `back` lists by source."""
    seqs = {}

    def from_term(t):
        if t not in seqs:
            seqs[t] = [empty_seq(t)] + [RedSeq((t, apply_step(t, s)), (s,))
                                        for s in find_redexes(t)] + back.get(t, [])
        return seqs[t]
    return [(p, q, r, s) for t in terms for p in from_term(t)
            for q in from_term(p.target) for r in from_term(q.target)
            for s in from_term(r.target)]


@pytest.fixture(scope="module")
def quadruples():
    return _quadruples(all_terms(SIZE, FREE), {})


@pytest.fixture(scope="module")
def zigzag_quadruples():
    terms, back = all_terms(ZIGZAG_SIZE, FREE), {}
    for u in terms:  # each forward step u -> v, inverted, steps back from v
        for step in find_redexes(u):
            forward = RedSeq((u, apply_step(u, step)), (step,))
            back.setdefault(forward.target, []).append(seq_invert(forward))
    return _quadruples(terms, back)


def test_quadruple_counts(quadruples):
    assert len(quadruples) == 1274
    assert sum(len(quad[0]) > 0 for quad in quadruples) == 206
    # no term of at most 6 nodes reduces twice in a row, so at most one of
    # p, q, r and s takes a step: every associator letter here is on a
    # degenerate argument and every shell and pentagon word reduces to the
    # empty word; the WLWR cells below keep letters, and the zigzag and
    # criterion 6's quadruples carry the nontrivial associators
    assert max(sum(map(len, quad)) for quad in quadruples) == 1


def test_zigzag_quadruple_counts(zigzag_quadruples):
    assert len(zigzag_quadruples) == 759
    assert sum(all(map(len, quad[:3])) for quad in zigzag_quadruples) == 224
    assert max(sum(map(len, quad)) for quad in zigzag_quadruples) == 4


def test_associators_and_pentagons_on_every_small_zigzag(zigzag_quadruples):
    # the exact reduced words of the associator comparison and the pentagon
    # filler, and globular pentagon and triangle 3-cells; the counts are
    # of the chains whose shell or pentagon word keeps a letter
    bad, shells, pentagons = [], 0, 0
    for p, q, r, s in zigzag_quadruples:
        shell = word_reduce(shell_word(p, q, r))
        left, right = map(word_reduce, pentagon_words(p, q, r, s))
        ok = (boundary3_words(fs_assoc_compare(p, q, r))
              == (shell, empty_word(_chain(p, q, r))))
        ok = ok and boundary3_words(fs_pentagon(p, q, r, s)) == (left, right)
        ok = ok and globular_check(Pentagon(p, q, r, s)) and globular_check(Triangle(p, q))
        if not ok:
            bad.append((p, q, r, s))
        shells += bool(shell.letters)
        pentagons += bool(left.letters or right.letters)
    assert bad[:1] == [] and (shells, pentagons) == (224, 416)


def test_front_seed_boundaries_on_every_small_quadruple(quadruples):
    # the exact reduced words, edges included: the associator comparison
    # runs from the shell to the empty word, the pentagon filler from L to
    # R, and the bridges have the words `coherence bridges` checks
    bad = []
    for p, q, r, s in quadruples:
        whole = empty_word(_chain(p, q, r, s))
        left, right = map(word_reduce, pentagon_words(p, q, r, s))
        mixed = word_reduce(mixed_target_word(p, q, r, s))
        ok = (boundary3_words(fs_assoc_compare(p, q, r))
              == (word_reduce(shell_word(p, q, r)), empty_word(_chain(p, q, r))))
        ok = ok and boundary3_words(fs_pentagon(p, q, r, s)) == (left, right)
        bridges = fs_bridges(p, q, r, s, Pentagon(p, q, r, s))
        ok = ok and [boundary3_words(c) for c in bridges] == [
            (left, whole), (mixed, whole), (left, mixed)]
        if not ok:
            bad.append((p, q, r, s))
    assert bad[:1] == []


def _reference_words(e):
    """A generator's reduced boundary words, built from its fields as
    boundary3_words built them on every read before the generators stored
    them."""
    if isinstance(e, FS1Seed):
        beta, gamma = e.eta.src, e.eta.tgt
        src = word_of([WrL(word_of([WlL(e.alpha, e.eta)]), e.delta)])
        tgt = word_of([AssL(e.alpha, beta, e.delta),
                       WlL(e.alpha, word_of([WrL(e.eta, e.delta)])),
                       AssL(e.alpha, gamma, e.delta, inv=True)])
    elif isinstance(e, FS2Seed):
        src = word_of([WlL(e.p, word_of([AssL(e.q, e.r, e.s)]))])
        tgt = empty_word(_chain(e.p, e.q, e.r, e.s))
    else:
        whole = seq_compose(e.head, e.rest)
        src = word_of([AssL(whole, e.q, e.r)])
        tgt = word_of([WlL(e.head, word_of([AssL(e.rest, e.q, e.r)]))])
    return word_reduce(src), word_reduce(tgt)


def _generators(p, q, r, s):
    """The FS2 face of the quadruple, the head-step normalizations of two of
    its associator comparisons, and WLWR cells on three words over q."""
    yield FS2Seed(p, q, r, s)
    for a, b, c in ((p, q, r), (seq_compose(p, q), r, s)):
        cell = fs_assoc_compare(a, b, c)
        while isinstance(cell, VComp):
            yield cell.left
            cell = cell.right.cell
    detour = _chain(q, r, seq_invert(r))
    for eta in (empty_word(q), word_of([SeedL("eta", q, q)]),
                word_of([SeedL("eta", q, detour)])):
        yield FS1Seed(p, eta, r)


def _stored_differs(quads):
    seen, differ = 0, []
    for quad in quads:
        for g in _generators(*quad):
            seen += 1
            if not g.words == boundary3_words(g) == _reference_words(g):
                differ.append(g)
    return seen, differ


def test_stored_words_equal_the_reference_on_small_quadruples(quadruples):
    seen, differ = _stored_differs(quadruples)
    assert differ[:1] == [] and seen == 5714


def test_stored_words_equal_the_reference_on_criterion_6_quadruples():
    rng = random.Random(606)  # the draws of acceptance criterion 6
    quads = [gen_composable_seqs(rng, 4, max_steps=2) for _ in range(200)]
    seen, differ = _stored_differs(quads)
    assert differ[:1] == [] and seen == 1372
