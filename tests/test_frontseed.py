import hashlib
import random

import pytest

from lamtower import cells, frontseed, serialize
from lamtower.cells import (EndpointMismatch, Pentagon, RedSeq, empty_seq,
                            seq_compose, seq_invert)
from lamtower.frontseed import (AssL, FS1Seed, FS2Seed, HeadNorm, HornGlueFailure,
                                NonComposable, ReflL, SeedL, WlL, Word, WrL,
                                assemble_pentagon_filler,
                                boundary3_words, concat_words, empty_word,
                                fs_assoc_compare, fs_bridges, fs_pentagon,
                                interp_cell2, inv_word, letter_edges, letter_inv,
                                mixed_target_word, pentagon_words,
                                shell_word, word_of, word_reduce, words_equal)
from lamtower.gen import (gen_composable_seqs, gen_h2, gen_h2_at, gen_term,
                          gen_word, gen_zigzag, insert_cancelling_pairs)
from lamtower.witness import span_beta_seq
from test_cells import _stepcong_corpus


def _span_quad():
    t_beta = span_beta_seq()
    back = seq_invert(t_beta)
    return t_beta, back, t_beta, back


# --- word engine ------------------------------------------------------------

def test_reduce_drops_refl(rng):
    e = gen_zigzag(rng, gen_term(rng, 6), 1)
    w = word_of([ReflL(e)])
    assert word_reduce(w).letters == ()


def test_reduce_cancels_adjacent_inverses(rng):
    p, q, r = gen_composable_seqs(rng, 3, allow_empty=False)
    a = AssL(p, q, r)
    w = word_of([a, letter_inv(a)])
    assert word_reduce(w).letters == ()


def test_reduce_idempotent_and_insertion_invariant():
    rng = random.Random(11)
    for _ in range(150):
        w = gen_word(rng, rng.randint(0, 5))
        red = word_reduce(w)
        assert word_reduce(red) == red
        padded = insert_cancelling_pairs(rng, w, rng.randint(1, 3))
        assert word_reduce(padded).letters == red.letters


def test_degenerate_letters_unwrap(rng):
    p, q = gen_composable_seqs(rng, 2, allow_empty=False)
    # associator on a degenerate argument drops
    assert word_reduce(word_of([AssL(empty_seq(p.source), p, q)])).letters == ()
    # whiskering by an empty edge splices the inner word
    inner = word_of([SeedL("g", p, p)])
    w = word_of([WlL(empty_seq(p.source), inner)])
    assert word_reduce(w).letters == inner.letters
    # whisker letters with trivial inner content drop
    w2 = word_of([WlL(p, empty_word(q))])
    assert word_reduce(w2).letters == ()


def test_inv_word_involution(rng):
    w = gen_word(random.Random(5), 4)
    assert inv_word(inv_word(w)) == w


def test_word_times_its_inverse_reduces_to_nothing():
    # the groupoid law w . w^-1 = id, on generated words that whisker on the
    # right by an empty edge (whose inner word splices out, inverted)
    rng = random.Random(3)
    checked = 0
    for _ in range(300):
        w = gen_word(rng, rng.randint(1, 5))
        assert word_reduce(concat_words(w, inv_word(w))).letters == ()
        assert word_reduce(concat_words(inv_word(w), w)).letters == ()
        checked += any(isinstance(l, WrL) and not l.edge.steps for l in w.letters)
    assert checked >= 50


def test_inverse_letters_swap_their_edges(rng):
    # whiskers of a non-endo seed, so source and target differ
    p, q = gen_composable_seqs(rng, 2, allow_empty=False)
    detour = gen_zigzag(rng, p.source, 2)
    p2 = seq_compose(seq_compose(detour, seq_invert(detour)), p)
    inner = word_of([SeedL("g", p, p2)])
    back = seq_invert(p)
    for l in (WrL(inner, q), WrL(inner, empty_seq(p.target)), WlL(back, inner),
              SeedL("g", p, p2), AssL(back, p, q)):
        src, tgt = letter_edges(l)
        assert letter_edges(letter_inv(l)) == (tgt, src)
        assert letter_inv(letter_inv(l)) == l


def test_whiskered_associator_shares_its_one_composite(rng):
    # an associator word starts and ends at one object, so a whisker of it
    # composes its edge once: both of the letter's edges are that composite
    p, q, r, s = gen_composable_seqs(rng, 4, allow_empty=False)
    for l in (WlL(p, word_of([AssL(q, r, s)])), WrL(word_of([AssL(p, q, r)]), s)):
        assert l.inner.src is l.inner.tgt
        src, tgt = letter_edges(l)
        assert src is tgt and letter_edges(letter_inv(l)) == (src, src)
        assert src == (seq_compose(p, l.inner.src) if isinstance(l, WlL)
                       else seq_compose(l.inner.src, s))


def _inverse_pair_by_composite(l1, l2):
    """A wrong _inverse_pair: associators cancel when their three arguments
    compose to one sequence, whatever the split."""
    if isinstance(l1, AssL) and isinstance(l2, AssL):
        return l1.inv != l2.inv and letter_edges(l1) == letter_edges(l2)
    return l1 == letter_inv(l2)


def _associators_on_two_splits():
    """AssL(a, b, c) then AssL(a', b', c', inv=True) on the 4-step sequence
    beta, back, beta, back of the span quadruple, split 1|1|2 and 2|1|1."""
    t, back, _, _ = _span_quad()
    return word_of([AssL(t, back, seq_compose(t, back)),
                    AssL(seq_compose(t, back), t, back, inv=True)])


def test_associators_on_different_splits_do_not_cancel(monkeypatch):
    # distinct generators of the free groupoid, though both sides compose to
    # the same sequence; an engine that cancels them passes the boundary
    # checks, which reduce both sides with the same word_reduce
    w = _associators_on_two_splits()
    assert len(w.src) == 4
    assert word_reduce(w).letters == w.letters
    assert not words_equal(w, empty_word(w.src))
    monkeypatch.setattr(frontseed, "_inverse_pair", _inverse_pair_by_composite)
    assert word_reduce(w).letters == ()
    assert words_equal(w, empty_word(w.src))


def _with_eq(l):
    fields = [getattr(l, f) for f in l.__match_args__]
    return type(l)(*fields[:-1], True)


def test_inverse_pair_agrees_with_the_inverse_letter():
    # _inverse_pair reads the letters' fields; letter_inv is the reference,
    # on every ordered pair of generated letters that normalization keeps
    # (all but ReflL), their inverses, their equality-tagged forms and
    # copies that share no object with them
    rng = random.Random(23)
    letters = [l for _ in range(25) for l in gen_word(rng, rng.randint(1, 4)).letters
               if not isinstance(l, ReflL)]
    letters += [letter_inv(l) for l in letters]
    letters += [_with_eq(l) for l in letters[:20]]
    letters += [serialize.loads(serialize.dumps(l)) for l in letters[::3]]
    assert {type(l) for l in letters} == {AssL, WlL, WrL, SeedL}
    pairs = 0
    for l1 in letters:
        for l2 in letters:
            expected = l1 == letter_inv(l2)
            assert frontseed._inverse_pair(l1, l2) == expected
            pairs += expected
    assert pairs > len(letters)


def test_only_word_reduce_marks_a_word_reduced():
    # a word that word_reduce built comes back as it is; one built any other
    # way, even with a reduced word's letters, is reduced afresh, and the
    # argument of word_reduce is never taken as reduced
    rng = random.Random(29)
    nonempty = 0
    for _ in range(100):
        w = gen_word(rng, rng.randint(0, 5))
        padded = insert_cancelling_pairs(rng, w, rng.randint(1, 3))
        red = word_reduce(padded)
        assert word_reduce(red) is red
        again = word_reduce(padded)
        assert again is not padded and again == red
        for copy in (concat_words(red, empty_word(red.tgt)), inv_word(inv_word(red)),
                     Word(red.src, red.tgt, red.letters),
                     serialize.loads(serialize.dumps(red))):
            assert copy == red and word_reduce(copy) is not copy
        # the mark is no field: equality, hash, repr and encoding ignore it
        plain = Word(red.src, red.tgt, red.letters)
        assert (hash(plain), repr(plain), serialize.dumps(plain)) \
            == (hash(red), repr(red), serialize.dumps(red))
        back = word_reduce(inv_word(red))
        for both in (concat_words(red, inv_word(red)), concat_words(red, back),
                     concat_words(back, red)):
            assert word_reduce(both).letters == ()
        loaded = serialize.loads(serialize.dumps(padded))
        assert word_reduce(loaded) == red
        nonempty += bool(red.letters)
    assert nonempty >= 50
    assert Word.__match_args__ == ("src", "tgt", "letters")
    p, q, r, s = _span_quad()
    mixed = mixed_target_word(p, q, r, s)
    assert word_reduce(mixed) is not mixed
    assert word_reduce(mixed).letters == mixed.letters[1:]


def test_whiskered_boundary_words_are_reduced():
    # boundary3_words takes a whiskering as reduced only over a non-empty
    # reduced word and an edge with steps; over an empty word or an empty
    # edge it reduces it afresh, to nothing or to the spliced word
    rng = random.Random(31)
    shapes = set()
    for _ in range(80):
        w = gen_word(rng, rng.randint(0, 3))
        padded = insert_cancelling_pairs(rng, w, rng.randint(1, 2))
        there = gen_zigzag(rng, padded.src.source, rng.randint(0, 2))
        back = gen_zigzag(rng, padded.src.target, rng.randint(0, 2))
        prefix, suffix = seq_invert(there), back
        for cell, letter in ((cells.WhiskerL(prefix, cells.Refl(padded)),
                              WlL(prefix, padded)),
                             (cells.WhiskerR(cells.Symm(cells.Refl(padded)), suffix),
                              WrL(padded, suffix))):
            expected = word_reduce(word_of([letter]))
            assert boundary3_words(cell) == (expected, expected)
            shapes.add((bool(letter.edge.steps), bool(word_reduce(padded).letters)))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


# --- seeds ------------------------------------------------------------------

def test_fs1_display(rng):
    alpha, beta, delta = gen_composable_seqs(rng, 3, allow_empty=False)
    gamma = beta  # a parallel edge
    eta = word_of([SeedL("eta", beta, gamma)])
    cell = FS1Seed(alpha, eta, delta)
    src, tgt = boundary3_words(cell)
    assert len(src.letters) == 1
    assert isinstance(src.letters[0], WrL)
    assert len(tgt.letters) == 3
    first, mid, last = tgt.letters
    assert first == AssL(alpha, beta, delta)
    assert isinstance(mid, WlL) and mid.edge == alpha
    assert last == AssL(alpha, gamma, delta, inv=True)


def test_fs1_noncomposable(rng):
    alpha, beta, delta = gen_composable_seqs(rng, 3, allow_empty=False)
    eta = word_of([SeedL("eta", delta, delta)])  # starts at the wrong place
    with pytest.raises(NonComposable):
        FS1Seed(alpha, eta, delta)


def test_fs2_display(rng):
    p, q, r, s = gen_composable_seqs(rng, 4, allow_empty=False)
    cell = FS2Seed(p, q, r, s)
    src, tgt = boundary3_words(cell)
    assert tgt.letters == ()
    assert len(src.letters) == 1
    (wl,) = src.letters
    assert isinstance(wl, WlL) and wl.edge == p
    assert wl.inner.letters == (AssL(q, r, s),)


def _span_generators():
    """One FS1Seed, FS2Seed and HeadNorm on the span quadruple."""
    p, q, r, s = _span_quad()
    detour = seq_compose(seq_compose(q, r), seq_invert(r))
    pq = seq_compose(p, q)
    return [FS1Seed(p, word_of([SeedL("eta", q, detour)]), r), FS2Seed(p, q, r, s),
            HeadNorm(RedSeq(pq.terms[:2], pq.steps[:1]), RedSeq(pq.terms[1:], pq.steps[1:]),
                     r, s)]


def test_generators_are_values_of_their_fields_alone():
    # the stored words take no part in equality, hashing, the repr, matching
    # or the encoding; the two digests pin the encoding and the repr
    gens = _span_generators()
    fields = {FS1Seed: ("alpha", "eta", "delta"), FS2Seed: ("p", "q", "r", "s"),
              HeadNorm: ("head", "rest", "q", "r")}
    for g in gens:
        cls = type(g)
        values = tuple(getattr(g, f) for f in fields[cls])
        assert cls.__match_args__ == fields[cls]
        assert g == cls(*values) and g is not cls(*values)
        assert hash(g) == hash(values)
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields[cls], values))
        assert repr(g) == f"{cls.__name__}({shown})"
        assert serialize.loads(serialize.dumps(g)) == g
        with pytest.raises(AttributeError):
            g.words = g.words
    assert gens[1] != FS2Seed(*reversed(_span_quad()))
    digest = hashlib.sha256("".join(map(serialize.dumps, gens)).encode()).hexdigest()
    assert digest == "c3b993dc87ce03ccaa5f8ea5ed577952d46c370162eb59addca2e808eeefe7b7"
    digest = hashlib.sha256("".join(map(repr, gens)).encode()).hexdigest()
    assert digest == "b8635d58d22665ecb21568837bc527f5e28c9f35d655d46d76248e6ebe08c3e4"


def test_malformed_generators_raise_at_construction():
    p, q, r, s = _span_quad()  # p and r go from the span's source to its target
    joint = (EndpointMismatch, "cannot compose: target of first != source of second")
    cases = [
        (lambda: FS1Seed(p, word_of([SeedL("eta", p, p)]), q),
         (NonComposable, "FS1: eta's source edge must start where alpha ends")),
        (lambda: FS1Seed(p, word_of([SeedL("eta", q, q)]), q),
         (NonComposable, "FS1: delta must start where eta's edges end")),
        (lambda: FS2Seed(p, p, r, s), joint),
        (lambda: FS2Seed(p, q, r, r), joint),
        (lambda: HeadNorm(seq_compose(p, q), empty_seq(p.source), r, s),
         (NonComposable, "HeadNorm peels exactly one step")),
        (lambda: HeadNorm(empty_seq(p.source), p, q, r),
         (NonComposable, "HeadNorm peels exactly one step")),
        (lambda: HeadNorm(p, empty_seq(p.source), q, r), joint),
        (lambda: HeadNorm(p, empty_seq(p.target), q, q), joint),
    ]
    for build, (cls, message) in cases:
        with pytest.raises(cls) as info:
            build()
        assert (type(info.value), str(info.value)) == (cls, message)


def test_fs1_on_a_word_whose_edges_are_not_parallel():
    # eta's source edge fits alpha and delta but its target edge ends
    # elsewhere: the construction composes its whiskerings and refuses it
    p, q, r, _ = _span_quad()
    eta = word_of([SeedL("eta", q, seq_compose(q, p))])
    with pytest.raises(EndpointMismatch,
                       match="^cannot compose: target of first != source of second$"):
        FS1Seed(p, eta, r)


# --- associator comparison --------------------------------------------------

def test_assoc_compare_empty_first(rng):
    q, r = gen_composable_seqs(rng, 2)
    p = empty_seq(q.source)
    cell = fs_assoc_compare(p, q, r)
    assert isinstance(cell, cells.Refl)
    src, tgt = boundary3_words(cell)
    assert src.letters == () and tgt.letters == ()


@pytest.mark.parametrize("steps", [1, 3])
def test_assoc_compare_boundary(steps):
    rng = random.Random(steps)
    t = gen_term(rng, 7)
    p = gen_zigzag(rng, t, steps)
    q = gen_zigzag(rng, p.target, 1)
    r = gen_zigzag(rng, q.target, 1)
    cell = fs_assoc_compare(p, q, r)
    src, tgt = boundary3_words(cell)
    assert words_equal(src, shell_word(p, q, r))
    assert tgt.letters == ()
    # one head-step layer per step of p
    layers = 0
    probe = cell
    while hasattr(probe, "left"):
        layers += 1
        probe = probe.right.cell
    assert layers == steps


def test_assoc_compare_random(rng):
    for _ in range(30):
        p, q, r = gen_composable_seqs(rng, 3)
        src, tgt = boundary3_words(fs_assoc_compare(p, q, r))
        assert words_equal(src, shell_word(p, q, r))
        assert tgt.letters == ()


# --- pentagon ---------------------------------------------------------------

def test_pentagon_all_empty():
    t = gen_term(random.Random(2), 6)
    e = empty_seq(t)
    filler = fs_pentagon(e, e, e, e)
    src, tgt = boundary3_words(filler)
    assert src.letters == () and tgt.letters == ()


def test_pentagon_span_quadruple():
    p, q, r, s = _span_quad()
    filler = fs_pentagon(p, q, r, s)
    left, right = pentagon_words(p, q, r, s)
    src, tgt = boundary3_words(filler)
    assert words_equal(src, left) and words_equal(tgt, right)
    assert len(filler.faces) == 5


def test_pentagon_random_quadruples():
    rng = random.Random(23)
    for _ in range(40):
        p, q, r, s = gen_composable_seqs(rng, 4)
        filler = fs_pentagon(p, q, r, s)
        left, right = pentagon_words(p, q, r, s)
        src, tgt = boundary3_words(filler)
        assert words_equal(src, left) and words_equal(tgt, right)


def test_pentagon_corrupted_face():
    p, q, r, s = _span_quad()
    good_back = [fs_assoc_compare(seq_compose(p, q), r, s),
                 fs_assoc_compare(p, q, seq_compose(r, s))]
    wrong = cells.Refl(empty_word(seq_compose(seq_compose(seq_compose(p, q), r), s)))
    with pytest.raises(HornGlueFailure):
        assemble_pentagon_filler(p, q, r, s, FS2Seed(p, q, r, s), wrong,
                                 fs_assoc_compare(p, seq_compose(q, r), s),
                                 good_back)


# --- bridges ----------------------------------------------------------------

def test_bridges_all_empty():
    t = gen_term(random.Random(4), 6)
    e = empty_seq(t)
    for cell in fs_bridges(e, e, e, e, Pentagon(e, e, e, e)):
        src, tgt = boundary3_words(cell)
        assert src.letters == () and tgt.letters == ()


def test_bridges_span_quadruple():
    p, q, r, s = _span_quad()
    source_b, target_b, shell_b = fs_bridges(p, q, r, s, Pentagon(p, q, r, s))
    left, _ = pentagon_words(p, q, r, s)
    mixed = mixed_target_word(p, q, r, s)
    assert words_equal(boundary3_words(source_b)[0], left)
    assert boundary3_words(source_b)[1].letters == ()
    assert words_equal(boundary3_words(target_b)[0], mixed)
    assert boundary3_words(target_b)[1].letters == ()
    assert words_equal(boundary3_words(shell_b)[0], left)
    assert words_equal(boundary3_words(shell_b)[1], mixed)
    # the mixed shell really is mixed: its whisker-by-s factor is tagged
    assert mixed.letters[0].eq and not mixed.letters[1].eq


def test_bridges_mismatched_pentagon():
    p, q, r, s = _span_quad()
    with pytest.raises(NonComposable):
        fs_bridges(p, q, r, s, Pentagon(q, p, r, s))


def test_bridges_random():
    rng = random.Random(31)
    for _ in range(25):
        p, q, r, s = gen_composable_seqs(rng, 4)
        source_b, target_b, shell_b = fs_bridges(p, q, r, s, Pentagon(p, q, r, s))
        left, _ = pentagon_words(p, q, r, s)
        mixed = mixed_target_word(p, q, r, s)
        assert words_equal(boundary3_words(shell_b)[0], left)
        assert words_equal(boundary3_words(shell_b)[1], mixed)


# --- the shared groupoid constructors ---------------------------------------

def test_boundary3_words_rejects_cells_of_the_tower():
    p, q, r, s = _span_quad()
    two = cells.Refl(p)
    for bad in (cells.Refl(two), two, cells.Symm(cells.Refl(two)),
                cells.WhiskerL(p, cells.Triangle(q, r)), Pentagon(p, q, r, s),
                cells.Symm(cells.Triangle(p, q)), cells.Refl(p)):
        with pytest.raises(NonComposable):
            boundary3_words(bad)
    # no horizontal composition of expressions
    fs2 = FS2Seed(p, q, r, s)
    with pytest.raises(NonComposable):
        boundary3_words(cells.HComp(fs2, cells.Refl(empty_word(empty_seq(s.target)))))


def test_shared_constructors_on_expressions():
    p, q, r, s = _span_quad()
    fs2 = FS2Seed(p, q, r, s)
    src, tgt = boundary3_words(fs2)
    assert boundary3_words(cells.Symm(fs2)) == (tgt, src)
    assert boundary3_words(cells.Trans(fs2, cells.Refl(tgt))) == (src, tgt)
    assert boundary3_words(cells.Trans(fs2, cells.Symm(fs2))) == (src, src)
    with pytest.raises(cells.EndpointMismatch):
        boundary3_words(cells.Trans(fs2, fs2))
    edge = s  # ends where the seed's edges start
    wl_src, wl_tgt = boundary3_words(cells.WhiskerL(edge, cells.Symm(fs2)))
    assert (wl_src, wl_tgt) == (word_reduce(word_of([WlL(edge, tgt)])),
                                word_reduce(word_of([WlL(edge, src)])))


def test_interp_cell2_rejects_3cells():
    p, q, r, s = _span_quad()
    three = cells.Refl(cells.Refl(p))
    # a Refl of a 2-cell used to interpret as an empty word over that 2-cell
    with pytest.raises(NonComposable, match="cannot interpret a Refl of Refl"):
        interp_cell2(three)
    for bad in (cells.Symm(three), cells.Trans(three, three), Pentagon(p, q, r, s),
                cells.Refl(word_of([AssL(p, q, r)]))):
        with pytest.raises(ValueError):
            interp_cell2(bad)
    assert interp_cell2(cells.Refl(p)) == empty_word(p)


def _interp_corpus():
    """gen_h2 cells, the StepCong cells of test_cells, and the horizontal
    composite of each with a cell, plain or a StepCong, rooted where it ends."""
    rng = random.Random(12)
    out = [gen_h2(rng, depth) for depth in range(4) for _ in range(25)]
    out += [cells.StepCong(*row) for row in _stepcong_corpus()]
    for i, h in enumerate(list(out)):
        end = cells.boundary2(h)[0].target
        partner = gen_h2_at(rng, end, 1, rooted=True)
        if i % 2:
            partner = cells.StepCong(end, (), partner)
        out.append(cells.HComp(h, partner))
    return out


def test_explicit_2cells_interpret_to_the_empty_word():
    # Assoc, UnitL and UnitR have equal ends under strict concatenation and
    # every constructor keeps them equal, so no 2-cell needs a seed letter
    corpus = _interp_corpus()
    assert {type(h) for h in corpus} >= {cells.HComp, cells.StepCong}
    for h in corpus:
        s, t = cells.boundary2(h)
        assert s == t
        assert word_reduce(interp_cell2(h)) == empty_word(s)
