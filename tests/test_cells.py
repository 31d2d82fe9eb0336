import hashlib
import itertools
import random

import pytest

from lamtower import cells, serialize
from lamtower.cells import (Assoc, EndpointMismatch, HComp, IllFormed, Interchange,
                            Pentagon, RedSeq, Refl, StepCong, Symm, Trans, Triangle,
                            UnitL, UnitR, WhiskerL, WhiskerR, boundary2, boundary3,
                            empty_seq, globular_check, map_seq, pentagon_sides,
                            seq_compose, seq_invert, validate_seq)
from lamtower.completion import explicit_cell
from lamtower.frontseed import FS2Seed, Word
from lamtower.gen import gen_composable_seqs, gen_h2, gen_h3, gen_term, gen_zigzag
from lamtower.terms import App, Dir, Lam, RedStep, StepKind, Var, subterm
from lamtower.witness import span_beta_seq

SPAN_M = App(Lam(App(Var(1), Var(0))), Var(1))
SPAN_N = App(Var(0), Var(1))


def test_redseq_replay_and_empty():
    p = span_beta_seq()
    assert p.source == SPAN_M and p.target == SPAN_N
    assert validate_seq(p)
    e = empty_seq(SPAN_M)
    assert e.source == e.target == SPAN_M and len(e) == 0


@pytest.mark.parametrize("step", [
    RedStep(StepKind.BETA, 5),  # a path that is not a sequence
    RedStep(StepKind.BETA, "ab"),  # a path of non-directions
    RedStep(StepKind.BETA, (None,)),
    5,  # not a step
])
def test_validate_seq_rejects_ill_typed_steps(step):
    p = span_beta_seq()
    assert validate_seq(RedSeq(p.terms, (step,))) is False


def test_seq_compose_examples():
    e_m = empty_seq(SPAN_M)
    assert seq_compose(e_m, e_m) == e_m
    t_beta = span_beta_seq()
    one = seq_compose(t_beta, empty_seq(SPAN_N))
    assert one == t_beta and len(one) == 1
    with pytest.raises(EndpointMismatch):
        seq_compose(t_beta, t_beta)


def test_seq_compose_strictly_associative(rng):
    for _ in range(25):
        p, q, r = gen_composable_seqs(rng, 3)
        assert seq_compose(p, seq_compose(q, r)) == seq_compose(seq_compose(p, q), r)


def _copy(x):
    """A structurally equal value that shares no object with x."""
    return serialize.loads(serialize.dumps(x))


def test_equal_but_distinct_joints_compose(rng):
    # the joint is tried by identity first; a copy of the shared term must
    # still pass the structural compare
    for _ in range(25):
        p, q = gen_composable_seqs(rng, 2, allow_empty=False)
        q_copy = _copy(q)
        assert q_copy.source == p.target and q_copy.source is not p.target
        assert seq_compose(p, q_copy) == seq_compose(p, q)
        p_copy = _copy(p)
        assert p_copy == p and p_copy.target is not p.target
        assert boundary2(Trans(Refl(p), Refl(p_copy))) == (p, p)


def test_seq_invert_examples(rng):
    assert seq_invert(empty_seq(SPAN_M)) == empty_seq(SPAN_M)
    back = seq_invert(span_beta_seq())
    assert back.source == SPAN_N and back.target == SPAN_M
    assert len(back) == 1 and not back.steps[0].forward
    for _ in range(25):
        p = gen_zigzag(rng, gen_term(rng, 7), rng.randint(0, 4))
        assert seq_invert(seq_invert(p)) == p
        assert validate_seq(seq_invert(p))


def test_boundary_refl_and_assoc(rng):
    p, q, r = gen_composable_seqs(rng, 3)
    assert boundary2(Refl(p)) == (p, p)
    left, right = boundary2(Assoc(p, q, r))
    assert left == right  # literal concatenation
    assert left == seq_compose(seq_compose(p, q), r)


def test_associator_checks_both_joints(rng):
    p, q, r = gen_composable_seqs(rng, 3, allow_empty=False)
    stray = empty_seq(Var(99))
    for bad in (Assoc(p, stray, r), Assoc(p, q, stray), Assoc(stray, q, r)):
        with pytest.raises(EndpointMismatch):
            boundary2(bad)
    s = gen_zigzag(rng, r.target, 1)
    for bad in (Pentagon(stray, q, r, s), Pentagon(p, stray, r, s),
                Pentagon(p, q, stray, s), Pentagon(p, q, r, stray)):
        with pytest.raises(EndpointMismatch):
            boundary3(bad)


def test_boundary_symm_trans(rng):
    p = gen_zigzag(rng, gen_term(rng, 6), 2)
    a = Refl(p)
    assert boundary2(Symm(a)) == (p, p)
    b = Trans(a, Symm(a))
    assert boundary2(b) == (p, p)
    with pytest.raises(EndpointMismatch):
        boundary2(Trans(Refl(p), Refl(empty_seq(Var(99)))))


def test_whisker_preserves_identities(rng):
    p, q = gen_composable_seqs(rng, 2, allow_empty=False)
    cell = WhiskerL(p, Refl(q))
    pq = seq_compose(p, q)
    assert boundary2(cell) == (pq, pq)


def test_unitors():
    p = span_beta_seq()
    src, tgt = boundary2(UnitL(p))
    assert src == seq_compose(empty_seq(p.source), p) == p
    assert tgt == p
    src, tgt = boundary2(UnitR(p))
    assert src == tgt == p


def test_stepcong():
    p = span_beta_seq()
    around, path = Lam(SPAN_M), (Dir.BODY,)
    mapped = map_seq(around, path, p)
    assert mapped.source == Lam(SPAN_M) and mapped.target == Lam(SPAN_N)
    assert validate_seq(mapped)
    cell = StepCong(around, path, Refl(p))
    assert boundary2(cell) == (mapped, mapped)


def test_map_seq_replays_through_every_kind_of_context():
    # each context holds the hole once on each side of an application and
    # once under a binder, in a random order; the mapped sequence must
    # replay, start at the context's term, and hold p's terms at the path
    rng = random.Random(7)
    for _ in range(150):
        p = gen_zigzag(rng, gen_term(rng, 6), rng.randint(1, 3))
        wraps = [(Dir.FUN, lambda t: App(t, gen_term(rng, 5))),
                 (Dir.ARG, lambda t: App(gen_term(rng, 5), t)),
                 (Dir.BODY, Lam)]
        rng.shuffle(wraps)
        around, path = p.source, ()
        for d, wrap in wraps:
            around, path = wrap(around), (d,) + path
        mapped = map_seq(around, path, p)
        assert validate_seq(mapped)
        assert mapped.source == around
        assert [subterm(t, path) for t in mapped.terms] == list(p.terms)


def test_stepcong_needs_the_cell_source_at_its_path():
    # one encoding per context: the hole holds the cell's source term, and
    # a path that leaves the term addresses nothing
    p = span_beta_seq()
    for around, path in [(Lam(SPAN_N), (Dir.BODY,)), (App(SPAN_N, SPAN_M), (Dir.FUN,)),
                         (Lam(SPAN_M), (Dir.FUN,)), (SPAN_M, (Dir.ARG, Dir.BODY))]:
        with pytest.raises(IllFormed):
            boundary2(StepCong(around, path, Refl(p)))


def _stepcong_corpus():
    """(around, path, cell): three seeded draws for every path of at most 3
    selectors, each a gen_h2 cell and side terms beside the path down to the
    cell's source term."""
    rng = random.Random(5)
    for n in range(4):
        for path in itertools.product(Dir, repeat=n):
            for _ in range(3):
                cell = gen_h2(rng)
                around = boundary2(cell)[0].source
                for d in reversed(path):
                    if d is Dir.FUN:
                        around = App(around, gen_term(rng, 4))
                    elif d is Dir.ARG:
                        around = App(gen_term(rng, 4), around)
                    else:
                        around = Lam(around)
                yield around, path, cell


def test_stepcong_boundaries_are_pinned():
    # sha256 computed when a context was a tree of one-hole constructors
    h = hashlib.sha256()
    count = 0
    for around, path, cell in _stepcong_corpus():
        h.update(serialize.dumps(boundary2(StepCong(around, path, cell))).encode())
        h.update(b"\n")
        count += 1
    assert count == 120
    assert h.hexdigest() == ("64edc098faeaf6f08247bec2c7138120"
                             "6d089a4dce6ba946e83717fe48baab58")


def test_pentagon_boundary(rng):
    p, q, r, s = gen_composable_seqs(rng, 4)
    left, right = boundary3(Pentagon(p, q, r, s))
    p0 = seq_compose(seq_compose(seq_compose(p, q), r), s)
    for side in (left, right):
        src, tgt = boundary2(side)
        assert src == p0 and tgt == p0  # all parenthesizations coincide
    assert (left, right) == pentagon_sides(p, q, r, s)


def test_triangle_boundary(rng):
    p, q = gen_composable_seqs(rng, 2)
    src, tgt = boundary3(Triangle(p, q))
    for side in (src, tgt):
        assert boundary2(side) == (seq_compose(p, q), seq_compose(p, q))


def test_interchange_example(rng):
    p = gen_zigzag(rng, gen_term(rng, 6), 1)
    a = Refl(p)
    b = Refl(p)
    u = gen_zigzag(rng, p.target, 1)
    c = Refl(u)
    d = Refl(u)
    src, tgt = boundary3(Interchange(a, b, c, d))
    assert isinstance(src, HComp) and isinstance(tgt, Trans)
    assert boundary2(src) == boundary2(tgt)


def test_interchange_noncomposable(rng):
    p = gen_zigzag(rng, gen_term(rng, 6), 1)
    q = gen_zigzag(rng, gen_term(rng, 6), 1)
    bad_d = Refl(seq_compose(p, seq_invert(p)))
    with pytest.raises(EndpointMismatch):
        boundary3(Interchange(Refl(p), Refl(p), Refl(q), bad_d))


def test_globular_examples(rng):
    a = Refl(gen_zigzag(rng, gen_term(rng, 6), 1))
    assert globular_check(Refl(a))
    for _ in range(10):
        p, q, r, s = gen_composable_seqs(rng, 4)
        assert globular_check(Pentagon(p, q, r, s))


def test_globular_on_generated_cells():
    rng = random.Random(7)
    for _ in range(120):
        cell = gen_h3(rng, depth=2)
        assert globular_check(cell)


@pytest.fixture(scope="module")
def pinned_h3_cells():
    rngs = [random.Random(1000 + depth) for depth in range(4)]
    return [gen_h3(rng, depth) for depth, rng in enumerate(rngs) for _ in range(150)]


def test_boundary3_and_globularity_of_generated_cells_are_pinned(pinned_h3_cells):
    # sha256 computed before boundary3 carried the ends of its 2-cells
    h = hashlib.sha256()
    for c in pinned_h3_cells:
        h.update(serialize.dumps((c, boundary3(c), globular_check(c))).encode())
        h.update(b"\n")
    assert h.hexdigest() == ("0431a046bef0083008ea465d9f55afe9"
                             "91a764e17482c42169091cb5c648905f")


def test_carried_ends_are_the_boundaries_of_their_2cells(pinned_h3_cells):
    for c in pinned_h3_cells:
        ends = cells.boundary3_ends(c)
        assert tuple(cell for cell, _ in ends) == boundary3(c)
        for cell, carried in ends:
            assert carried == boundary2(cell)


def test_boundary_stability(rng):
    for _ in range(30):
        cell = gen_h3(rng, depth=2)
        s, t = boundary3(cell)
        assert boundary3(Symm(cell)) == (t, s)
        assert boundary3(Trans(cell, Refl(t))) == (s, t)


# --- one groupoid family, three dimensions ----------------------------------

def test_boundary2_rejects_other_dimensions():
    p = span_beta_seq()
    three = Refl(Refl(p))
    # Refl used to take any payload, so this 3-cell passed as a 2-cell
    with pytest.raises(IllFormed, match="Refl holds a RedSeq, not Refl"):
        boundary2(Symm(three))
    for bad in (three, Trans(Refl(p), three), WhiskerL(p, three),
                HComp(Refl(p), three), Refl(SPAN_M),
                Refl(Word(p, p, ())), Pentagon(p, empty_seq(SPAN_N),
                                               empty_seq(SPAN_N), empty_seq(SPAN_N))):
        with pytest.raises(IllFormed):
            boundary2(bad)


def test_boundary3_rejects_other_dimensions(rng):
    p, q, r = gen_composable_seqs(rng, 3)
    two = Refl(p)
    for bad in (two, Symm(two), Trans(Refl(two), two), HComp(Refl(two), two),
                Assoc(p, q, r), Refl(p.source),
                # front-seed expressions
                Refl(Word(p, p, ())), Symm(Refl(Word(p, p, ()))),
                FS2Seed(p, q, r, empty_seq(r.target))):
        with pytest.raises(IllFormed):
            boundary3(bad)
    assert boundary3(Refl(two)) == (two, two)


@pytest.mark.parametrize("name, make", [
    ("HComp3", lambda p, e: HComp(Triangle(p, e), Triangle(p, e))),
    ("WhiskerL3", lambda p, e: WhiskerL(p, Triangle(p, e))),
    ("WhiskerR3", lambda p, e: WhiskerR(Triangle(p, e), p)),
])
def test_boundary3_validates_the_2cells_it_builds(name, make):
    # the 3-cell HComp and whiskers: Triangle(p, e) runs from p's source to
    # p's target, so none of these compose; they used to be accepted, and
    # globular_check on them raised
    p = span_beta_seq()
    e = empty_seq(p.target)
    with pytest.raises(EndpointMismatch):
        boundary3(make(p, e))


def test_boundary3_accepts_composable_whiskers_and_hcomp(rng):
    p, q, r, s = gen_composable_seqs(rng, 4)
    for cell in (HComp(Triangle(p, q), Triangle(r, s)), WhiskerL(p, Triangle(q, r)),
                 WhiskerR(Triangle(p, q), r)):
        assert globular_check(cell)


def test_cell_dim(rng):
    p, q, r, s = gen_composable_seqs(rng, 4)
    two, three = Refl(p), Pentagon(p, q, r, s)
    assert cells.cell_dim(p) == 1
    for cell in (two, Assoc(p, q, r), Symm(Trans(two, two)), WhiskerL(p, two),
                 HComp(StepCong(Lam(p.source), (Dir.BODY,), two), two)):
        assert cells.cell_dim(cell) == 2
    for cell in (three, Refl(two), Symm(Trans(Refl(two), three)),
                 WhiskerR(HComp(three, three), s)):
        assert cells.cell_dim(cell) == 3
    # terms, words, front-seed expressions and a Refl above dimension 3
    for other in (p.source, Word(p, p, ()), Refl(Word(p, p, ())),
                  Symm(FS2Seed(p, q, r, s)), Refl(three), Refl(Refl(three))):
        assert cells.cell_dim(other) is None


def test_explicit_cell_checks_dimension(rng):
    p = gen_zigzag(rng, gen_term(rng, 6), 1)
    two, three = Refl(p), Refl(Refl(p))
    assert explicit_cell(2, Symm(two)).payload == Symm(two)
    assert explicit_cell(3, Symm(three)).payload == Symm(three)
    # a 3-cell of shared constructors used to be accepted at dimension 2
    for dim, bad in ((2, three), (2, Symm(three)), (3, two), (3, Trans(two, two)),
                     (2, p), (1, two), (3, Refl(Word(p, p, ()))), (0, two)):
        with pytest.raises(IllFormed, match=f"dimension {dim} does not accept"):
            explicit_cell(dim, bad)


def test_explicit_cell_checks_its_payload():
    # only the leftmost leaf used to be read: a sequence that does not
    # replay was accepted (and realize_boundary_check passed it), and a
    # Trans of unequal 2-cells failed only at a later boundary read
    p = span_beta_seq()
    q = seq_invert(p)
    with pytest.raises(IllFormed, match="must replay its steps"):
        explicit_cell(1, RedSeq(q.terms, p.steps))
    with pytest.raises(EndpointMismatch, match="middle boundaries differ"):
        explicit_cell(2, Trans(Refl(p), Refl(q)))
    with pytest.raises(EndpointMismatch, match="middle boundaries differ"):
        explicit_cell(3, Trans(Refl(Refl(p)), Refl(Refl(q))))
    # a 20 000-deep term: the shape checks are iterative
    deep = Var(0)
    for i in range(20_000):
        deep = Lam(deep) if i % 2 else App(deep, Var(i % 3))
    assert validate_seq(empty_seq(deep))
    for dim, good in ((0, deep), (1, empty_seq(deep)), (1, p),
                      (2, Trans(Refl(p), Refl(p))), (3, Refl(Refl(q)))):
        assert explicit_cell(dim, good).payload == good
