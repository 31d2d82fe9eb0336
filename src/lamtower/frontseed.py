"""Free-groupoid word engine for 2-cell boundaries and the seeded 3-cell
calculus built on it: the two chosen seed cells, the recursive associator
comparison, the pentagon horn filler, and the source/target/shell bridges.

Words are chains of oriented letters over reduction-sequence edges.  Letters
whiskered by an empty edge unwrap, letters whose inner word is trivial drop,
associator letters on a degenerate argument drop, and letters tagged as
equality-generated drop: with literal concatenation those cells compare
definitionally equal composites, so their reduced content is empty.
"""

from __future__ import annotations

from typing import Union

from . import cells
from .cells import (Homotopy2, Homotopy3, RedSeq, Refl, Symm, WhiskerL,
                    WhiskerR, boundary2, boundary3, groupoid_boundary,
                    seq_compose)
from .record import record


class NonComposable(ValueError):
    """Edges or boundary words fail to line up for the attempted operation."""


class HornGlueFailure(ValueError):
    """Prescribed horn faces disagree on a shared boundary after reduction."""


# ---------------------------------------------------------------------------
# Letters and words.

@record
class AssL:
    """Structural associator generator on a composable edge triple."""

    a: RedSeq
    b: RedSeq
    c: RedSeq
    inv: bool = False
    eq: bool = False


@record
class WlL:
    """Left whiskering of an inner word by an edge."""

    edge: RedSeq
    inner: "Word"
    inv: bool = False
    eq: bool = False


@record
class WrL:
    """Right whiskering of an inner word by an edge."""

    inner: "Word"
    edge: RedSeq
    inv: bool = False
    eq: bool = False


@record
class ReflL:
    edge: RedSeq


@record
class SeedL:
    """An opaque named 2-cell generator with declared boundary edges."""

    name: str
    src: RedSeq
    tgt: RedSeq
    inv: bool = False
    eq: bool = False


Letter = Union[AssL, WlL, WrL, ReflL, SeedL]


def _chain(*seqs: RedSeq) -> RedSeq:
    out = seqs[0]
    for s in seqs[1:]:
        out = seq_compose(out, s)
    return out


def letter_edges(l: Letter) -> tuple[RedSeq, RedSeq]:
    if isinstance(l, AssL):
        e = _chain(l.a, l.b, l.c)
        return e, e
    # an inner word whose ends are one object (every associator word) has
    # one composite, shared by both edges
    if isinstance(l, WlL):
        s = seq_compose(l.edge, l.inner.src)
        t = s if l.inner.tgt is l.inner.src else seq_compose(l.edge, l.inner.tgt)
    elif isinstance(l, WrL):
        s = seq_compose(l.inner.src, l.edge)
        t = s if l.inner.tgt is l.inner.src else seq_compose(l.inner.tgt, l.edge)
    elif isinstance(l, ReflL):
        return l.edge, l.edge
    else:
        s, t = l.src, l.tgt
    return (t, s) if l.inv else (s, t)


def letter_inv(l: Letter) -> Letter:
    if isinstance(l, ReflL):
        return l
    if isinstance(l, AssL):
        return AssL(l.a, l.b, l.c, not l.inv, l.eq)
    if isinstance(l, WlL):
        return WlL(l.edge, l.inner, not l.inv, l.eq)
    if isinstance(l, WrL):
        return WrL(l.inner, l.edge, not l.inv, l.eq)
    return SeedL(l.name, l.src, l.tgt, not l.inv, l.eq)


@record
class Word:
    """A composable chain of letters; empty words carry their anchor edge.

    Its `reduced` slot is not a field.  It is set only on a word known to be
    in normal form: one that word_reduce built, or a whiskered boundary word
    that boundary3_words built (_whiskered).  word_reduce returns such a
    word as it is.  Every other word, whatever its letters, is reduced
    afresh."""

    __slots__ = ("reduced",)
    src: RedSeq
    tgt: RedSeq
    letters: tuple[Letter, ...] = ()


def _mark_reduced(w: Word) -> Word:
    object.__setattr__(w, "reduced", True)
    return w


def word_of(letters) -> Word:
    letters = tuple(letters)
    if not letters:
        raise NonComposable("an empty word needs an edge: use empty_word")
    prev_s, prev_t = letter_edges(letters[0])
    for l in letters[1:]:
        s, t = letter_edges(l)
        if s != prev_t:
            raise NonComposable("adjacent letters do not compose")
        prev_t = t
    return Word(prev_s, prev_t, letters)


def empty_word(edge: RedSeq) -> Word:
    return Word(edge, edge, ())


def concat_words(w1: Word, w2: Word) -> Word:
    if w1.tgt != w2.src:
        raise NonComposable("words do not compose end to end")
    return Word(w1.src, w2.tgt, w1.letters + w2.letters)


def inv_word(w: Word) -> Word:
    return Word(w.tgt, w.src, tuple(letter_inv(l) for l in reversed(w.letters)))


def _degenerate_ass(l: AssL) -> bool:
    return not (l.a.steps and l.b.steps and l.c.steps)


def _norm_letter(l: Letter) -> list[Letter]:
    """Normalize one letter to its spliced reduced content."""
    if isinstance(l, ReflL) or l.eq:
        return []
    if isinstance(l, AssL):
        return [] if _degenerate_ass(l) else [l]
    if isinstance(l, (WlL, WrL)):
        inner = word_reduce(l.inner)
        if not inner.letters:
            return []
        if not l.edge.steps:
            spliced = inv_word(inner) if l.inv else inner
            return list(spliced.letters)
        if inner is l.inner:  # already in normal form: the letter stays
            return [l]
        if isinstance(l, WlL):
            return [WlL(l.edge, inner, l.inv)]
        return [WrL(inner, l.edge, l.inv)]
    return [l]


def _inverse_pair(l1: Letter, l2: Letter) -> bool:
    """Whether l1 == letter_inv(l2), read off the fields of two letters that
    _norm_letter kept (so neither is a ReflL)."""
    if l1.__class__ is not l2.__class__:
        return False
    if l1.inv == l2.inv or l1.eq != l2.eq:
        return False
    if isinstance(l1, AssL):
        return l1.a == l2.a and l1.b == l2.b and l1.c == l2.c
    if isinstance(l1, SeedL):
        return l1.name == l2.name and l1.src == l2.src and l1.tgt == l2.tgt
    return l1.edge == l2.edge and l1.inner == l2.inner


def word_reduce(w: Word) -> Word:
    """Free-groupoid normal form: degeneracies spliced out, then adjacent
    inverse pairs cancelled with a stack pass.  The word it returns is
    marked reduced, and a word so marked comes back as it is; its argument
    is never marked."""
    if getattr(w, "reduced", False):
        return w
    flat: list[Letter] = []
    for l in w.letters:
        flat.extend(_norm_letter(l))
    stack: list[Letter] = []
    for l in flat:
        if stack and _inverse_pair(stack[-1], l):
            stack.pop()
        else:
            stack.append(l)
    return _mark_reduced(Word(w.src, w.tgt, tuple(stack)))


def words_equal(w1: Word, w2: Word) -> bool:
    r1, r2 = word_reduce(w1), word_reduce(w2)
    return r1.letters == r2.letters and r1.src == r2.src and r1.tgt == r2.tgt


# ---------------------------------------------------------------------------
# 3-cell expressions over words.

def _store_words(cell, src: Word, tgt: Word) -> None:
    """A generator (FS1Seed, FS2Seed, HeadNorm) keeps its reduced source and
    target boundary words, built once at construction, in its `words` slot."""
    object.__setattr__(cell, "words", (word_reduce(src), word_reduce(tgt)))


@record
class FS1Seed:
    """WLWR comparison: right-whiskering a left-whiskered cell rebrackets
    through the two flanking associators.  Keeps its `words` (_store_words)."""

    __slots__ = ("words",)
    alpha: RedSeq
    eta: Word
    delta: RedSeq

    def __post_init__(self):
        alpha, eta, delta = self.alpha, self.eta, self.delta
        if alpha.target != eta.src.source:
            raise NonComposable("FS1: eta's source edge must start where alpha ends")
        if eta.src.target != delta.source:
            raise NonComposable("FS1: delta must start where eta's edges end")
        _store_words(self, word_of([WrL(word_of([WlL(alpha, eta)]), delta)]),
                     word_of([AssL(alpha, eta.src, delta),
                              WlL(alpha, word_of([WrL(eta, delta)])),
                              AssL(alpha, eta.tgt, delta, inv=True)]))


@record
class FS2Seed:
    """Contraction of the whiskered inner-right-front pentagon face; keeps `words`."""

    __slots__ = ("words",)
    p: RedSeq
    q: RedSeq
    r: RedSeq
    s: RedSeq

    def __post_init__(self):
        whole = _chain(self.p, self.q, self.r, self.s)
        _store_words(self, word_of([WlL(self.p, word_of([AssL(self.q, self.r, self.s)]))]),
                     empty_word(whole))


@record
class HeadNorm:
    """Head-step normalization: the associator on a step-headed first
    sequence unfolds to the tail associator whiskered under that step; keeps `words`."""

    __slots__ = ("words",)
    head: RedSeq
    rest: RedSeq
    q: RedSeq
    r: RedSeq

    def __post_init__(self):
        if len(self.head.steps) != 1:
            raise NonComposable("HeadNorm peels exactly one step")
        whole = seq_compose(self.head, self.rest)
        _store_words(self, word_of([AssL(whole, self.q, self.r)]),
                     word_of([WlL(self.head, word_of([AssL(self.rest, self.q, self.r)]))]))


@record
class VComp:
    left: "Cell3Expr"
    right: "Cell3Expr"

    def __post_init__(self):
        mid_l = boundary3_words(self.left)[1]
        mid_r = boundary3_words(self.right)[0]
        if not words_equal(mid_l, mid_r):
            raise NonComposable("VComp: middle boundary words differ after reduction")


@record
class PasteR:
    inner: "Cell3Expr"
    word: Word


@record
class FillerE:
    """A horn record: prescribed faces plus the verified missing face."""

    faces: tuple["Cell3Expr", ...]
    src: Word
    tgt: Word
    missing: "Cell3Expr"


# The groupoid constructors of cells serve here too: Refl of a word, Symm
# (inverse), WhiskerL/WhiskerR (run a 3-cell inside a whiskering letter).
Cell3Expr = Union[FS1Seed, FS2Seed, HeadNorm, Refl, VComp, Symm,
                  WhiskerL, WhiskerR, PasteR, FillerE]


def _word_point(x) -> Word:
    if not isinstance(x, Word):
        raise NonComposable(f"an expression's Refl holds a word, not {type(x).__name__}")
    return x


def _whiskered(l: Union[WlL, WrL]) -> Word:
    """The one-letter word of a whiskering of a boundary word.  When that
    inner word is marked reduced and non-empty and the edge has steps, the
    letter is its own normal form, and the word is marked reduced."""
    w = word_of([l])
    if l.edge.steps and l.inner.letters and getattr(l.inner, "reduced", False):
        _mark_reduced(w)
    return w


def boundary3_words(e: Cell3Expr) -> tuple[Word, Word]:
    """Reduced source and target boundary words of a 3-cell expression: a
    generator's stored `words`, a composite's computed from its parts on
    every read."""
    if isinstance(e, (FS1Seed, FS2Seed, HeadNorm)):
        return e.words
    if isinstance(e, VComp):
        src = boundary3_words(e.left)[0]
        tgt = boundary3_words(e.right)[1]
    elif isinstance(e, PasteR):
        s, t = boundary3_words(e.inner)
        src = concat_words(s, e.word)
        tgt = concat_words(t, e.word)
    elif isinstance(e, FillerE):
        src, tgt = e.src, e.tgt
    else:
        ends = groupoid_boundary(e, boundary3_words, _word_point,
                                 lambda edge, w: _whiskered(WlL(edge, w)),
                                 lambda w, edge: _whiskered(WrL(w, edge)), None)
        if ends is None:
            raise NonComposable(f"not a 3-cell expression: {e!r}")
        src, tgt = ends
    return word_reduce(src), word_reduce(tgt)


# ---------------------------------------------------------------------------
# Derived comparison cells.

def fs_assoc_compare(p: RedSeq, q: RedSeq, r: RedSeq) -> Cell3Expr:
    """3-cell from the structural associator shell of (p, q, r) down to the
    trivial equality comparison, by recursion on the steps of p."""
    _chain(p, q, r)
    if not p.steps:
        return Refl(empty_word(seq_compose(q, r)))
    head = RedSeq(p.terms[:2], p.steps[:1])
    rest = RedSeq(p.terms[1:], p.steps[1:])
    tail = fs_assoc_compare(rest, q, r)
    return VComp(HeadNorm(head, rest, q, r), WhiskerL(head, tail))


def shell_word(p: RedSeq, q: RedSeq, r: RedSeq) -> Word:
    """The structural associator shell as a one-letter word."""
    return word_of([AssL(p, q, r)]) if p.steps and q.steps and r.steps \
        else empty_word(_chain(p, q, r))


def pentagon_words(p: RedSeq, q: RedSeq, r: RedSeq, s: RedSeq) -> tuple[Word, Word]:
    """The two structural pentagon boundary composites L and R (unreduced)."""
    left = word_of([AssL(seq_compose(p, q), r, s),
                    AssL(p, q, seq_compose(r, s))])
    right = word_of([WrL(word_of([AssL(p, q, r)]), s),
                     AssL(p, seq_compose(q, r), s),
                     WlL(p, word_of([AssL(q, r, s)]))])
    return left, right


def _kill_chain(parts: list[Cell3Expr]) -> Cell3Expr:
    """Paste cells that each erase their source word into one cell erasing
    the concatenation, right to left."""
    out = parts[-1]
    for c in reversed(parts[:-1]):
        remaining = boundary3_words(out)[0]
        out = VComp(PasteR(c, remaining) if remaining.letters else c, out)
    return out


def assemble_pentagon_filler(p, q, r, s, fs2_face, wr_face, mid_face,
                             back_faces) -> FillerE:
    """Glue the prescribed faces into the structural pentagon horn and expose
    the verified missing face L => R."""
    left, right = pentagon_words(p, q, r, s)
    faces_r = [wr_face, mid_face, fs2_face]
    factors_r = [word_of([l]) for l in right.letters]
    factors_l = [word_of([l]) for l in left.letters]
    for face, factor in zip(faces_r + list(back_faces), factors_r + factors_l):
        fsrc, ftgt = boundary3_words(face)
        if ftgt.letters or not words_equal(fsrc, factor):
            raise HornGlueFailure("face boundary does not match its pentagon factor")
    kill_l = _kill_chain(list(back_faces))
    kill_r = _kill_chain(faces_r)
    if not words_equal(boundary3_words(kill_l)[0], left):
        raise HornGlueFailure("back faces do not assemble the left composite")
    if not words_equal(boundary3_words(kill_r)[0], right):
        raise HornGlueFailure("front faces do not assemble the right composite")
    missing = VComp(kill_l, Symm(kill_r))
    return FillerE((fs2_face, wr_face, mid_face, *back_faces),
                   word_reduce(left), word_reduce(right), missing)


def fs_pentagon(p: RedSeq, q: RedSeq, r: RedSeq, s: RedSeq) -> FillerE:
    """The structural pentagon horn on a composable quadruple: FS2 face, two
    whisker-normalized front faces, and the back associator faces."""
    _chain(p, q, r, s)
    back = [fs_assoc_compare(seq_compose(p, q), r, s),
            fs_assoc_compare(p, q, seq_compose(r, s))]
    wr_face = WhiskerR(fs_assoc_compare(p, q, r), s)
    mid_face = fs_assoc_compare(p, seq_compose(q, r), s)
    fs2_face = FS2Seed(p, q, r, s)
    return assemble_pentagon_filler(p, q, r, s, fs2_face, wr_face, mid_face, back)


# ---------------------------------------------------------------------------
# Interpretation of explicit syntactic 2-cells as boundary words.  Assoc,
# UnitL, UnitR and StepCong have literally equal ends, which each constructor
# keeps, so they interpret to the empty word; the constructors, structurally.

def interp_cell2(h: Homotopy2) -> Word:
    if isinstance(h, cells.Refl):
        if not isinstance(h.point, RedSeq):
            raise NonComposable(f"cannot interpret a Refl of {type(h.point).__name__}")
        return empty_word(h.point)
    if isinstance(h, (cells.Assoc, cells.UnitL, cells.UnitR, cells.StepCong)):
        return empty_word(boundary2(h)[0])
    if isinstance(h, cells.Symm):
        return inv_word(interp_cell2(h.cell))
    if isinstance(h, cells.Trans):
        return concat_words(interp_cell2(h.left), interp_cell2(h.right))
    if isinstance(h, cells.WhiskerL):
        inner = interp_cell2(h.cell)
        return word_of([WlL(h.prefix, inner)]) if h.prefix.steps else inner
    if isinstance(h, cells.WhiskerR):
        inner = interp_cell2(h.cell)
        return word_of([WrL(inner, h.suffix)]) if h.suffix.steps else inner
    if isinstance(h, cells.HComp):
        ls, lt = boundary2(h.left)
        rs, rt = boundary2(h.right)
        first = interp_cell2(h.left)
        second = interp_cell2(h.right)
        w1 = word_of([WrL(first, rs)]) if first.letters \
            else empty_word(seq_compose(ls, rs))
        w2 = word_of([WlL(lt, second)]) if second.letters \
            else empty_word(seq_compose(lt, rt))
        return concat_words(w1, w2)
    raise NonComposable(f"cannot interpret {type(h).__name__} as a word")


def fs_bridges(p: RedSeq, q: RedSeq, r: RedSeq, s: RedSeq,
               syntactic_pentagon: Homotopy3):
    """Source, target, and shell bridges between the interpreted syntactic
    pentagon boundary and the structural source / mixed target shells."""
    if syntactic_pentagon != cells.Pentagon(p, q, r, s):
        raise NonComposable("the syntactic pentagon does not match the quadruple")
    left, right = pentagon_words(p, q, r, s)
    source_bridge = _kill_chain([fs_assoc_compare(seq_compose(p, q), r, s),
                                 fs_assoc_compare(p, q, seq_compose(r, s))])
    target_bridge = _kill_chain([fs_assoc_compare(p, seq_compose(q, r), s),
                                 FS2Seed(p, q, r, s)])
    syn_src, syn_tgt = boundary3(syntactic_pentagon)
    embedded_src = word_reduce(interp_cell2(syn_src))
    embedded_tgt = word_reduce(interp_cell2(syn_tgt))
    if embedded_src.letters or embedded_tgt.letters:
        raise NonComposable("interpreted syntactic pentagon boundary is not trivial")
    embedded = Refl(embedded_src)
    shell_bridge = VComp(source_bridge, VComp(embedded, Symm(target_bridge)))
    return source_bridge, target_bridge, shell_bridge


def mixed_target_word(p: RedSeq, q: RedSeq, r: RedSeq, s: RedSeq) -> Word:
    """The mixed target shell: the whisker-by-s factor is equality-generated."""
    _, right = pentagon_words(p, q, r, s)
    wr, mid, wl = right.letters
    tagged = WrL(wr.inner, wr.edge, wr.inv, eq=True)
    return Word(right.src, right.tgt, (tagged, mid, wl))
