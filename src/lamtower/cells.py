"""The explicit low-dimensional conversion tower.

1-cells are reduction sequences with cached intermediate terms, 2-cells and
3-cells are inductive trees of one shared family of groupoid constructors
over each dimension's own generators.  Boundaries are computed structurally
per constructor, once each: a 3-cell's boundary 2-cells carry their own
source and target sequences (boundary3_ends), which is globularity.  Since
step lists concatenate strictly, associator and unitor cells have
definitionally equal endpoints but are kept as distinct proof-relevant cells;
an associator's two ends are one composite, built once.
"""

from __future__ import annotations

from typing import Union

from .record import record
from .terms import (Dir, InvalidStep, RedStep, Term, App, Lam, apply_step,
                    invert_step, is_step, is_term)


class IllFormed(ValueError):
    """A cell constructor's side conditions fail."""


class EndpointMismatch(IllFormed):
    """Cells or sequences do not share the endpoints composition requires."""


@record
class RedSeq:
    """A zigzag of oriented steps with every intermediate term cached."""

    terms: tuple[Term, ...]
    steps: tuple[RedStep, ...]

    def __post_init__(self):
        if len(self.terms) != len(self.steps) + 1:
            raise IllFormed("cached terms must be one longer than the step list")

    @property
    def source(self) -> Term:
        return self.terms[0]

    @property
    def target(self) -> Term:
        return self.terms[-1]

    def __len__(self) -> int:
        return len(self.steps)


def empty_seq(t: Term) -> RedSeq:
    return RedSeq((t,), ())


def seq_from_steps(source: Term, steps) -> RedSeq:
    """Replay steps from source, caching intermediates; raises InvalidStep."""
    terms = [source]
    for s in steps:
        terms.append(apply_step(terms[-1], s))
    return RedSeq(tuple(terms), tuple(steps))


def validate_seq(p: RedSeq) -> bool:
    """Every cached term is a term and every step a RedStep, and replaying
    the steps reproduces exactly the cached terms.  The shapes are checked
    first: replay assumes them, and then fails only by InvalidStep."""
    if not (isinstance(p.terms, tuple) and isinstance(p.steps, tuple)
            and all(map(is_term, p.terms)) and all(map(is_step, p.steps))):
        return False
    try:
        return seq_from_steps(p.source, p.steps) == p
    except InvalidStep:
        return False


def seq_compose(p: RedSeq, q: RedSeq) -> RedSeq:
    """p then q; the joint is usually one shared term, so identity is tried
    before the structural compare, which alone decides a distinct copy."""
    if p.target is not q.source and p.target != q.source:
        raise EndpointMismatch("cannot compose: target of first != source of second")
    return RedSeq(p.terms + q.terms[1:], p.steps + q.steps)


def seq_invert(p: RedSeq) -> RedSeq:
    steps = tuple(invert_step(s, t)
                  for s, t in zip(reversed(p.steps), reversed(p.terms[:-1])))
    return RedSeq(tuple(reversed(p.terms)), steps)


# ---------------------------------------------------------------------------
# One-hole term contexts, for congruence 2-cells.

@record
class Hole:
    pass


@record
class CAppFun:
    ctx: "Context"
    arg: Term


@record
class CAppArg:
    fun: Term
    ctx: "Context"


@record
class CLam:
    ctx: "Context"


Context = Union[Hole, CAppFun, CAppArg, CLam]


def plug(ctx: Context, t: Term) -> Term:
    if isinstance(ctx, Hole):
        return t
    if isinstance(ctx, CAppFun):
        return App(plug(ctx.ctx, t), ctx.arg)
    if isinstance(ctx, CAppArg):
        return App(ctx.fun, plug(ctx.ctx, t))
    return Lam(plug(ctx.ctx, t))


def hole_path(ctx: Context) -> tuple[Dir, ...]:
    if isinstance(ctx, Hole):
        return ()
    if isinstance(ctx, CAppFun):
        return (Dir.FUN,) + hole_path(ctx.ctx)
    if isinstance(ctx, CAppArg):
        return (Dir.ARG,) + hole_path(ctx.ctx)
    return (Dir.BODY,) + hole_path(ctx.ctx)


def map_seq(ctx: Context, p: RedSeq) -> RedSeq:
    """Run a reduction sequence inside a one-hole context."""
    prefix = hole_path(ctx)
    steps = tuple(RedStep(s.kind, prefix + s.path, s.forward, s.redex)
                  for s in p.steps)
    return RedSeq(tuple(plug(ctx, t) for t in p.terms), steps)


# ---------------------------------------------------------------------------
# The groupoid constructors, shared by 2-cells, 3-cells, front-seed 3-cell
# expressions and higher derivations; a cell's dimension is that of its leaves.

@record
class Refl:
    point: object  # a RedSeq, a 2-cell, a word, or a tower cell


@record
class Symm:
    cell: object

    # The old field name, read-only, read by the frozen
    # perfbench/workloads.py; goes away with ROADMAP item 1.
    inner = property(lambda self: self.cell)


@record
class Trans:
    left: object
    right: object


@record
class WhiskerL:
    prefix: RedSeq
    cell: object


@record
class WhiskerR:
    cell: object
    suffix: RedSeq


@record
class HComp:
    left: object
    right: object


GROUPOID_CLASSES = (Refl, Symm, Trans, WhiskerL, WhiskerR, HComp)


def groupoid_boundary(cell, boundary, check_point, whisker_l, whisker_r, hcomp):
    """Source and target of a groupoid constructor, or None for any other cell.

    `boundary` is the boundary map of the cell's own dimension, through which
    the constructors recurse.  `check_point` rejects a Refl payload of
    another dimension and returns what the Refl has as both ends, in the
    form `boundary` returns them.  The compositions act on those ends, one
    dimension below; a composition map is None where that constructor is
    not defined (higher derivations have none)."""
    if isinstance(cell, Refl):
        point = check_point(cell.point)
        return point, point
    if isinstance(cell, Symm):
        s, t = boundary(cell.cell)
        return t, s
    if isinstance(cell, Trans):
        s1, t1 = boundary(cell.left)
        s2, t2 = boundary(cell.right)
        if t1 != s2:
            raise EndpointMismatch("Trans: middle boundaries differ")
        return s1, t2
    if isinstance(cell, WhiskerL) and whisker_l is not None:
        s, t = boundary(cell.cell)
        return whisker_l(cell.prefix, s), whisker_l(cell.prefix, t)
    if isinstance(cell, WhiskerR) and whisker_r is not None:
        s, t = boundary(cell.cell)
        return whisker_r(s, cell.suffix), whisker_r(t, cell.suffix)
    if isinstance(cell, HComp) and hcomp is not None:
        s1, t1 = boundary(cell.left)
        s2, t2 = boundary(cell.right)
        return hcomp(s1, s2), hcomp(t1, t2)
    return None


# ---------------------------------------------------------------------------
# 2-cells.

@record
class Assoc:
    p: RedSeq
    q: RedSeq
    r: RedSeq


@record
class UnitL:
    seq: RedSeq


@record
class UnitR:
    seq: RedSeq


@record
class StepCong:
    ctx: Context
    cell: "Homotopy2"


H2_CLASSES = GROUPOID_CLASSES + (Assoc, UnitL, UnitR, StepCong)
Homotopy2 = Union[H2_CLASSES]


def _seq_point(x) -> RedSeq:
    if not isinstance(x, RedSeq):
        raise IllFormed(f"a 2-cell's Refl holds a RedSeq, not {type(x).__name__}")
    return x


def boundary2(cell: Homotopy2) -> tuple[RedSeq, RedSeq]:
    """Source and target reduction sequences of a 2-cell."""
    if isinstance(cell, Assoc):
        # checks both joints, p|q and q|r; p.(q.r) is the same sequence
        both = seq_compose(seq_compose(cell.p, cell.q), cell.r)
        return both, both
    if isinstance(cell, UnitL):
        return seq_compose(empty_seq(cell.seq.source), cell.seq), cell.seq
    if isinstance(cell, UnitR):
        return seq_compose(cell.seq, empty_seq(cell.seq.target)), cell.seq
    if isinstance(cell, StepCong):
        s, t = boundary2(cell.cell)
        return map_seq(cell.ctx, s), map_seq(cell.ctx, t)
    ends = groupoid_boundary(cell, boundary2, _seq_point,
                             seq_compose, seq_compose, seq_compose)
    if ends is None:
        raise IllFormed(f"not a 2-cell: {cell!r}")
    return ends


# ---------------------------------------------------------------------------
# 3-cells.

@record
class Interchange:
    """Both parenthesizations of horizontally composing two vertical pairs."""

    a: Homotopy2
    b: Homotopy2
    c: Homotopy2
    d: Homotopy2


@record
class Pentagon:
    p: RedSeq
    q: RedSeq
    r: RedSeq
    s: RedSeq


@record
class Triangle:
    p: RedSeq
    q: RedSeq


H3_CLASSES = GROUPOID_CLASSES + (Interchange, Pentagon, Triangle)
Homotopy3 = Union[H3_CLASSES]


def cell_dim(cell) -> int | None:
    """1, 2 or 3 for a cell of the explicit tower, read off its leftmost leaf
    (boundary2 and boundary3 check the others); None for anything else."""
    while isinstance(cell, (Symm, Trans, WhiskerL, WhiskerR, HComp)):
        cell = cell.left if isinstance(cell, (Trans, HComp)) else cell.cell
    if isinstance(cell, Refl):
        below = cell_dim(cell.point)
        return below + 1 if below in (1, 2) else None
    for dim, classes in ((1, RedSeq), (2, H2_CLASSES), (3, H3_CLASSES)):
        if isinstance(cell, classes):
            return dim
    return None


def pentagon_sides(p: RedSeq, q: RedSeq, r: RedSeq, s: RedSeq) -> tuple[Homotopy2, Homotopy2]:
    """The two composite 2-cells around the pentagon, both P0 => P4."""
    left = Trans(Assoc(seq_compose(p, q), r, s), Assoc(p, q, seq_compose(r, s)))
    right = Trans(Trans(WhiskerR(Assoc(p, q, r), s),
                        Assoc(p, seq_compose(q, r), s)),
                  WhiskerL(p, Assoc(q, r, s)))
    return left, right


def _on_ends(make):
    """A 2-cell constructor lifted to (2-cell, (source, target)) pairs, a RedSeq
    standing for itself at both ends; seq_compose checks the joints it builds."""
    def build(x, y):
        (a, (sa, ta)), (b, (sb, tb)) = ((z, (z, z)) if isinstance(z, RedSeq) else z
                                        for z in (x, y))
        return make(a, b), (seq_compose(sa, sb), seq_compose(ta, tb))
    return build


_ON_ENDS = tuple(map(_on_ends, (WhiskerL, WhiskerR, HComp)))


def _with_ends(cell: Homotopy2):
    return cell, boundary2(cell)


def boundary3_ends(cell: Homotopy3):
    """The source and target 2-cells of a 3-cell, each paired with its own
    (source, target) sequences; each boundary is computed once, and the
    carried ends of a composite are composed, not recomputed."""
    if isinstance(cell, Interchange):
        left = HComp(Trans(cell.a, cell.b), Trans(cell.c, cell.d))
        right = Trans(HComp(cell.a, cell.c), HComp(cell.b, cell.d))
    elif isinstance(cell, Pentagon):
        left, right = pentagon_sides(cell.p, cell.q, cell.r, cell.s)
    elif isinstance(cell, Triangle):
        mid = empty_seq(cell.p.target)
        left = Trans(Assoc(cell.p, mid, cell.q), WhiskerL(cell.p, UnitL(cell.q)))
        right = WhiskerR(UnitR(cell.p), cell.q)
    else:
        ends = groupoid_boundary(cell, boundary3_ends, _with_ends, *_ON_ENDS)
        if ends is None:
            raise IllFormed(f"not a 3-cell: {cell!r}")
        return ends
    return _with_ends(left), _with_ends(right)


def boundary3(cell: Homotopy3) -> tuple[Homotopy2, Homotopy2]:
    """Source and target 2-cells of a 3-cell: boundary3_ends without the ends."""
    (s, _), (t, _) = boundary3_ends(cell)
    return s, t


def globular_check(cell: Homotopy3) -> bool:
    """s(s(c)) = s(t(c)) and t(s(c)) = t(t(c)), on the carried ends."""
    (_, (ss, st)), (_, (ts, tt)) = boundary3_ends(cell)
    return ss == ts and st == tt
