"""Equality-generated higher derivations, trees of the shared Refl/Symm/Trans
whose ends and Trans joints are checked where they are read, and the recursive
tower above the explicit 3-cell core: functorial transport, the realization map
into the explicit tower (the packaging maps are its dimension 4-6 part), and
the 0-truncation bridge back to plain beta/eta convertibility.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from . import cells
from .cells import (EndpointMismatch, IllFormed, RedSeq, Refl, Symm, Trans,
                    boundary2, boundary3, groupoid_boundary, seq_compose,
                    seq_from_steps, seq_invert, validate_seq)
from .record import record
from .terms import Term, is_term, normalize


class ParallelismViolation(IllFormed):
    """The two endpoint cells of a higher triple are not parallel."""


# ---------------------------------------------------------------------------
# Higher derivations: the shared Refl/Symm/Trans closure of equality on a
# carrier.  A derivation between x and y exists only when x equals y, but
# distinct derivation trees between the same endpoints stay distinct.

# Old names, read by the frozen perfbench/workloads.py (ROADMAP item 1).
HDRefl, HDSymm = Refl, Symm
HigherDeriv = Union[Refl, Symm, Trans]


def _leaf(x):
    return x


def endpoints(h: HigherDeriv) -> tuple[object, object]:
    """Source and target of a derivation; EndpointMismatch at a Trans whose
    middle ends differ, IllFormed at any node but Refl/Symm/Trans."""
    ends = groupoid_boundary(h, endpoints, _leaf, None, None, None)
    if ends is None:
        raise IllFormed(f"not a higher derivation: {type(h).__name__}")
    return ends


def hd_map(f: Callable[[object], object], h: HigherDeriv) -> HigherDeriv:
    """Transport a derivation along an endpoint map, constructor by constructor."""
    if isinstance(h, Refl):
        return Refl(f(h.point))
    if isinstance(h, Symm):
        return Symm(hd_map(f, h.cell))
    if isinstance(h, Trans):
        return Trans(hd_map(f, h.left), hd_map(f, h.right))
    raise IllFormed(f"not a higher derivation: {type(h).__name__}")


# ---------------------------------------------------------------------------
# Cells of the recursive completion and of the explicit tower.
#
# Dimensions 0-3 carry the explicit payloads (Term, RedSeq, Homotopy2,
# Homotopy3).  From dimension 4 up, an RTowerCell is a triple (x, y, h) of
# parallel lower cells plus a derivation between them, while a SigmaCell is
# the derivation alone, indexed by its endpoints.

@record
class RTowerCell:
    dim: int
    payload: object


@record
class SigmaCell:
    dim: int
    payload: object


def explicit_cell(dim: int, payload) -> RTowerCell:
    """A checked cell of dimension 0-3: a term all the way down, a sequence
    that validate_seq accepts, or a 2- or 3-cell whose boundary computes,
    which checks every joint and not only the leftmost leaf that gives its
    dimension."""
    ok = is_term(payload) if dim == 0 else cells.cell_dim(payload) == dim
    if not ok:
        raise IllFormed(f"dimension {dim} does not accept {type(payload).__name__}")
    if dim == 1 and not validate_seq(payload):
        raise IllFormed("a dimension-1 sequence must replay its steps")
    if dim >= 2:
        (boundary2 if dim == 2 else boundary3)(payload)
    return RTowerCell(dim, payload)


def cell_boundary(c: RTowerCell) -> tuple[RTowerCell, RTowerCell]:
    """The source and target cells of c."""
    if c.dim == 0:
        raise IllFormed("0-cells have no boundary")
    if c.dim == 1:
        return RTowerCell(0, c.payload.source), RTowerCell(0, c.payload.target)
    if c.dim <= 3:
        s, t = boundary2(c.payload) if c.dim == 2 else boundary3(c.payload)
        return RTowerCell(c.dim - 1, s), RTowerCell(c.dim - 1, t)
    return c.payload[0], c.payload[1]


def parallel(x: RTowerCell, y: RTowerCell) -> bool:
    """Equal boundaries, computed structurally on every call (never cached).

    A cell is parallel to itself once its boundary computes, so for x is y
    the boundary is computed once, to validate x, and not compared."""
    if x.dim != y.dim:
        return False
    if x.dim == 0:
        return True
    if x is y:
        cell_boundary(x)
        return True
    return cell_boundary(x) == cell_boundary(y)


def triple_cell(x: RTowerCell, y: RTowerCell, h: HigherDeriv) -> RTowerCell:
    """Validated (n+1)-cell of the recursive completion, n+1 >= 4."""
    if x.dim != y.dim or x.dim < 3:
        raise IllFormed("triple endpoints must be cells of equal dimension >= 3")
    if not parallel(x, y):
        raise ParallelismViolation("triple endpoints are not parallel")
    if endpoints(h) != (x, y):
        raise EndpointMismatch("derivation endpoints do not match the triple")
    return RTowerCell(x.dim + 1, (x, y, h))


def sigma_boundary(c: SigmaCell) -> tuple[SigmaCell, SigmaCell]:
    """The source and target cells of c."""
    if c.dim <= 3:
        s, t = cell_boundary(RTowerCell(c.dim, c.payload))
        return SigmaCell(s.dim, s.payload), SigmaCell(t.dim, t.payload)
    return endpoints(c.payload)


def realize(n: int, cell: RTowerCell) -> SigmaCell:
    """The realization map: identity through dimension 3, then the uniform
    recursion that transports the derivation datum along realize(n - 1).

    At dimensions 4..6 this is the packaging map pack(n)."""
    if cell.dim != n:
        raise IllFormed(f"cell has dimension {cell.dim}, not {n}")
    if n <= 3:
        return SigmaCell(n, cell.payload)
    if not isinstance(cell.payload, tuple):
        raise IllFormed(f"expected a dimension-{n} triple")
    x, y, h = cell.payload
    if not parallel(x, y):
        raise ParallelismViolation("triple endpoints are not parallel")
    return SigmaCell(n, hd_map(lambda c: realize(n - 1, c), h))


def pack(d: int, cell: RTowerCell) -> SigmaCell:
    """Package a dimension-4..6 triple as an explicit indexed derivation:
    the realization map at those dimensions."""
    if d not in (4, 5, 6):
        raise IllFormed(f"pack is defined for dimensions 4..6, not {d}")
    return realize(d, cell)


def realize_boundary_check(n: int, cell: RTowerCell) -> bool:
    """Does realization commute strictly with source and target?

    A reflexive cell's two ends are one object, realized once."""
    if n < 1:
        raise IllFormed("boundary checks need dimension >= 1")
    image_src, image_tgt = sigma_boundary(realize(n, cell))
    src, tgt = cell_boundary(cell)
    src_image = realize(n - 1, src)
    return image_src == src_image and image_tgt == (
        src_image if tgt is src else realize(n - 1, tgt))


# ---------------------------------------------------------------------------
# 0-truncation: recover plain convertibility from the witnessed tower.

def pi0_equiv(m: Term, n: Term, fuel: int) -> Optional[RedSeq]:
    """A replayable zigzag m -> nf -> n when both normalize to the same normal
    form; None when the normal forms differ; FuelExhausted propagates.

    Soundness only: a None answer is a verdict about the oracle's normal
    forms, not a proof of inconvertibility beyond confluence.
    """
    nf_m, trace_m = normalize(m, fuel)
    nf_n, trace_n = normalize(n, fuel)
    if nf_m != nf_n:
        return None
    down = seq_from_steps(m, trace_m)
    up = seq_invert(seq_from_steps(n, trace_n))
    return seq_compose(down, up)
