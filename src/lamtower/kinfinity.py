"""Depth-truncated inverse-limit threads and the exact reify/reflect/
application laws.

A thread holds one coordinate per stage up to the truncation depth, coherent
under the stage projections.  Application is the top shadow of the monotone
shadow chain; reify tabulates stage restrictions of an endomap.  Threads
compare coordinatewise by Tower.eq/Tower.leq, at stage 3 only on the s
probes e_1(D_1), s the size of stage 1.
"""

from __future__ import annotations

from typing import Optional

from .domains import Tower, check_law_budget
from .record import record


class DepthTooSmall(ValueError):
    """The thread depth does not cover the requested stage."""


class IncoherentThread(ValueError):
    """A thread's coordinates disagree with the stage projections."""


MAX_DEPTH = 3


class Thread:
    """A coherent coordinate vector across stages 0..depth."""

    __slots__ = ("tower", "coords", "depth")

    def __init__(self, tower: Tower, coords: tuple, check: bool = True):
        if len(coords) - 1 > MAX_DEPTH:
            raise DepthTooSmall(f"depths above {MAX_DEPTH} are not representable")
        self.tower = tower
        self.coords = tuple(coords)
        self.depth = len(self.coords) - 1
        if check and not coherent(self):
            raise IncoherentThread(
                "incoherent thread: projections disagree with coordinates")

    def __eq__(self, other):
        return isinstance(other, Thread) and thread_eq(self, other)

    def __repr__(self):
        return f"Thread(depth={self.depth}, base={self.tower.base.labels[self.coords[0]]})"


def coherent(t: Thread) -> bool:
    """proj_n(coords[n+1]) == coords[n] for every covered n."""
    return all(t.tower.proj(n, t.coords[n + 1]) == t.coords[n] for n in range(t.depth))


def thread_eq(x: Thread, y: Thread) -> bool:
    """Equal depths and coordinatewise Tower.eq, stage 0 first."""
    if x.depth != y.depth:
        return False
    return all(map(x.tower.eq, range(x.depth + 1), x.coords, y.coords))


def thread_le(x: Thread, y: Thread) -> bool:
    """Coordinatewise Tower.leq, stage 0 first."""
    if x.depth != y.depth:
        raise DepthTooSmall("cannot compare threads of different depths")
    return all(map(x.tower.leq, range(x.depth + 1), x.coords, y.coords))


def stage_embed(tower: Tower, n: int, u, depth: int) -> Thread:
    """The canonical embedding of a stage-n element: project below, embed above.

    A stage-0 element, a stage-1 element or one of the tower's own probe
    tables gets one thread per depth, shared through the tower's `_threads`
    table, so the values its top coordinate caches are computed once.  Any
    other input, a table equal to a probe included, gets a fresh thread.
    """
    if n > depth:
        raise DepthTooSmall(f"cannot embed stage {n} at depth {depth}")
    # the probe case first: app's result is almost always a probe table
    if n == 2:
        pos = tower.probe_position(u)
    elif n == 1 and type(u) is tuple:
        pos = tower.stage1_index.get(u)
    elif n == 0 and type(u) is int and 0 <= u < len(tower.base):
        pos = u
    else:
        pos = None
    if pos is None:
        return _embed(tower, n, u, depth)
    key = (n, pos, depth)
    thread = tower._threads.get(key)
    if thread is None:
        thread = tower._threads[key] = _embed(tower, n, u, depth)
    return thread


def _embed(tower: Tower, n: int, u, depth: int) -> Thread:
    coords: list = [None] * (depth + 1)
    coords[n] = u
    down = u
    for m in range(n - 1, -1, -1):
        down = tower.proj(m, down)
        coords[m] = down
    up = u
    for m in range(n + 1, depth + 1):
        up = tower.emb(m - 1, up)
        coords[m] = up
    return Thread(tower, tuple(coords), check=False)


def bottom_thread(tower: Tower, depth: int) -> Thread:
    return stage_embed(tower, 0, tower.base.bottom, depth)


def app_shadow(n: int, x: Thread, y: Thread) -> Thread:
    """The stage-n application shadow: embed pi_{n+1}(x) applied to pi_n(y)."""
    if n + 1 > x.depth or n > y.depth:
        raise DepthTooSmall(f"shadow {n} needs deeper threads")
    value = x.tower.apply(n + 1, x.coords[n + 1], y.coords[n])
    return stage_embed(x.tower, n, value, x.depth)


def app(x: Thread, y: Thread) -> Thread:
    """Application: the top element of the monotone shadow chain."""
    if x.depth != y.depth:
        raise DepthTooSmall("application needs equal depths")
    d = x.depth
    if d < 1:
        raise DepthTooSmall("application needs depth >= 1")
    # app_shadow(d - 1, x, y), inlined: the law suite calls it per entry
    tower = x.tower
    return stage_embed(tower, d - 1, tower.apply(d, x.coords[d], y.coords[d - 1]), d)


# ---------------------------------------------------------------------------
# Endomaps: a closed datatype, so the section law is checkable by enumeration.

@record
class Identity:
    def apply(self, y: Thread) -> Thread:
        return y


@record
class Constant:
    value: Thread

    def apply(self, y: Thread) -> Thread:
        return self.value


@record
class FromThread:
    point: Thread

    def apply(self, y: Thread) -> Thread:
        return app(self.point, y)


EndoMap = Identity | Constant | FromThread


def thread_row(tower: Tower, n: int, depth: int) -> tuple:
    """The shared thread stage_embed gives each element of domain(n), n 0 or
    1, at this depth, in domain order.

    Built whole from stage_embed on first use and kept in the tower's
    `_thread_rows`, so its entries are the very threads of `_threads`.
    """
    row = tower._thread_rows.get((n, depth))
    if row is None:
        row = tower._thread_rows[n, depth] = tuple(
            stage_embed(tower, n, u, depth) for u in tower.domain(n))
    return row


def restrict(g: EndoMap, n: int, depth: int, tower: Tower):
    """The stage-n restriction of an endomap: project, apply, embed.

    Entry u is g.apply(stage_embed(tower, n, u, depth)).coords[n].  Below
    stage 2 the table walks thread_row(tower, n, depth), which lists those
    embeddings in domain(n) order, so it is tower.tabulate(n, ...) read by
    position.  At stage 2 it is the lazy tabulate(2, ...) of
    _restrict_stage2: probe i is e_1 of stage-1 element i, so g is applied
    to that element's thread of the stage-1 row, and any other table is
    embedded afresh.
    """
    if n > depth - 1:
        raise DepthTooSmall(f"restriction to stage {n} needs depth > {n}")
    apply = g.apply
    if n <= 1:
        return tuple(apply(x).coords[n] for x in thread_row(tower, n, depth))
    row = thread_row(tower, 1, depth)
    return _restrict_stage2(g, depth, tower, lambda i: apply(row[i]))


def _restrict_stage2(g: EndoMap, depth: int, tower: Tower, at_probe):
    """The lazy stage-2 restriction of g, where at_probe(i) is g applied to
    the thread of stage-1 element i.

    Probe i is e_1 of that element, and p_1 e_1 = id, so the probe's thread
    and the element's have equal coordinates, coordinate 2 being the probe
    itself, and coordinate 2 of either image is the entry at probe i.
    """
    apply, pos = g.apply, tower.probe_position
    return tower.tabulate(2, lambda w: (
        apply(stage_embed(tower, 2, w, depth)) if (i := pos(w)) is None
        else at_probe(i)).coords[2])


def reify(g: EndoMap, depth: int, tower: Tower) -> Thread:
    """The thread of stage restrictions: coords[0] = proj(0, r_0),
    coords[n+1] = r_n.

    g is applied once to each thread of the stage-1 row: coordinate 1 of
    those images is r_1 and coordinate 2 of image i is r_2 at probe i, so
    the stage-1 restriction and the probe entries of the stage-2 one share
    their applications.
    """
    if depth < 1:
        raise DepthTooSmall("reify needs depth >= 1")
    r0 = restrict(g, 0, depth, tower)
    coords: list = [tower.proj(0, r0), r0]
    if depth > 1:
        images = tuple(map(g.apply, thread_row(tower, 1, depth)))
        coords.append(tuple(y.coords[1] for y in images))
    if depth > 2:
        coords.append(_restrict_stage2(g, depth, tower, images.__getitem__))
    return Thread(tower, tuple(coords))


# ---------------------------------------------------------------------------
# Law reports.

def _check(name: str, failures: list, checked: int) -> dict:
    return {"name": name, "pass": not failures, "checked": checked,
            "detail": failures[:3]}


def verify_laws(tower: Tower, depth: int = 3,
                sample_threads: Optional[list] = None) -> dict:
    """Run the exact application/retract/section/density checks at this depth.

    Raises CapExceeded, before any work, when the stage-1 size puts the
    suite over the budget of check_law_budget.
    """
    if depth < 2:
        raise DepthTooSmall("the law suite needs depth >= 2")
    check_law_budget(len(tower.stage1))
    tower.stage2_probes()  # so stage-3 application at a probe uses the probe vectors
    checks = []
    embeds1 = [stage_embed(tower, 1, u, depth) for u in tower.stage1]
    bottom = bottom_thread(tower, depth)

    # One reification of FromThread(x) per x serves two laws.  By restrict's
    # definition, entry y of its coordinate n+1 is app(x, e_n(y)).coords[n],
    # the left side of stagewise application; the whole thread is the left
    # side of the retract law.  Stagewise failures are kept per stage, so
    # they list in stage, x, y order.  A reification that comes out
    # incoherent fails both laws that read it; its stagewise rows are never
    # compared, so it heads the stagewise failures.
    stages = range(min(2, depth - 1))
    unread = []
    stagewise: list = [[] for _ in stages]
    retract = []
    for x in embeds1 + [bottom]:
        try:
            rx = reify(FromThread(x), depth, tower)
        except IncoherentThread:
            if x is not bottom:
                unread.append({"law": "stagewise-app", "x": repr(x),
                               "reason": "incoherent reification"})
            retract.append({"law": "retract", "x": repr(x),
                            "reason": "incoherent reification"})
            continue
        if x is not bottom:
            for n in stages:
                for y, lhs in zip(tower.domain(n), rx.coords[n + 1]):
                    if lhs != tower.apply(n + 1, x.coords[n + 1], y):
                        stagewise[n].append(
                            {"law": "stagewise-app", "n": n, "y": str(y)})
        if not thread_eq(rx, x):
            retract.append({"law": "retract", "x": repr(x)})
    count = len(embeds1) * sum(len(tower.domain(n)) for n in stages)
    checks.append(_check("stagewise_application",
                         unread + [f for fs in stagewise for f in fs], count))
    checks.append(_check("retract_reify_app", retract, len(embeds1) + 1))

    gs: list[EndoMap] = [Identity(), Constant(bottom)]
    gs += [FromThread(x) for x in (sample_threads or embeds1[:3])]
    failures = []
    for g in gs:
        try:
            rg = reify(g, depth, tower)
        except IncoherentThread:
            failures.append({"law": "section", "g": type(g).__name__,
                             "reason": "incoherent reification"})
            continue
        for n in stages:
            for y in tower.domain(n):
                emb_y = stage_embed(tower, n, y, depth)
                lhs = app(rg, emb_y).coords[n]
                rhs = g.apply(emb_y).coords[n]
                if lhs != rhs:
                    failures.append({"law": "section", "g": type(g).__name__, "n": n})
    count = len(gs) * sum(len(tower.domain(n)) for n in stages)
    checks.append(_check("section_on_embedded_stages", failures, count))

    failures = []
    xs = embeds1 + list(sample_threads or ())
    for x in xs:
        if not coherent(x):
            failures.append({"law": "density", "reason": "incoherent input"})
            continue
        approx = [stage_embed(tower, n, x.coords[n], depth) for n in range(depth + 1)]
        for n in range(depth):
            if not thread_le(approx[n], approx[n + 1]):
                failures.append({"law": "density-chain", "n": n})
        if not thread_le(approx[depth - 1], x):
            failures.append({"law": "density-below", "x": repr(x)})
        if not thread_eq(approx[depth], x):
            failures.append({"law": "density-truncation", "x": repr(x)})
    checks.append(_check("density_chain", failures, len(xs)))

    return {"depth": depth, "checks": checks,
            "ok": all(c["pass"] for c in checks)}
