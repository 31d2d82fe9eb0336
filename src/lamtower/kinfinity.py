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

from .domains import CapExceeded, NotInStage, Probe, Tower
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
    """proj_n(coords[n+1]) == coords[n] for every covered n; a coordinate
    whose projection has no stage-1 position (NotInStage) is not coherent."""
    try:
        return all(t.tower.proj(n, t.coords[n + 1]) == t.coords[n] for n in range(t.depth))
    except NotInStage:
        return False


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


def cut(x: Thread, d: int) -> Thread:
    """x's coordinates 0..d, a thread of depth d."""
    if not 0 <= d <= x.depth:
        raise DepthTooSmall(f"cannot cut a thread of depth {x.depth} to depth {d}")
    return Thread(x.tower, x.coords[:d + 1], check=False)


def stage_embed(tower: Tower, n: int, u, depth: int) -> Thread:
    """The canonical embedding of a stage-n element: project below, embed above.

    A stage-0 or stage-1 element, a position, gets its thread of
    thread_row(tower, n, depth), the entry at that position, built on first
    use and shared, so the values its top coordinate caches are computed
    once.  One of the tower's own probe tables e_1(g) gets g's thread of the
    stage-1 row: p_1 e_1 = id, so the two threads are equal coordinatewise,
    coordinate 2 being the probe itself.  Any other input, a table equal to
    a probe included, gets a fresh thread.
    """
    if n > depth:
        raise DepthTooSmall(f"cannot embed stage {n} at depth {depth}")
    # the probe case first: app's result is almost always a probe table
    pos, m = (u.pos if type(u) is Probe else None, 1) if n == 2 else (u if n < 2 else None, n)
    if pos is None:
        return _embed(tower, n, u, depth)
    # the row's entry, filled on first use (app calls this per entry,
    # app_row reads the whole row)
    row = tower._thread_rows.get((m, depth))
    if row is None:
        row = tower._thread_rows[m, depth] = [None] * len(tower.domain(m))
    thread = row[pos]
    if thread is None:
        thread = row[pos] = _embed(tower, m, tower.domain(m)[pos], depth)
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
    # app_shadow(d - 1, x, y), inlined
    tower = x.tower
    return stage_embed(tower, d - 1, tower.apply(d, x.coords[d], y.coords[d - 1]), d)


def app_row(x: Thread, row) -> list:
    """[app(x, y) for y in row], for a sequence of threads: the law suite's
    one call per row.

    Each entry makes its one Tower.apply call.  Its value is a position at
    depth 1 or 2, whose thread is the entry at that position of
    thread_row(tower, d - 1, d), and at depth 3 almost always a probe e_1(g),
    whose thread is g's in the stage-1 row, as stage_embed gives them; only
    a stage-2 value that is not a probe goes through stage_embed.
    """
    if not row:
        return []
    d = x.depth
    if [y for y in row if y.depth != d]:
        raise DepthTooSmall("application needs equal depths")
    if d < 1:
        raise DepthTooSmall("application needs depth >= 1")
    tower, f, k = x.tower, x.coords[d], d - 1
    apply = tower.apply
    values = [apply(d, f, y.coords[k]) for y in row]
    shared = thread_row(tower, min(k, 1), d)
    if d < 3:
        return [shared[v] for v in values]
    return [shared[v.pos] if type(v) is Probe else stage_embed(tower, 2, v, d)
            for v in values]


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


def _images(g: EndoMap, row) -> list:
    """g applied to each thread of row: one app_row for a FromThread, else
    g.apply per thread, so any object with an apply method serves."""
    if type(g) is FromThread:
        return app_row(g.point, row)
    return list(map(g.apply, row))


def thread_row(tower: Tower, n: int, depth: int) -> list:
    """The shared thread stage_embed gives each element of domain(n), n 0 or
    1, at this depth, in domain order.

    The row is the list kept in the tower's `_thread_rows`, the one table of
    shared threads, whose entries stage_embed fills one at a time; this
    fills the rest.  The stage-1 row also serves the probes e_1(D_1).
    """
    row = tower._thread_rows.get((n, depth))
    if row is None or not all(row):
        for u in tower.domain(n):
            stage_embed(tower, n, u, depth)
        row = tower._thread_rows[n, depth]
    return row


def restrict(g: EndoMap, n: int, depth: int, tower: Tower):
    """The stage-n restriction of an endomap: project, apply, embed.

    Entry u is g.apply(stage_embed(tower, n, u, depth)).coords[n], tabulated
    by tower.tabulate(n, ...): a table for n 0 or 1, lazy at n = 2.  The
    embeddings are the shared threads, a probe's from the stage-1 row.  For
    n 0 or 1, g is applied to the whole row thread_row(tower, n, depth) at
    once, a FromThread through one app_row call.
    """
    if n > depth - 1:
        raise DepthTooSmall(f"restriction to stage {n} needs depth > {n}")
    if n < 2:
        images = _images(g, thread_row(tower, n, depth))
        return tower.tabulate(n, lambda u: images[u].coords[n])
    return tower.tabulate(2, lambda u: g.apply(stage_embed(tower, 2, u, depth)).coords[2])


def reify(g: EndoMap, depth: int, tower: Tower) -> Thread:
    """The thread of stage restrictions: coords[0] = proj(0, r_0),
    coords[n+1] = r_n.

    g is applied once to each thread of the stage-0 row (by restrict) and
    of the stage-1 row, a FromThread through one app_row call per row:
    coordinate 1 of the stage-1 images is r_1, and since probe i's thread is
    thread i of that row, coordinate 2 of image i is r_2 at probe i, so the
    stage-1 restriction and the probe entries of the stage-2 one share their
    applications.
    """
    if depth < 1:
        raise DepthTooSmall("reify needs depth >= 1")
    try:
        r0 = restrict(g, 0, depth, tower)
    except NotInStage as e:
        raise IncoherentThread("incoherent thread: stage-0 restriction not monotone") from e
    coords: list = [tower.proj(0, r0), r0]
    if depth > 1:
        images = _images(g, thread_row(tower, 1, depth))
        coords.append(tuple([y.coords[1] for y in images]))
    if depth > 2:
        tops = [y.coords[2] for y in images]
        coords.append(tower.tabulate(2, lambda w: tops[w.pos] if type(w) is Probe
                                     else g.apply(stage_embed(tower, 2, w, depth)).coords[2]))
    return Thread(tower, tuple(coords))


# ---------------------------------------------------------------------------
# Law reports.

def _check(name: str, failures: list, checked: int) -> dict:
    return {"name": name, "pass": not failures, "checked": checked,
            "detail": failures[:3]}


# Stage-3 evaluations verify_laws may make (see check_law_budget).  The base-5
# suite takes 0.45-0.75 us per evaluation (0.35-0.58 s cold, in-process;
# Python 3.11.7 on a busy 2-core shared Xeon host), so the budget is at most
# about 1.2 s of laws, which leaves the rest of `kinfty check` well within
# 10 s.  It admits base 5 (629 stage-1 elements, 795 685 evaluations:
# 0.47-0.71 s and 23 MB for `kinfty check` as a process on that host; nearly
# all of it the laws, as the stage-1 order and the step-join sample take
# 0.04-0.06 s) and refuses base 6 (7 781 elements, 121 142 389 evaluations).
LAW_BUDGET = 1_500_000


def check_law_budget(stage1_size: int) -> None:
    """Refuse a law suite whose work exceeds LAW_BUDGET.

    The work is counted in stage-3 evaluations, from the loop bounds of
    verify_laws at depth 3 with no sample threads, and the count is exact
    on a fresh Tower (on one whose shared threads already hold their probe
    values the suite makes fewer).  With s stage-1 elements, each stage-3
    map the suite reads is evaluated once at each of the s probes e_1(D_1):
    the tops of the s embedded stage-1 elements and of the bottom thread
    (read by their reifications), the s + 1 reified restrictions of the
    stagewise and retract laws, and the 5 reified endomaps of the section
    law.  The density chain fills no further map, since it orders tops
    built by emb(2, .) by their construction keys.  That is s(2s + 7): 319 at base 3,
    9 447 at base 4 and 795 685 at base 5.
    """
    work = stage1_size * (2 * stage1_size + 7)
    if work > LAW_BUDGET:
        raise CapExceeded(
            f"the law suite over a stage 1 of {stage1_size} elements needs an "
            f"estimated {work} stage-3 evaluations, above the budget of "
            f"{LAW_BUDGET}")


def verify_laws(tower: Tower, depth: int = 3,
                sample_threads: Optional[list] = None) -> dict:
    """Run the exact application/retract/section/density checks at this depth.

    Raises CapExceeded, before any work, when the stage-1 size puts the
    suite over the budget of check_law_budget.
    """
    if depth < 2:
        raise DepthTooSmall("the law suite needs depth >= 2")
    check_law_budget(len(tower.stage1))
    checks = []
    embeds1 = list(thread_row(tower, 1, depth))
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
                r = rx.coords[n + 1]  # a stage-1 element's entries are its table's
                for y, lhs in zip(tower.domain(n), r if n else tower.stage1_tables[r]):
                    if lhs != tower.apply(n + 1, x.coords[n + 1], y):
                        stagewise[n].append({"law": "stagewise-app", "n": n,
                                             "y": str(tower.stage1_tables[y] if n else y)})
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
        for n in stages:  # both sides over the shared row, one row call each
            row = thread_row(tower, n, depth)
            for lhs, rhs in zip(app_row(rg, row), _images(g, row)):
                if lhs.coords[n] != rhs.coords[n]:
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
