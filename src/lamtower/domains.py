"""Finite poset stages for the function-space tower over a finite pointed base.

Stage 0 is any finite poset with a bottom (the CLI builds the flat one, with
labeled poles); stage n+1 consists of monotone self-maps of stage n under the
pointwise order.  Stages 0 and 1 are fully enumerated; stage 2 elements are
explicit tables over the stage-1 enumeration; stage 3 elements are
evaluation-backed maps (no global enumeration exists at that size).
Projection pairs are the constant/evaluate-at-bottom seeds lifted
functorially.
"""

from __future__ import annotations

import itertools
import operator
import random
from functools import partial
from typing import Callable, Optional

from .record import record

DEFAULT_POLES = ("sR1", "sL1")
BOTTOM_LABEL = "bot"


# Stage-3 evaluations verify_laws may make (see check_law_budget).  The base-5
# suite takes 2.2-2.3 us per evaluation on a 2-core shared host, and up to
# about 3.3 us when that host is busy, so the budget is at most about 5 s of
# laws, which leaves the rest of `kinfty check` within 10 s.  It admits base
# 5 (629 stage-1 elements, 795 685 evaluations: 2.0-2.1 s and 24 MB for
# `kinfty check` on that host; nearly all of it the laws, as the stage-1
# order and the step-join sample take under 0.1 s) and refuses base 6
# (7 781 elements, 121 142 389 evaluations).
LAW_BUDGET = 1_500_000


class CapExceeded(ValueError):
    """Requested enumeration above the enumeration cap."""


def flat_stage1_size(poles: int) -> int:
    """Exact stage-1 size over a flat base with `poles` poles: the monotone
    maps fixing bottom (any map of the poles) plus the constants at a pole."""
    return (poles + 1) ** poles + poles


def check_law_budget(stage1_size: int) -> None:
    """Refuse a law suite whose work exceeds LAW_BUDGET.

    The work is counted in stage-3 evaluations, from the loop bounds of
    kinfinity.verify_laws at depth 3 with no sample threads, and the count
    is exact on a fresh Tower (on one whose shared threads already hold
    their probe values the suite makes fewer).  With s stage-1 elements, each
    stage-3 map the suite reads is evaluated once at each of the s probes
    e_1(D_1): the tops of the s embedded stage-1 elements and of the bottom
    thread (read by their reifications), the s + 1 reified restrictions of
    the stagewise and retract laws, and the 5 reified endomaps of the
    section law.  The density chain fills no further map, since it orders
    tops with one construction key by the key.  That is s(2s + 7): 319 at
    base 3, 9 447 at base 4 and 795 685 at base 5.
    """
    work = stage1_size * (2 * stage1_size + 7)
    if work > LAW_BUDGET:
        raise CapExceeded(
            f"the law suite over a stage 1 of {stage1_size} elements needs an "
            f"estimated {work} stage-3 evaluations, above the budget of "
            f"{LAW_BUDGET}")


@record
class FinPoset:
    labels: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    bottom: int = 0

    def __post_init__(self):
        # row i as an int bitset of the elements above i; the order is
        # transitive iff row j is inside row i whenever i <= j
        positions = range(len(self.leq))
        rows = [sum(map((1).__lshift__, itertools.compress(positions, row)))
                for row in self.leq]
        if any(not row >> i & 1 for i, row in enumerate(rows)):
            raise ValueError("order must be reflexive")
        if rows and rows[self.bottom] != (1 << len(rows)) - 1:
            raise ValueError("bottom must be below every element")
        for i, (row, flags) in enumerate(zip(rows, self.leq)):
            for j in itertools.compress(positions, flags):
                if j != i and rows[j] >> i & 1:
                    raise ValueError("order must be antisymmetric")
                if rows[j] & ~row:
                    raise ValueError("order must be transitive")

    def __len__(self) -> int:
        return len(self.labels)


def flat_base(poles: tuple[str, ...] = DEFAULT_POLES) -> FinPoset:
    """The flat poset: bottom below each pole, poles pairwise incomparable."""
    if "sR1" not in poles or "sL1" not in poles:
        raise ValueError("the pole labels must include sR1 and sL1")
    if len(set(poles)) != len(poles):
        raise ValueError("pole labels must be distinct")
    labels = (BOTTOM_LABEL,) + tuple(poles)
    n = len(labels)
    leq = tuple(tuple(i == 0 or i == j for j in range(n)) for i in range(n))
    return FinPoset(labels, leq, 0)


def _least_above(leq, x, y) -> Optional[int]:
    """The least element above both x and y in the order leq, or None."""
    ubs = [z for z in range(len(leq)) if leq[x][z] and leq[y][z]]
    return next((z for z in ubs if all(leq[z][u] for u in ubs)), None)


@record
class Stage:
    level: int
    elements: tuple
    poset: FinPoset


@record
class MonoMap:
    """A monotone self-map of an enumerated stage, as an explicit table.

    Build through Tower.make_mono, which rejects non-monotone tables.
    """

    level: int  # domain stage
    table: tuple


class Tower:
    """The stage tower over one finite pointed base, with projection pairs.

    Element representations: stage 0 is an index into the base; stage 1 is a
    table over base indices; stage 2 is a table over the canonical stage-1
    enumeration whose entries are stage-1 tables; stage 3 is a LazyMono
    evaluated at stage-2 tables on demand.  Only the tower reads them: other
    code builds, applies, orders and compares elements through its methods.

    Construction enumerates stage 1 and indexes it: `stage1_index` maps each
    table to its position and `_const1` holds the positions of the constant
    maps (x,)*n, one per base element x, which is all proj(1, .) reads.
    `_join0[x][y]` is the stage-0 join, read from the base order: the least
    element above both x and y, or None when there is none.  The tower also
    keeps these tables, each built on first use and held for the
    life of the instance:
    - `_emb1`: emb(1, g) per stage-1 element g, filled one g at a time, so
      embedding a few poles over a large base stays cheap; its entries are
      the canonical constant maps of `stage1`, not copies;
    - `_up1`: the stage-1 order as one up-set row per stage-1 element (the
      frozenset of the elements above it), built whole on first use by
      leq(1, ...), leq(2, ...) or up_set(1, ...), whose arguments and
      entries must therefore be stage-1 elements;
    - `_probes`: the stage2_probes() family e_1(D_1), built whole on first
      call, one probe per stage-1 element in stage-1 order, with
      `_probe_pos`, each probe's position keyed by its identity (sound
      because the tower keeps its probes alive), and `_probe_proj1`, each
      probe's proj(1, .) by position;
    - `_threads`: the shared canonical threads of kinfinity.stage_embed, at
      most one per depth and stage-0 element, stage-1 element or probe;
    - `_thread_rows`: kinfinity.thread_row's tuples of those same threads,
      keyed (n, depth), one per element of domain(n) in order (at n = 2 one
      per probe, in probe order), so a restriction reads them by position.
    """

    def __init__(self, base: FinPoset):
        self.base = base
        self.stage1 = self._enumerate_stage1()
        self.stage1_index = {t: i for i, t in enumerate(self.stage1)}
        self._const1 = tuple(self.stage1_index[self.emb(0, x)]
                             for x in range(len(base)))
        self._join0 = tuple(tuple(_least_above(base.leq, x, y) for y in range(len(base)))
                            for x in range(len(base)))
        self._emb1: dict = {}
        self._up1: Optional[dict] = None
        self._probes: Optional[tuple] = None
        self._probe_pos: dict = {}
        self._probe_proj1: tuple = ()
        self._threads: dict = {}
        self._thread_rows: dict = {}

    def _enumerate_stage1(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.base)
        tables = itertools.product(range(n), repeat=n)
        return tuple(sorted(filter(partial(self._monotone_table, 0), tables)))

    def _monotone_table(self, level: int, table) -> bool:
        dom = self.domain(level)
        for i, x in enumerate(dom):
            for j, y in enumerate(dom):
                if self.leq(level, x, y) and not self.leq(level, table[i], table[j]):
                    return False
        return True

    def domain(self, level: int):
        if level == 0:
            return tuple(range(len(self.base)))
        if level == 1:
            return self.stage1
        raise CapExceeded(f"stage {level} has no global enumeration")

    # -- order -----------------------------------------------------------

    def leq(self, level: int, a, b) -> bool:
        """a <= b in stage `level`, for a and b elements of that stage.

        In stages 1 and 2 an element is reflexively below itself without a
        lookup (`a is b`), and otherwise the answer is read from the up-set
        rows of the stage-1 order.  Both are exact only for stage elements:
        a table that is not one may compare as below itself, and a stage-1
        argument of leq(1, ...) or entry of leq(2, ...) that is not a
        stage-1 element raises KeyError.

        At stage 3 it decides less than the order of maps: one map, or two
        with equal construction keys (both emb(2, w) for one w), are below;
        others are compared pointwise at the s probes e_1(D_1) only, s the
        size of stage 1 (bottom(2) is e_1(bottom(1)), one of them).  Maps
        that agree on the probes but differ elsewhere in stage 2 compare
        below each other.
        """
        if level == 0:
            return self.base.leq[a][b]
        if level == 1:
            return a is b or b in (self._up1 or self._stage1_up())[a]
        if level == 2:
            if a is b:
                return True
            rows = self._up1 or self._stage1_up()
            return all(map(frozenset.__contains__, map(rows.__getitem__, a), b))
        if level == 3:
            if a is b or (a.key is not None and a.key == b.key):
                return True
            return all(map(partial(self.leq, 2), self.at_probes(a), self.at_probes(b)))
        raise CapExceeded("no order comparison above stage 3")

    def eq(self, level: int, a, b) -> bool:
        """a == b in stage `level`; at stage 3, equal construction keys or
        agreement at each of the s probes e_1(D_1), with the caveat of
        leq(3, ...)."""
        if level < 3:
            return a == b
        if level == 3:
            if a.key is not None and a.key == b.key:
                return True
            return all(map(operator.eq, self.at_probes(a), self.at_probes(b)))
        raise CapExceeded("no equality test above stage 3")

    def up_set(self, level: int, a):
        """The elements of stage `level` (0 or 1) above a, as a container."""
        if level == 0:
            return frozenset(y for y in range(len(self.base)) if self.base.leq[a][y])
        if level == 1:
            return (self._up1 or self._stage1_up())[a]
        raise CapExceeded(f"no up-sets in stage {level}")

    def _stage1_up(self) -> dict:
        """The stage-1 order as up-set rows: each element maps to the
        frozenset of the elements above it.

        g is above f when f(x) <= g(x) at every position x, so f's row is
        the intersection over x of the elements whose value at x is above
        f(x): one per-position value set per (x, f(x)), smallest first.
        """
        if self._up1 is None:
            n, leq0, elems = len(self.base), self.base.leq, self.stage1
            above = [[frozenset(g for g in elems if leq0[v][g[x]]) for v in range(n)]
                     for x in range(n)]
            rows = {}
            for f in elems:
                sets = sorted((above[x][v] for x, v in enumerate(f)), key=len)
                rows[f] = sets[0].intersection(*sets[1:])
            self._up1 = rows
        return self._up1

    def bottom(self, level: int):
        if level == 0:
            return self.base.bottom
        if level == 1:  # the canonical stage-1 element, so `is` finds it
            return self.stage1[self._const1[self.base.bottom]]
        if level == 2:
            return (self.bottom(1),) * len(self.stage1)
        raise CapExceeded("no bottom representation above stage 2")

    # -- evaluation ------------------------------------------------------

    def apply(self, level: int, f, x):
        """Apply a stage-`level` element (level >= 1) to a stage-(level-1) one."""
        if level == 1:
            return f[x]
        if level == 2:
            return f[self.stage1_index[x]]
        if level == 3:
            i = self._probe_pos.get(id(x))
            if i is None:
                return f.eval(x)
            # at a probe, read and fill the vector at_probes keeps
            probed = f.probed
            while len(probed) <= i:
                probed.append(f.fn(self._probes[len(probed)]))
            return probed[i]
        raise CapExceeded(f"cannot apply a stage-{level} element")

    # -- projection pairs --------------------------------------------------

    def emb(self, n: int, x):
        """f_n^+ : stage n -> stage n+1."""
        if n == 0:
            return (x,) * len(self.base)
        if n == 1:
            table = self._emb1.get(x)
            if table is None:
                # the constant maps as canonical stage-1 elements, shared by
                # every table, so the order's lookups find them by identity
                const = [self.stage1[i] for i in self._const1]
                bot = self.base.bottom
                table = tuple(const[x[u[bot]]] for u in self.stage1)
                self._emb1[x] = table
            return table
        if n == 2:
            return LazyMono(lambda w: self.emb(1, self.apply(2, x, self.proj(1, w))),
                            key=("emb2", x))
        raise CapExceeded(f"no embedding representation from stage {n}")

    def proj(self, n: int, u):
        """f_n^- : stage n+1 -> stage n."""
        if n == 0:
            return u[self.base.bottom]
        if n == 1:
            i = self._probe_pos.get(id(u))
            if i is not None:  # one of the probes
                return self._probe_proj1[i]
            # u applied to the constant map at x, then evaluated at bottom
            bot = self.base.bottom
            return tuple(u[i][bot] for i in self._const1)
        if n == 2:
            # u at emb(1, g) for each g, which are the probes; the probe
            # lookup of proj(1, .) is inlined, as it runs per entry
            pos, table = self._probe_pos.get, self._probe_proj1
            return tuple(self.proj(1, v) if (i := pos(id(v))) is None else table[i]
                         for v in self.at_probes(u))
        raise CapExceeded(f"no projection representation to stage {n}")

    def tabulate(self, n: int, fn: Callable):
        """The stage-(n+1) element x |-> fn(x), for fn monotone on stage n:
        a table over domain(n) for n <= 1, and at n = 2 a LazyMono that
        evaluates fn only when applied or compared."""
        if n <= 1:
            return tuple(map(fn, self.domain(n)))
        if n == 2:
            return LazyMono(fn)
        raise CapExceeded(f"no tabulation over stage {n}")

    def make_mono(self, level: int, table) -> MonoMap:
        """A validated monotone self-map table over stage `level`."""
        table = tuple(table)
        dom = self.domain(level)
        if len(table) != len(dom):
            raise ValueError("table length must match the stage enumeration")
        # leq's reflexive shortcut holds only for stage elements, so an entry
        # outside the stage must be caught here, not by the order lookups
        elements = self.stage1_index if level == 1 else range(len(dom))
        for t in table:
            if t not in elements:
                raise ValueError(f"table entry {t!r} is not a stage-{level} element")
        if not self._monotone_table(level, table):
            raise ValueError("table is not monotone")
        return MonoMap(level, table)

    # -- probes for the lazy top stage ------------------------------------

    def stage2_probes(self) -> tuple:
        """The probe family for comparing stage-3 elements: e_1(D_1), the
        table emb(1, g) of each stage-1 element g in stage-1 order, so a
        stage-3 map's probe vector is indexed as a stage-2 table is."""
        if self._probes is None:
            self._probes = tuple(self.emb(1, g) for g in self.stage1)
            # built while _probe_pos is still empty, so proj(1, .) computes
            self._probe_proj1 = tuple(self.proj(1, w) for w in self._probes)
            self._probe_pos = {id(w): i for i, w in enumerate(self._probes)}
        return self._probes

    def probe_position(self, w) -> Optional[int]:
        """The position of w in stage2_probes() when w is one of those very
        tables; None for any other object, equal tables included."""
        return self._probe_pos.get(id(w))

    def at_probes(self, u: "LazyMono"):
        """The values of the stage-3 element u at stage2_probes(), in order.

        Each value is computed once per u and kept on it (`u.probed`), which
        apply(3, u, w) at a probe w reads and fills too.  A full vector is
        returned as it is; a partial one fills only as far as a caller
        reads, so a comparison that stops at its first differing probe
        evaluates no further.
        """
        probes = self.stage2_probes()
        if len(u.probed) == len(probes):
            return u.probed
        return self._fill_probes(u, probes)

    @staticmethod
    def _fill_probes(u: "LazyMono", probes: tuple):
        probed = u.probed
        for i, w in enumerate(probes):
            if i == len(probed):
                probed.append(u.fn(w))
            yield probed[i]


class LazyMono:
    """A stage-3 element backed by evaluation, memoized; carries an optional
    construction key so embedded elements compare exactly.  `probed` holds
    its values at the probe family, a prefix filled by Tower.at_probes and
    Tower.apply; `memo` holds its values at any other argument."""

    def __init__(self, fn: Callable, key=None):
        self.fn = fn
        self.key = key
        self.memo: dict = {}
        self.probed: list = []

    def eval(self, w):
        value = self.memo.get(w)
        if value is None:
            value = self.memo[w] = self.fn(w)
        return value


def enumerate_stage(tower: Tower, n: int) -> Stage:
    """Fully enumerate stage 0 or 1; CapExceeded for any other stage."""
    if n == 0:
        return Stage(0, tuple(range(len(tower.base))), tower.base)
    if n == 1:
        elems = tower.stage1
        leq = tuple(tuple(tower.leq(1, a, b) for b in elems) for a in elems)
        labels = tuple("map" + "".join(str(i) for i in t) for t in elems)
        poset = FinPoset(labels, leq, elems.index(tower.bottom(1)))
        return Stage(1, elems, poset)
    raise CapExceeded(f"no enumeration implemented for stage {n}")


def step_map(tower: Tower, level: int, a, b):
    """The compact step map at `level`: x maps to b when a <= x, else bottom."""
    above = tower.up_set(level, a)
    bot = tower.bottom(level)
    return tuple(b if x in above else bot for x in tower.domain(level))


def lub(tower: Tower, level: int, xs) -> Optional[object]:
    """Least upper bound of finitely many stage elements, or None when the
    set has none: a fold of the two-argument join."""
    xs = iter(xs)
    out = next(xs, None)
    if out is None:
        return tower.bottom(level)
    for x in xs:
        out = _join(tower, level, out, x)
        if out is None:
            return None
    return out


def _join(tower: Tower, level: int, x, y):
    """x join y, or None when they have no least upper bound; a stage-1
    join it computes is the canonical stage-1 element.

    One lookup in the tower's join table at stage 0, pointwise above it.  A
    pointwise join that exists at every position is monotone, so it is the
    join on any base.  When a position has no join, a stage-1 join is read
    from the stage-1 order instead, as the least element above both (on a
    bounded-complete base, a flat one say, there is no upper bound at that
    position, so the common up-set is empty).  Stage-2 joins stay pointwise,
    so on a base that is not bounded-complete one may be None although a
    join exists.
    """
    if x is y:
        return x
    if level == 0:
        return tower._join0[x][y]
    if level == 1:
        bot = tower.bottom(1)
        if x is bot:
            return y
        if y is bot:
            return x
    slots = []
    for s, t in zip(x, y):
        j = _join(tower, level - 1, s, t)
        if j is None:
            return _least_above_both(tower, x, y) if level == 1 else None
        slots.append(j)
    table = tuple(slots)
    if level == 1:
        i = tower.stage1_index.get(table)
        if i is not None:
            return tower.stage1[i]
    return table


def _least_above_both(tower: Tower, x, y):
    """The least stage-1 element above x and y, read from the stage-1 order,
    or None when there is none: the one whose up-set is the common one."""
    common = tower.up_set(1, x) & tower.up_set(1, y)
    return next((z for z in common if tower.up_set(1, z) == common), None)


def step_join_sample(tower: Tower, rng: random.Random, n: int) -> list:
    """Up to n distinct joins of two stage-2 step maps between random
    stage-1 elements, drawn a, b, c, d per attempt, in at most 40 n
    attempts; the stage-2 sample of `kinfty check`."""
    out, seen, elems = [], set(), tower.stage1
    for _ in range(40 * n):
        if len(out) == n:
            break
        a, b, c, d = (rng.choice(elems) for _ in range(4))
        j = lub(tower, 2, [step_map(tower, 1, a, b), step_map(tower, 1, c, d)])
        if j is not None and j not in seen:
            seen.add(j)
            out.append(j)
    return out


def check_projection_pair(tower: Tower, n: int, sample=()) -> dict:
    """Retract law on all of stage n; section inequality on stage n+1
    (enumerated when possible, otherwise on the sample)."""
    retract_failures = [x for x in tower.domain(n)
                        if tower.proj(n, tower.emb(n, x)) != x]
    uppers = tower.stage1 if n == 0 else tuple(sample)
    section_failures = [u for u in uppers
                        if not tower.leq(n + 1, tower.emb(n, tower.proj(n, u)), u)]
    return {
        "stage": n,
        "retract_checked": len(tower.domain(n)),
        "retract_failures": retract_failures,
        "section_checked": len(uppers),
        "section_failures": section_failures,
        "ok": not retract_failures and not section_failures,
    }
