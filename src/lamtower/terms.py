"""De Bruijn lambda terms, beta/eta steps, redex discovery, and a fuel-bounded normalizer.

Terms are open (free indices are permitted).  A reduction step is addressed by
a path of child selectors and carries an orientation; inverse beta steps carry
the full redex term so that replay is deterministic.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional, Union

from .record import record


class NegativeIndex(ValueError):
    """Shifting would push a free index below zero."""


class InvalidStep(ValueError):
    """The step's pattern does not match the addressed subterm."""


class EtaFreeVarViolation(InvalidStep):
    """Var 0 occurs free in the body of an attempted eta contraction."""


class FuelExhausted(Exception):
    """Normalization ran out of fuel; carries the partially reduced term."""

    def __init__(self, term: "Term", trace: tuple["RedStep", ...]):
        super().__init__(f"fuel exhausted after {len(trace)} steps")
        self.term = term
        self.trace = trace


@record
class Var:
    index: int


@record
class App:
    fun: "Term"
    arg: "Term"


@record
class Lam:
    body: "Term"


Term = Union[Var, App, Lam]


class StepKind(Enum):
    BETA = "beta"
    ETA = "eta"


class Dir(Enum):
    """Child selectors for redex paths."""

    FUN = "f"
    ARG = "a"
    BODY = "l"


Path = tuple[Dir, ...]


@record
class RedStep:
    kind: StepKind
    path: Path = ()
    forward: bool = True
    # Expansion data for inverse beta steps: the full redex App(Lam(b), a).
    # Forward steps and eta steps carry None (eta expansion is canonical).
    redex: Optional[Term] = None


def is_term(t) -> bool:
    """t is a de Bruijn term all the way down (iterative, so any depth)."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if type(node.index) is not int or node.index < 0:
                return False
        elif isinstance(node, App):
            stack.append(node.fun)
            stack.append(node.arg)
        elif isinstance(node, Lam):
            stack.append(node.body)
        else:
            return False
    return True


def is_step(s) -> bool:
    """s is a RedStep whose fields all have their declared types."""
    return (isinstance(s, RedStep) and isinstance(s.kind, StepKind)
            and isinstance(s.path, tuple)
            and all(isinstance(d, Dir) for d in s.path)
            and isinstance(s.forward, bool)
            and (s.redex is None or is_term(s.redex)))


def term_size(t: Term) -> int:
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        n += 1
        if isinstance(node, App):
            stack.append(node.fun)
            stack.append(node.arg)
        elif isinstance(node, Lam):
            stack.append(node.body)
    return n


def free_in(t: Term, index: int) -> bool:
    """True iff Var `index` (relative to the root of t) occurs free in t."""
    stack = [(t, index)]
    while stack:
        node, k = stack.pop()
        if isinstance(node, Var):
            if node.index == k:
                return True
        elif isinstance(node, App):
            stack.append((node.fun, k))
            stack.append((node.arg, k))
        else:
            stack.append((node.body, k + 1))
    return False


# The term transforms below are iterative: normalizing a non-terminating term
# can grow spines thousands of nodes deep while burning fuel, which would
# overflow the interpreter stack if written recursively.

_POP_APP = object()
_POP_LAM = object()


def _map_vars(t: Term, c: int, var: Callable[[Var, int], Term]) -> Term:
    """Rebuild t with each Var node replaced by var(node, k), where k is c plus
    the number of binders above the node."""
    work: list = [(t, c)]
    out: list[Term] = []
    while work:
        item = work.pop()
        if item is _POP_APP:
            arg = out.pop()
            fun = out.pop()
            out.append(App(fun, arg))
        elif item is _POP_LAM:
            out.append(Lam(out.pop()))
        else:
            node, k = item
            if isinstance(node, Var):
                out.append(var(node, k))
            elif isinstance(node, App):
                work.append(_POP_APP)
                work.append((node.arg, k))
                work.append((node.fun, k))
            else:
                work.append(_POP_LAM)
                work.append((node.body, k + 1))
    return out[0]


def shift(d: int, cutoff: int, t: Term) -> Term:
    """Add d to every free index >= cutoff; shift(0, c, t) is t itself."""
    if d == 0:
        return t
    def var(node: Var, c: int) -> Term:
        if node.index < c:
            return node
        if node.index + d < 0:
            raise NegativeIndex(f"shift({d}) drops index {node.index} below zero")
        return Var(node.index + d)
    return _map_vars(t, cutoff, var)


def subst(m: Term, n: Term) -> Term:
    """Capture-free M[N]: replace index 0 in M by N, decrementing higher frees."""
    def var(node: Var, j: int) -> Term:
        if node.index == j:
            return shift(j, 0, n)
        return Var(node.index - 1) if node.index > j else node
    return _map_vars(m, 0, var)


# Bound once: reading an Enum member off its class costs about ten times a
# global read, which shows in the per-node loops of _plug and _scan.
_FUN, _ARG, _BODY = Dir.FUN, Dir.ARG, Dir.BODY
_BETA, _ETA = StepKind.BETA, StepKind.ETA


def _walk(t: Term, path: Path) -> tuple[list[Term], Term]:
    """The nodes above the end of path, outermost first, and the subterm path
    addresses; InvalidStep when path leaves t."""
    parents: list[Term] = []
    node = t
    for d in path:
        parents.append(node)
        if d is _FUN and isinstance(node, App):
            node = node.fun
        elif d is _ARG and isinstance(node, App):
            node = node.arg
        elif d is _BODY and isinstance(node, Lam):
            node = node.body
        else:
            raise InvalidStep(f"path {render_path(path)} does not address a subterm")
    return parents, node


def _plug(new: Term, path, parents: list[Term]) -> Term:
    """parents[0] with the subterm at path replaced by new, rebuilt along
    parents (the node at each level of path)."""
    for i in range(len(parents) - 1, -1, -1):
        d = path[i]
        if d is _FUN:
            new = App(new, parents[i].arg)
        elif d is _ARG:
            new = App(parents[i].fun, new)
        else:
            new = Lam(new)
    return new


def subterm(t: Term, path: Path) -> Term:
    return _walk(t, path)[1]


def render_path(path: Path) -> str:
    return "root" if not path else "".join(d.value for d in path)


def _beta_contract(node: Term) -> Term:
    if not (isinstance(node, App) and isinstance(node.fun, Lam)):
        raise InvalidStep("beta redex pattern (lam M) N does not match")
    return subst(node.fun.body, node.arg)


def _eta_contract(node: Term) -> Term:
    if not (isinstance(node, Lam) and isinstance(node.body, App)
            and node.body.arg.__class__ is Var and node.body.arg.index == 0):
        raise InvalidStep("eta redex pattern lam (M #0) does not match")
    if free_in(node.body.fun, 0):
        raise EtaFreeVarViolation("#0 occurs free in the eta body")
    return shift(-1, 0, node.body.fun)


def apply_step(t: Term, s: RedStep) -> Term:
    """Apply one oriented step to t, or raise InvalidStep."""
    parents, node = _walk(t, s.path)
    if s.forward:
        if s.kind is StepKind.BETA:
            new = _beta_contract(node)
        else:
            new = _eta_contract(node)
    else:
        if s.kind is StepKind.BETA:
            if s.redex is None:
                raise InvalidStep("inverse beta step lacks its redex data")
            if _beta_contract(s.redex) != node:
                raise InvalidStep("inverse beta data does not contract to the subterm")
            new = s.redex
        else:
            # Eta expansion is canonical: node -> lam ((shift 1 node) #0).
            new = Lam(App(shift(1, 0, node), Var(0)))
    return _plug(new, s.path, parents)


def invert_step(s: RedStep, source: Term) -> RedStep:
    """The step undoing s, where s is valid on `source`."""
    if s.forward:
        if s.kind is StepKind.BETA:
            return RedStep(StepKind.BETA, s.path, False, subterm(source, s.path))
        return RedStep(StepKind.ETA, s.path, False)
    return RedStep(s.kind, s.path, True)


def _eta_body(body: Term) -> bool:
    """lam body is an eta redex: body is M #0 with #0 not free in M."""
    return (isinstance(body, App) and body.arg.__class__ is Var
            and body.arg.index == 0 and not free_in(body.fun, 0))


def _scan(node: Term, path: list, parents: list, pending: list, first: bool):
    """The leftmost-outermost (preorder) search for forward redexes, from
    node on.

    One walk down the leftmost spine, no recursion.  The walk's state is the
    caller's three lists: the path to node, the node at each level of it
    (parents), and the depths of the Apps on it whose argument is still
    unvisited (pending).  An App records its depth as pending and the walk
    goes into its function; a Lam goes into its body.  At a Var the walk
    resumes at the deepest pending App: path and parents are cut back to it,
    its selector turns from FUN to ARG, and the walk goes into its argument.
    So visiting a node costs O(1) however deep it sits.  With first, stops
    at the first redex and returns (kind, redex), the lists then addressing
    the redex (its own argument is not pending), or None; otherwise returns
    the list of every redex as a RedStep.
    """
    found: list[RedStep] = []
    while True:
        if isinstance(node, App):
            if isinstance(node.fun, Lam):
                if first:
                    return _BETA, node
                found.append(RedStep(_BETA, tuple(path)))
            pending.append(len(path))
            path.append(_FUN)
            parents.append(node)
            node = node.fun
        elif isinstance(node, Lam):
            if _eta_body(node.body):
                if first:
                    return _ETA, node
                found.append(RedStep(_ETA, tuple(path)))
            path.append(_BODY)
            parents.append(node)
            node = node.body
        elif pending:
            depth = pending.pop()
            del path[depth + 1:]
            del parents[depth + 1:]
            path[depth] = _ARG
            node = parents[depth].arg
        else:
            return None if first else found


def find_redexes(t: Term) -> list[RedStep]:
    """All forward steps on t in leftmost-outermost path order."""
    return _scan(t, [], [], [], False)


def first_redex(t: Term) -> Optional[RedStep]:
    path: list[Dir] = []
    hit = _scan(t, path, [], [], True)
    return None if hit is None else RedStep(hit[0], tuple(path))


def normalize(t: Term, fuel: int) -> tuple[Term, tuple[RedStep, ...]]:
    """Leftmost-outermost reduction to beta/eta normal form.

    One walk serves every step: the search stops at a redex with its path,
    parents and pending arguments live, the contraction rebuilds the term
    along them and writes each rebuilt ancestor back into parents, and the
    search resumes where it contracted.  Every node before the redex in
    preorder held no redex, and those off the path are unchanged, so only
    ancestors can have become redexes, and only two kinds can: the parent,
    when the contractum is a Lam in function position (beta), and an
    enclosing Lam whose body is now M #0 with #0 not free in M (eta).  The
    outermost such ancestor is the next redex; with none, the walk goes on
    from the contractum with the arguments it had pending.  Returns the
    normal form and the replayable trace, or raises FuelExhausted (carrying
    the partially reduced term) when fuel runs out first.
    """
    trace: list[RedStep] = []
    path: list[Dir] = []
    parents: list[Term] = []
    pending: list[int] = []
    current = t
    hit = _scan(t, path, parents, pending, True)
    while hit is not None:
        if fuel <= 0:
            raise FuelExhausted(current, tuple(trace))
        fuel -= 1
        kind, node = hit
        trace.append(RedStep(kind, tuple(path)))
        contractum = _beta_contract(node) if kind is _BETA else _eta_contract(node)
        depth = len(path)
        # top: the outermost ancestor that is now a redex, depth if none.
        # Below the parent an App keeps its function's constructor, so only
        # the parent can become a beta redex.
        top = depth - 1 if depth and path[-1] is _FUN and isinstance(contractum, Lam) else depth
        new = contractum
        for i in range(depth - 1, -1, -1):
            d = path[i]
            if d is _FUN:
                new = App(new, parents[i].arg)
            elif d is _ARG:
                new = App(parents[i].fun, new)
            else:
                new = Lam(new)
                if _eta_body(new.body):
                    top = i
            parents[i] = new
        current = new
        if top < depth:
            node = parents[top]
            del path[top:]
            del parents[top:]
            while pending and pending[-1] >= top:
                pending.pop()
            hit = (_BETA if isinstance(node, App) else _ETA), node
        else:
            hit = _scan(contractum, path, parents, pending, True)
    return current, tuple(trace)


def to_text(t: Term) -> str:
    """Raw de Bruijn syntax: #n, juxtaposition, and `\\ . e` binders.

    A function in lambda form and an argument that is not a variable are
    parenthesized.  Iterative, so terms of any depth print.
    """
    out: list[str] = []
    work: list = [t]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(f"#{item.index}")
        elif isinstance(item, Lam):
            out.append("\\ . ")
            work.append(item.body)
        else:
            # Pushed in reverse: the function's text comes off the stack first.
            arg = item.arg
            work.extend((arg,) if isinstance(arg, Var) else (")", arg, "("))
            work.append(" ")
            fun = item.fun
            work.extend((")", fun, "(") if isinstance(fun, Lam) else (fun,))
    return "".join(out)
