"""The fixed-span witness language, its beta/eta classification, the
canonical model interpretation at the two base poles, and the separation
report.

The span is hard-coded: source (\\z. x z) y and target x y under the
encoding x -> #0, y -> #1.  The language has the two direct one-step
witnesses, the two reflexivities, and composition; there is no inverse.

Swapping sR1 and sL1 is an automorphism of the flat base, and its lift to
the stages takes the beta class's point to the eta class's, so no
order-invariant property of the model tells the two apart.  The separation
comes from the fixed interpretation, which sends each class to its pole: the
paper's "deliberately fixed forward witness language", not the model.
"""

from __future__ import annotations

from enum import Enum
from typing import Union

from .cells import RedSeq, seq_from_steps
from .domains import Tower, flat_base
from .kinfinity import Thread, stage_embed, thread_eq
from .record import record
from .terms import App, Dir, Lam, RedStep, StepKind, Term, Var, normalize

SPAN_SOURCE: Term = App(Lam(App(Var(1), Var(0))), Var(1))
SPAN_TARGET: Term = App(Var(0), Var(1))


class SpanEndpoint(Enum):
    M = "M"
    N = "N"


# Each witness keeps its ends and its class: the step kind of the one
# generator it crosses, None for a reflexivity or a composite of them.

@record
class TBeta:
    src = SpanEndpoint.M
    tgt = SpanEndpoint.N
    kind = StepKind.BETA


@record
class TEta:
    src = SpanEndpoint.M
    tgt = SpanEndpoint.N
    kind = StepKind.ETA


@record
class ReflM:
    src = SpanEndpoint.M
    tgt = SpanEndpoint.M
    kind = None


@record
class ReflN:
    src = SpanEndpoint.N
    tgt = SpanEndpoint.N
    kind = None


@record
class Comp:
    """left then right; its ends and class are set once, at construction.
    M -> N has no inverse, so at most one side crosses a generator."""

    __slots__ = ("src", "tgt", "kind")
    left: "Witness"
    right: "Witness"

    def __post_init__(self):
        left, right = self.left, self.right
        if left.tgt is not right.src:
            raise ValueError("composition endpoints do not meet")
        object.__setattr__(self, "src", left.src)
        object.__setattr__(self, "tgt", right.tgt)
        object.__setattr__(self, "kind", left.kind or right.kind)


Witness = Union[TBeta, TEta, ReflM, ReflN, Comp]


def span_beta_seq() -> RedSeq:
    """The direct beta contraction as a one-step reduction sequence."""
    return seq_from_steps(SPAN_SOURCE, (RedStep(StepKind.BETA, ()),))


def span_eta_seq() -> RedSeq:
    """The direct eta contraction in the function part."""
    return seq_from_steps(SPAN_SOURCE, (RedStep(StepKind.ETA, (Dir.FUN,)),))


def tag_classify(w: Witness) -> StepKind:
    """The canonical class of a span witness: the kind of its one generator."""
    if (w.src, w.tgt) != (SpanEndpoint.M, SpanEndpoint.N):
        raise ValueError("classification applies to witnesses from M to N")
    return w.kind


def pad(w: Witness, left: int, right: int) -> Witness:
    """Insert reflexive witnesses before and after."""
    if (w.src, w.tgt) != (SpanEndpoint.M, SpanEndpoint.N):
        raise ValueError("padding applies to witnesses from M to N")
    for _ in range(right):
        w = Comp(w, ReflN())
    for _ in range(left):
        w = Comp(ReflM(), w)
    return w


def default_tower() -> Tower:
    return Tower(flat_base())


def pole_index(tower: Tower, label: str) -> int:
    return tower.base.labels.index(label)


@record
class WitnessInterp:
    tag: StepKind
    epsilon: dict
    point: Thread


def _epsilon(fuel: int = 64) -> dict:
    """Oracle certificate that both span endpoints share a normal form."""
    nf_m, trace_m = normalize(SPAN_SOURCE, fuel)
    nf_n, trace_n = normalize(SPAN_TARGET, fuel)
    return {"normal_form_equal": nf_m == nf_n,
            "steps_from_source": len(trace_m),
            "steps_from_target": len(trace_n)}


def interpret(w: Witness, depth: int, tower: Tower) -> WitnessInterp:
    """Denotation-equality evidence plus the distinguished model point:
    the right pole for the beta class, the left pole for the eta class."""
    if depth < 1:
        raise ValueError("interpretation needs depth >= 1")
    tag = tag_classify(w)
    label = "sR1" if tag is StepKind.BETA else "sL1"
    point = stage_embed(tower, 0, pole_index(tower, label), depth)
    return WitnessInterp(tag, _epsilon(), point)


def separation_report(w1: Witness, w2: Witness, depth: int, tower: Tower) -> dict:
    """Tags, interpretation points, and the connection/separation verdict."""
    i1 = interpret(w1, depth, tower)
    i2 = interpret(w2, depth, tower)
    distinct = not thread_eq(i1.point, i2.point)
    report = {
        "tags": [i1.tag.value, i2.tag.value],
        "coordinate0": [tower.base.labels[i1.point.coords[0]],
                        tower.base.labels[i2.point.coords[0]]],
        "points_distinct": distinct,
    }
    if distinct:
        report["no_1cell"] = True
        report["no_higher_cells"] = True
        report["reason"] = (
            "the points differ at coordinate 0; 1-cells of the canonical "
            "identity tower are equalities, and every higher cell needs a "
            "boundary cell one dimension down, so emptiness propagates "
            "to all positive dimensions")
    else:
        report["connected_by"] = "reflexivity"
    return report
