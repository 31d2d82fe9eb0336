"""The value types are records (lamtower.record): the equality, hashing, repr,
construction and immutability pinned here are those the frozen, slotted
standard-library data classes gave them before."""

import pytest

from lamtower.cells import IllFormed, RedSeq, Refl, Symm, UnitL, UnitR, empty_seq
from lamtower.domains import FinPoset
from lamtower.record import record
from lamtower.terms import App, Dir, Lam, RedStep, StepKind, Var
from lamtower.witness import span_beta_seq


def test_equality_is_class_sensitive():
    p = span_beta_seq()
    assert Refl(p) != Symm(p) and Symm(p) != Refl(p)
    assert UnitL(p) != UnitR(p)
    assert Refl(p) == Refl(p) and Refl(p) is not Refl(p)
    assert Refl(p).__eq__(p) is NotImplemented


def test_hash_is_the_hash_of_the_field_tuple():
    p = span_beta_seq()
    step = RedStep(StepKind.BETA, (Dir.FUN,), False, None)
    assert hash(step) == hash((StepKind.BETA, (Dir.FUN,), False, None))
    assert hash(p) == hash((p.terms, p.steps))
    assert hash(Var(3)) == hash((3,))


def test_repr():
    step = RedStep(StepKind.BETA, (Dir.FUN,), False, None)
    assert repr(step) == ("RedStep(kind=<StepKind.BETA: 'beta'>, path=(<Dir.FUN: 'f'>,), "
                          "forward=False, redex=None)")
    poset = FinPoset(("bot", "a"), ((True, True), (False, True)))
    assert repr(poset) == ("FinPoset(labels=('bot', 'a'), "
                           "leq=((True, True), (False, True)), bottom=0)")


def test_keyword_and_default_construction():
    assert RedStep(StepKind.ETA, forward=False) == RedStep(StepKind.ETA, (), False, None)
    poset = FinPoset(("bot",), ((True,),))
    assert poset.bottom == 0
    assert FinPoset(labels=("bot",), leq=((True,),), bottom=0) == poset
    with pytest.raises(TypeError):
        RedStep()
    with pytest.raises(TypeError):
        RedStep(StepKind.ETA, nosuchfield=1)


def test_post_init_runs():
    t = Var(0)
    with pytest.raises(IllFormed):
        RedSeq((t,), (RedStep(StepKind.BETA),))
    assert RedSeq((t,), ()) == empty_seq(t)


def test_fields_are_read_only():
    v = Var(0)
    with pytest.raises(AttributeError):
        v.index = 1
    with pytest.raises(AttributeError):
        del v.index
    with pytest.raises(AttributeError):  # the slotted data class: TypeError
        v.other = 1
    assert v.index == 0 and not hasattr(v, "__dict__")


def test_slots_and_match_args():
    assert RedStep.__slots__ == RedStep.__match_args__ == ("kind", "path", "forward", "redex")
    match App(Var(0), Lam(Var(1))):
        case App(Var(i), Lam(body)):
            assert (i, body) == (0, Var(1))
        case _:
            pytest.fail("App did not match its fields")


def test_each_term_class_owns_its_eq():
    # the benchmark's tracer wraps these three methods in place
    for cls in (Var, App, Lam):
        assert "__eq__" in vars(cls) and "__hash__" in vars(cls)


def test_deep_terms_compare_and_hash():
    a, b = Var(0), Var(0)
    for _ in range(300):
        a, b = Lam(a), Lam(b)
    assert a == b and hash(a) == hash(b)
    assert a != Lam(b)


def test_a_record_without_fields():
    @record
    class Point:
        """A constant."""

        label = "p"  # not annotated: a class attribute, not a field

    assert Point() == Point() and hash(Point()) == hash(())
    qualname = "test_a_record_without_fields.<locals>.Point"
    assert Point.__qualname__ == qualname and repr(Point()) == qualname + "()"
    assert Point.label == "p"
    assert Point.__slots__ == () and Point.__doc__ == "A constant."


def test_a_slot_of_its_own_is_state_but_not_a_field():
    @record
    class Edge:
        """An edge that keeps its length, computed once."""

        __slots__ = ("length",)
        a: int
        b: int

        def __post_init__(self):
            object.__setattr__(self, "length", abs(self.b - self.a))

    e = Edge(1, 4)
    assert e.length == 3
    assert Edge.__slots__ == ("a", "b", "length")
    assert Edge.__match_args__ == ("a", "b")
    assert repr(e).endswith("<locals>.Edge(a=1, b=4)")
    assert hash(e) == hash((1, 4)) and e == Edge(1, 4)
    # the slot takes no part in equality: a value that stored another
    # length still equals e
    other = Edge(1, 4)
    object.__setattr__(other, "length", 0)
    assert other == e and hash(other) == hash(e)
    with pytest.raises(AttributeError):
        e.length = 5
    with pytest.raises(AttributeError):
        del e.length
    with pytest.raises(TypeError):
        Edge(1, 4, 3)
    assert e.length == 3 and not hasattr(e, "__dict__")

