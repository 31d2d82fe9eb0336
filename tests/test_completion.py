import hashlib
import random

import pytest

from lamtower import completion, serialize
from lamtower.cells import (EndpointMismatch, HComp, IllFormed, Pentagon, Refl,
                            Symm, Trans, WhiskerL, WhiskerR, validate_seq)
from lamtower.completion import (ParallelismViolation, RTowerCell, SigmaCell,
                                 cell_boundary, endpoints, explicit_cell,
                                 hd_map, pack, parallel, pi0_equiv, realize,
                                 realize_boundary_check, sigma_boundary,
                                 triple_cell)
from lamtower.gen import (gen_composable_seqs, gen_convertible_pair, gen_h3,
                          gen_hd_tree, gen_rtower_cell, gen_separated_pair,
                          gen_term)
from lamtower.terms import App, FuelExhausted, Lam, Var, apply_step
from lamtower.witness import SPAN_SOURCE, SPAN_TARGET, span_beta_seq

SPAN_NF = App(Var(0), Var(1))


# --- higher derivations -----------------------------------------------------

def test_hd_endpoints():
    h = Refl("x")
    assert endpoints(h) == ("x", "x")
    assert endpoints(Symm(h)) == ("x", "x")
    t = Trans(h, Symm(h))
    assert endpoints(t) == ("x", "x")
    # the joint is checked where the ends are read, not at construction
    with pytest.raises(EndpointMismatch):
        endpoints(Trans(Refl("x"), Refl("y")))


def test_hd_names_are_the_shared_constructors():
    # the old names the frozen benchmark workloads still read
    assert completion.HDRefl is Refl and completion.HDSymm is Symm
    assert Symm("x").inner == "x"  # the old field name, read-only


@pytest.mark.parametrize("node", [
    WhiskerL(span_beta_seq(), Refl("x")),
    HComp(Refl("x"), Refl("x")),
    RTowerCell(0, Var(0)),
    Symm(WhiskerR(Refl("x"), span_beta_seq())),
], ids=["WhiskerL", "HComp", "RTowerCell", "nested-WhiskerR"])
def test_derivations_are_refl_symm_trans_only(node):
    # the shared constructors also whisker and compose horizontally; a
    # derivation does neither, and a bare cell is not a derivation
    with pytest.raises(IllFormed, match="not a higher derivation"):
        endpoints(node)
    with pytest.raises(IllFormed, match="not a higher derivation"):
        hd_map(lambda v: v, node)


def test_hd_map_base_clause():
    assert hd_map(lambda v: ("f", v), Refl("x")) == Refl(("f", "x"))


def test_hd_map_identity_and_composition(rng):
    for _ in range(100):
        h = gen_hd_tree(rng, ("pt", rng.randrange(5)), 6)
        assert hd_map(lambda x: x, h) == h
        f = lambda v: ("f", v)
        g = lambda v: ("g", v)
        assert hd_map(lambda v: g(f(v)), h) == hd_map(g, hd_map(f, h))


# --- packaging --------------------------------------------------------------

def _cell3(rng):
    return explicit_cell(3, gen_h3(rng, depth=1))


def test_pack4_reflexive_triple(rng):
    eta = _cell3(rng)
    c4 = triple_cell(eta, eta, Refl(eta))
    packed = pack(4, c4)
    assert packed == SigmaCell(4, Refl(eta))
    assert sigma_boundary(packed) == (eta, eta)


def test_pack_boundary_commutes_up_to_6(rng):
    eta = _cell3(rng)
    c4 = triple_cell(eta, eta, Refl(eta))
    c5 = triple_cell(c4, c4, Trans(Refl(c4), Symm(Refl(c4))))
    c6 = triple_cell(c5, c5, Refl(c5))
    for d, c in ((4, c4), (5, c5), (6, c6)):
        packed = pack(d, c)
        assert sigma_boundary(packed)[0] == realize(d - 1, cell_boundary(c)[0])
        assert sigma_boundary(packed)[1] == realize(d - 1, cell_boundary(c)[1])


def test_pack_rejects_nonparallel(rng):
    eta = _cell3(rng)
    other = _cell3(rng)
    assert not parallel(eta, other)  # distinct random roots
    bad = RTowerCell(4, (eta, other, Refl(eta)))
    with pytest.raises(ParallelismViolation):
        pack(4, bad)


def test_pack_is_realize_on_4_to_6(rng):
    eta = _cell3(rng)
    c4 = triple_cell(eta, eta, Refl(eta))
    c5 = triple_cell(c4, c4, Trans(Refl(c4), Symm(Refl(c4))))
    c6 = triple_cell(c5, c5, Symm(Refl(c5)))
    for d, c in ((4, c4), (5, c5), (6, c6)):
        assert pack(d, c) == realize(d, c)
    for d, c in ((3, eta), (7, triple_cell(c6, c6, Refl(c6)))):
        with pytest.raises(IllFormed, match="pack is defined for dimensions 4..6"):
            pack(d, c)


def test_realize_rejects_nonparallel_above_6(rng):
    # parallelism used to be rechecked only by the packaging maps at 4..6
    x, y = _cell3(rng), _cell3(rng)
    for _ in range(3):
        x = triple_cell(x, x, Refl(x))
        y = triple_cell(y, y, Refl(y))
    assert x.dim == 6 and not parallel(x, y)
    with pytest.raises(ParallelismViolation):
        realize(7, RTowerCell(7, (x, y, Refl(x))))


def _mismatched_joint(a, b):
    # ends (a, a) if the inner joints went unchecked; both inner joints differ
    return Trans(Trans(Refl(a), Refl(b)), Trans(Refl(b), Refl(a)))


def test_triple_cell_checks_inner_joints(rng):
    eta = _cell3(rng)
    c4 = triple_cell(eta, eta, Refl(eta))
    other = triple_cell(eta, eta, Symm(Refl(eta)))
    h = _mismatched_joint(c4, other)  # builds: no check at construction
    with pytest.raises(EndpointMismatch):
        triple_cell(c4, c4, h)


def test_sigma_boundary_checks_inner_joints(rng):
    eta = _cell3(rng)
    c4 = triple_cell(eta, eta, Refl(eta))
    other = triple_cell(eta, eta, Symm(Refl(eta)))
    bad = SigmaCell(5, _mismatched_joint(realize(4, c4), realize(4, other)))
    with pytest.raises(EndpointMismatch):
        sigma_boundary(bad)


def test_triple_cell_validates(rng):
    eta = _cell3(rng)
    with pytest.raises(Exception):
        triple_cell(eta, eta, Refl(_cell3(rng)))


# --- realization ------------------------------------------------------------

def test_realize_identity_low_dims(rng):
    c0 = explicit_cell(0, gen_term(rng, 6))
    assert realize(0, c0) is c0
    c3 = _cell3(rng)
    assert realize(3, c3) is c3
    # there the image is the cell, so there is no boundary to compare
    for n, c in ((0, c0), (3, c3)):
        with pytest.raises(IllFormed, match="need dimension >= 4"):
            realize_boundary_check(n, c)


def test_realize_unfolds_one_layer(rng):
    base = _cell3(rng)
    u = base
    for _ in range(3):  # lift to dimension 6
        u = triple_cell(u, u, Refl(u))
    h = gen_hd_tree(rng, u, 3)
    c7 = triple_cell(u, u, Trans(Refl(u), h))
    image = realize(7, c7)
    expected = SigmaCell(7, Trans(Refl(realize(6, u)),
                                    hd_map(lambda c: realize(6, c), h)))
    assert image == expected


def test_realize_boundary_random_cells():
    rng = random.Random(3)
    for dim in range(4, 10):
        for _ in range(30):
            cell = gen_rtower_cell(rng, dim)
            assert realize_boundary_check(dim, cell)


def test_realize_boundary_reflexive_to_dim_10(rng):
    cell = _cell3(rng)
    for dim in range(4, 11):
        cell = triple_cell(cell, cell, Refl(cell))
        assert realize_boundary_check(dim, cell)


def test_realize_dim9_pentagon_tower(rng):
    # nested reflexive triples over a pentagon 3-cell, realized at dimension 9
    p, q, r, s = gen_composable_seqs(rng, 4, allow_empty=False)
    cell = explicit_cell(3, Pentagon(p, q, r, s))
    for dim in range(4, 10):
        cell = triple_cell(cell, cell, Refl(cell))
    assert realize_boundary_check(9, cell)
    image = realize(9, cell)
    assert image.dim == 9 and sigma_boundary(image)[0] == sigma_boundary(image)[1]


def test_realize_boundary_detects_corruption(rng):
    eta = _cell3(rng)
    c4 = triple_cell(eta, eta, Refl(eta))
    other = triple_cell(eta, eta, Symm(Refl(eta)))
    # cached endpoint x disagrees with the derivation datum
    corrupted = RTowerCell(5, (c4, c4, Refl(other)))
    assert not realize_boundary_check(5, corrupted)


def test_reflexive_shortcut_still_validates():
    # a cell parallel to itself is still checked: its boundary must compute
    p = span_beta_seq()  # p does not compose with itself
    x = RTowerCell(3, Pentagon(p, p, p, p))
    with pytest.raises(EndpointMismatch):
        parallel(x, x)
    with pytest.raises(EndpointMismatch):
        triple_cell(x, x, Refl(x))
    with pytest.raises(EndpointMismatch):
        realize(4, RTowerCell(4, (x, x, Refl(x))))


def _copy(c):
    return serialize.loads(serialize.dumps(c))


def test_equal_but_distinct_ends_realize_the_same():
    rng = random.Random(5)
    for dim in range(4, 10):
        for _ in range(2):
            cell = gen_rtower_cell(rng, dim)
            x, _, h = cell.payload
            y = _copy(x)
            assert y == x and y is not x
            copied = triple_cell(x, y, h)
            assert realize(dim, copied) == realize(dim, cell)
            assert realize_boundary_check(dim, copied) is realize_boundary_check(dim, cell)


def test_boundary_check_compares_each_end(rng):
    eta = _cell3(rng)
    c4 = triple_cell(eta, eta, Refl(eta))
    other = triple_cell(eta, eta, Symm(Refl(eta)))
    # the cached ends disagree with the derivation datum at both ends, at the
    # source only or at the target only; an equal copy of an end changes nothing
    for x, y in ((c4, c4), (c4, _copy(c4)), (c4, other), (other, c4)):
        assert not realize_boundary_check(5, RTowerCell(5, (x, y, Refl(other))))
    assert realize_boundary_check(5, RTowerCell(5, (other, _copy(other), Refl(other))))


def test_realization_pin():
    # serialized realizations and boundary verdicts of generated cells, pinned
    # to the value computed before the reflexive-triple shortcuts, with the
    # derivation tags renamed to those of the shared Refl/Symm/Trans and each
    # SigmaCell of dimension <= 3 written as the RTowerCell it realizes to
    rng = random.Random(4242)
    digest = hashlib.sha256()
    verdicts = []
    for dim in range(4, 11):
        for _ in range(5):
            cell = gen_rtower_cell(rng, dim)
            digest.update(serialize.dumps(realize(dim, cell)).encode())
            verdicts.append(realize_boundary_check(dim, cell))
            digest.update(b"1" if verdicts[-1] else b"0")
    assert all(verdicts) and len(verdicts) == 35
    assert digest.hexdigest() == (
        "1731c556ee77c196466a536078f4753901964784e70224f6c7409fab7033954c")


# --- 0-truncation -----------------------------------------------------------

def test_pi0_reflexive():
    seq = pi0_equiv(SPAN_SOURCE, SPAN_SOURCE, 10)
    assert seq is not None and seq.source == seq.target == SPAN_SOURCE


def test_pi0_span_zigzag():
    seq = pi0_equiv(SPAN_SOURCE, SPAN_TARGET, 100)
    assert seq is not None
    assert seq.source == SPAN_SOURCE and seq.target == SPAN_TARGET
    assert SPAN_NF in seq.terms  # the zigzag passes through the normal form
    assert validate_seq(seq)


def test_pi0_not_found():
    assert pi0_equiv(Var(0), Var(1), 10) is None


def test_pi0_fuel():
    omega = App(Lam(App(Var(0), Var(0))), Lam(App(Var(0), Var(0))))
    with pytest.raises(FuelExhausted):
        pi0_equiv(omega, Var(0), 20)


def test_pi0_generated_pairs(rng):
    for _ in range(20):
        m, n = gen_convertible_pair(rng)
        seq = pi0_equiv(m, n, 2000)
        assert seq is not None
        current = m
        for s in seq.steps:
            current = apply_step(current, s)
        assert current == n
    for _ in range(20):
        m, n = gen_separated_pair(rng)
        assert pi0_equiv(m, n, 2000) is None
