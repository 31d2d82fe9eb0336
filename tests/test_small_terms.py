"""Bounded-exhaustive checks: every de Bruijn term up to size 9 with at most
two free variables, against the independent oracle in smallterms.

Seeded samples can miss a defect on a rare small shape, and most defects
show on some small input (the small-scope hypothesis: Jackson, Software
Abstractions, 2006).  The terms are listed by size, so the first failure
named is a smallest one.
"""

import pytest
from smallterms import OutOfFuel, all_terms, nbe

from lamtower.terms import (App, FuelExhausted, Lam, Var, apply_step,
                            find_redexes, normalize)

SIZE, FREE = 9, 2
OMEGA = App(Lam(App(Var(0), Var(0))), Lam(App(Var(0), Var(0))))


@pytest.fixture(scope="module")
def terms():
    return all_terms(SIZE, FREE)


def test_small_term_counts(terms):
    assert len(all_terms(8, FREE)) == 6835
    assert len(terms) == len(set(terms)) == 28544


def test_normalize_agrees_with_the_nbe_oracle(terms):
    # fuel 200 on each side; a term that runs out on either is set aside,
    # and only the looping (\x. x x) (\x. x x) does, on both
    differ, out_of_fuel = [], []
    for t in terms:
        try:
            got, want = normalize(t, 200)[0], nbe(t, FREE, 200)
        except (FuelExhausted, OutOfFuel):
            out_of_fuel.append(t)
            continue
        if got != want:
            differ.append(t)
    assert differ[:1] == [] and out_of_fuel == [OMEGA]
    with pytest.raises(FuelExhausted):
        normalize(OMEGA, 200)
    with pytest.raises(OutOfFuel):
        nbe(OMEGA, FREE, 200)


def test_every_two_one_step_reductions_of_a_term_join(terms):
    # local confluence: the reducts of each term by its distinct redexes all
    # have one normal form (fuel 60), so every pair of them joins
    pairs, split = 0, []
    for t in terms:
        steps = find_redexes(t)
        if len(steps) > 1:
            pairs += len(steps) * (len(steps) - 1) // 2
            if len({normalize(apply_step(t, s), 60)[0] for s in steps}) > 1:
                split.append(t)
    assert split[:1] == [] and pairs == 5208
