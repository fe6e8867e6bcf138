from collections import Counter

import pytest

from quintic.lattice import E, H, K, delta, enumerate_roots
from quintic.surfaces import (
    ChainStructureError,
    InconsistentTypeError,
    SurfaceType,
    a3_block_classes,
    a3_chains,
    ade_type,
    catalog,
    surface_type,
    z_scheme,
)

# singular-type table: label -> (curve set, chain lengths)
TABLE = {
    "I.1": (set(), ()),
    "I.2": ({delta(1, 2, 3)}, (1,)),
    "II.1": ({delta(1, 2)}, (1,)),
    "II.2": ({delta(1, 2), delta(1, 2, 3)}, (1, 1)),
    "II.3": ({delta(1, 2), delta(1, 3, 4)}, (2,)),
    "III.1": ({delta(1, 2), delta(3, 4)}, (1, 1)),
    "III.2": ({delta(1, 2), delta(3, 4), delta(1, 2, 3)}, (1, 2)),
    "IV.1": ({delta(1, 2), delta(2, 3)}, (2,)),
    "IV.2": ({delta(1, 2, 3), delta(1, 2), delta(2, 3)}, (1, 2)),
    "IV.3": ({delta(1, 2), delta(2, 3), delta(1, 2, 4)}, (3,)),
    "V.1": ({delta(1, 2), delta(2, 3), delta(3, 4)}, (3,)),
    "V.2": ({delta(1, 2), delta(2, 3), delta(3, 4), delta(1, 2, 3)}, (4,)),
}

Z_LENGTHS = {
    "I.1": (1, 1, 1, 1, 1),
    "I.2": (1, 1, 1, 2),
    "II.1": (1, 1, 1, 2),
    "II.2": (1, 2, 2),
    "II.3": (1, 1, 3),
    "III.1": (1, 2, 2),
    "III.2": (2, 3),
    "IV.1": (1, 1, 3),
    "IV.2": (2, 3),
    "IV.3": (1, 4),
    "V.1": (1, 4),
    "V.2": (5,),
}


def test_catalog_matches_table():
    types = catalog()
    assert [t.label for t in types] == list(TABLE)
    for t in types:
        curves, ade = TABLE[t.label]
        assert t.minus_two_curves == frozenset(curves)
        assert t.ade == ade


def test_catalog_spot_values():
    assert surface_type("II.3").minus_two_curves == {
        E[1] - E[2],
        H - E[1] - E[3] - E[4],
    }
    assert surface_type("II.3").ade == (2,)
    assert surface_type("I.1").minus_two_curves == frozenset()
    assert surface_type("I.1").ade == ()
    assert surface_type("V.2").ade == (4,)


def test_all_catalog_curves_are_roots():
    roots = enumerate_roots()
    for t in catalog():
        assert t.minus_two_curves <= roots


def test_ade_type_examples():
    assert ade_type({delta(1, 2), delta(1, 2, 3)}) == (1, 1)
    assert ade_type({delta(1, 2), delta(2, 3), delta(1, 2, 4)}) == (3,)
    assert ade_type(set()) == ()


def test_ade_type_rejects_non_root():
    with pytest.raises(ChainStructureError):
        ade_type({H})


def test_ade_type_rejects_pair_meeting_twice():
    with pytest.raises(ChainStructureError):
        ade_type({delta(1, 2), delta(2, 1)})


def test_ade_type_rejects_cycle():
    # e2-e3, e3-e4 and e4-e2 form a triangle
    with pytest.raises(ChainStructureError):
        ade_type({delta(2, 3), delta(3, 4), E[4] - E[2]})


def test_z_scheme_lengths():
    for t in catalog():
        assert z_scheme(t.ade) == Z_LENGTHS[t.label]
    assert z_scheme(surface_type("I.1").ade) == (1, 1, 1, 1, 1)
    assert z_scheme(surface_type("V.2").ade) == (5,)
    assert z_scheme(surface_type("III.2").ade) == (2, 3)


def test_a3_block_classes():
    assert a3_block_classes() == (
        H,
        E[4] - K - H,
        E[3] - K - H,
        E[2] - K - H,
        E[1] - K - H,
    )


def test_a3_chains_smooth_type():
    chains = a3_chains(surface_type("I.1"))
    assert len(chains) == 5
    assert all(len(c) == 1 for c in chains)


def test_a3_chains_type_II3():
    chains = a3_chains(surface_type("II.3"))
    assert sorted(len(c) for c in chains) == [1, 1, 3]
    (long_chain,) = [c for c in chains if len(c) == 3]
    assert long_chain == (H, E[2] - K - H, E[1] - K - H)
    # edge labels: first step is h-e1-e3-e4, second is e1-e2
    assert long_chain[1] - long_chain[0] == delta(1, 3, 4)
    assert long_chain[2] - long_chain[1] == delta(1, 2)


def test_a3_chains_type_V2_is_single_chain():
    chains = a3_chains(surface_type("V.2"))
    assert len(chains) == 1
    assert chains[0] == (
        H,
        E[4] - K - H,
        E[3] - K - H,
        E[2] - K - H,
        E[1] - K - H,
    )


def test_a3_chains_rejects_type_whose_chains_miss_the_z_scheme():
    # no curves gives five length-1 chains, but ade (1,) asks for 1+1+1+2
    t = SurfaceType("bad", frozenset(), (1,))
    with pytest.raises(InconsistentTypeError):
        a3_chains(t)


def test_a3_chain_lengths_match_z_scheme_everywhere():
    for t in catalog():
        chains = a3_chains(t)
        assert Counter(len(c) for c in chains) == Counter(z_scheme(t.ade))
        assert sum(len(c) for c in chains) == 5


def test_chain_steps_are_effective_curves():
    for t in catalog():
        for chain in a3_chains(t):
            for a, b in zip(chain, chain[1:]):
                assert b - a in t.minus_two_curves
