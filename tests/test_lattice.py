import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintic import lattice
from quintic.lattice import (
    BoxContainmentError,
    E,
    H,
    K,
    ZERO,
    DivClass,
    canonical_class,
    delta,
    enumerate_roots,
    exceptional,
    intersect,
    is_root,
    is_weyl_stable,
    line_through,
    minus_one_classes,
    reflect,
    simple_roots,
    weyl_group_elements,
    weyl_orbit,
)

div_classes = st.tuples(*[st.integers(-6, 6)] * 5).map(DivClass)


def explicit_roots():
    """Independent oracle: the 20 roots of A4 written out by hand."""
    roots = set()
    for i, j in itertools.combinations((1, 2, 3, 4), 2):
        roots.add(E[i] - E[j])
        roots.add(E[j] - E[i])
    for i, j, l in itertools.combinations((1, 2, 3, 4), 3):
        d = H - E[i] - E[j] - E[l]
        roots.add(d)
        roots.add(-d)
    return roots


def explicit_minus_one():
    """Independent oracle: the 4 exceptional classes and the 6 lines."""
    classes = {E[i] for i in (1, 2, 3, 4)}
    for i, j in itertools.combinations((1, 2, 3, 4), 2):
        classes.add(H - E[i] - E[j])
    return classes


def test_intersection_form_on_basis():
    assert intersect(H, H) == 1
    for i in (1, 2, 3, 4):
        assert intersect(E[i], E[i]) == -1
        assert intersect(H, E[i]) == 0
    assert intersect(E[1], E[2]) == 0


def test_canonical_class_values():
    assert canonical_class() == K
    assert intersect(K, K) == 5
    assert intersect(-K, -K) == 5
    assert intersect(K, H) == -3
    for i in (1, 2, 3, 4):
        assert intersect(K, E[i]) == -1


def test_constructors():
    assert exceptional(2) == E[2]
    assert line_through() == H
    assert line_through(1) == H - E[1]
    assert line_through(1, 2) == H - E[1] - E[2]
    assert delta(1, 2) == E[1] - E[2]
    assert delta(1, 3, 4) == H - E[1] - E[3] - E[4]


def test_json_round_trip():
    d = delta(1, 3, 4)
    assert d.to_json() == [1, 1, 0, 1, 1]
    assert DivClass.from_json(d.to_json()) == d
    with pytest.raises(ValueError):
        DivClass.from_json([1, 2, 3])


def test_enumerate_roots_matches_explicit_list():
    roots = enumerate_roots()
    assert roots == explicit_roots()
    assert len(roots) == 20
    assert delta(1, 2) in roots
    assert delta(1, 2, 3) in roots
    assert -delta(1, 2) in roots
    assert frozenset(-r for r in roots) == roots


def test_minus_one_classes_match_explicit_list():
    found = minus_one_classes()
    assert found == explicit_minus_one()
    assert len(found) == 10
    assert E[3] in found
    assert line_through(1, 2) in found


def test_enumerations_are_computed_once():
    assert enumerate_roots() is enumerate_roots()
    assert minus_one_classes() is minus_one_classes()


@pytest.mark.parametrize("enumerate", [enumerate_roots, minus_one_classes])
def test_enumeration_box_too_small_raises(monkeypatch, enumerate):
    # the box check is an always-on error, not an assert
    monkeypatch.setattr(lattice, "_BOX_BOUND", 1)
    enumerate.cache_clear()
    try:
        with pytest.raises(BoxContainmentError):
            enumerate()
    finally:
        enumerate.cache_clear()


def test_reflect_simple_root_transposes_exceptionals():
    # permutation oracle: reflection in e_i - e_{i+1} swaps e_i and e_{i+1}
    for i in (1, 2, 3):
        r = delta(i, i + 1)
        assert reflect(r, E[i]) == E[i + 1]
        assert reflect(r, E[i + 1]) == E[i]
        assert reflect(r, H) == H
        others = {1, 2, 3, 4} - {i, i + 1}
        for j in others:
            assert reflect(r, E[j]) == E[j]


def test_reflect_cremona_root():
    # reflection in h-e1-e2-e3 acts as the quadratic transformation based
    # at the first three points
    r = delta(1, 2, 3)
    assert reflect(r, H) == 2 * H - E[1] - E[2] - E[3]
    assert reflect(r, E[1]) == H - E[2] - E[3]
    assert reflect(r, E[2]) == H - E[1] - E[3]
    assert reflect(r, E[3]) == H - E[1] - E[2]
    assert reflect(r, E[4]) == E[4]


def test_reflect_fixes_K_and_negates_root():
    for r in enumerate_roots():
        assert reflect(r, K) == K
        assert reflect(r, r) == -r


def test_reflect_rejects_non_root():
    with pytest.raises(ValueError):
        reflect(H, E[1])


@given(div_classes, div_classes)
def test_intersection_symmetric(d1, d2):
    assert intersect(d1, d2) == intersect(d2, d1)


@given(div_classes, div_classes, div_classes, st.integers(-4, 4))
def test_intersection_bilinear(d1, d2, d3, n):
    assert intersect(d1 + n * d2, d3) == intersect(d1, d3) + n * intersect(d2, d3)


@settings(max_examples=60)
@given(st.sampled_from(sorted(enumerate_roots(), key=lambda d: d.coeffs)), div_classes, div_classes)
def test_reflection_preserves_form(r, d1, d2):
    assert intersect(reflect(r, d1), reflect(r, d2)) == intersect(d1, d2)


@settings(max_examples=60)
@given(st.sampled_from(sorted(enumerate_roots(), key=lambda d: d.coeffs)), div_classes)
def test_reflection_involutive(r, d):
    assert reflect(r, reflect(r, d)) == d


def test_weyl_orbit_of_one_root_is_all_roots():
    assert weyl_orbit({delta(1, 2)}) == enumerate_roots()


def test_weyl_orbit_of_each_simple_root():
    for r in simple_roots():
        assert weyl_orbit({r}) == enumerate_roots()


def test_weyl_group_has_order_120():
    assert len(weyl_group_elements()) == 120


def test_weyl_stability_of_pushforward_generators():
    stable = {H} | {E[i] - K - H for i in (1, 2, 3, 4)}
    assert is_weyl_stable(stable)
    assert not is_weyl_stable({H})
    assert is_weyl_stable({ZERO})
    assert is_weyl_stable(enumerate_roots())


def test_weyl_orbit_of_h_is_the_block_class_set():
    assert weyl_orbit({H}) == {H} | {E[i] - K - H for i in (1, 2, 3, 4)}


def test_weyl_orbit_of_exceptional_is_all_minus_one_classes():
    assert weyl_orbit({E[1]}) == minus_one_classes()


def test_weyl_orbit_fixes_canonical_class():
    assert weyl_orbit({K}) == {K}
