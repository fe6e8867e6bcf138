import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintic.lattice import (
    E,
    H,
    K,
    ZERO,
    DivClass,
    delta,
    enumerate_roots,
    is_root,
    is_weyl_stable,
    line_through,
    _reflect,
    minus_one_classes,
    simple_roots,
    weyl_group_elements,
    weyl_orbit,
)
from quintic.surfaces import a3_block_classes

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
    assert H.dot(H) == 1
    for i in (1, 2, 3, 4):
        assert E[i].dot(E[i]) == -1
        assert H.dot(E[i]) == 0
    assert E[1].dot(E[2]) == 0


def test_canonical_class_values():
    assert K.dot(K) == 5
    assert (-K).dot(-K) == 5
    assert K.dot(H) == -3
    for i in (1, 2, 3, 4):
        assert K.dot(E[i]) == -1


def test_constructors():
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
    # JSON true is not the integer 1
    with pytest.raises(ValueError):
        DivClass.from_json([True, 1, 0, 1, 1])
    with pytest.raises(ValueError):
        DivClass.from_json(None)


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


def test_derived_sets_are_complete_on_a_coefficient_box():
    # Reference scan.  For D = a h - b1 e1 - .. - b4 e4 each set fixes
    # s = b1 + .. + b4 and q = b1^2 + .. + b4^2 in terms of a (roots: 3a and
    # a^2 + 2; (-1)-classes: 3a - 1 and a^2 + 1; block classes: 3a - 3 and
    # a^2 - 1).  Cauchy-Schwarz s^2 <= 4q then gives |a| <= 2 and q <= 3, so
    # the |coeff| <= 3 box holds each whole set.
    box = [DivClass(c) for c in itertools.product(range(-3, 4), repeat=5)]
    assert {d for d in box if is_root(d)} == enumerate_roots()
    assert {d for d in box if d.square() == d.dot(K) == -1} == minus_one_classes()
    assert {d for d in box if d.square() == 1 and d.dot(-K) == 3} == set(
        a3_block_classes()
    )


def test_reflect_simple_root_transposes_exceptionals():
    # permutation oracle: reflection in e_i - e_{i+1} swaps e_i and e_{i+1}
    for i in (1, 2, 3):
        r = delta(i, i + 1)
        assert _reflect(E[i], r) == E[i + 1]
        assert _reflect(E[i + 1], r) == E[i]
        assert _reflect(H, r) == H
        others = {1, 2, 3, 4} - {i, i + 1}
        for j in others:
            assert _reflect(E[j], r) == E[j]


def test_reflect_cremona_root():
    # reflection in h-e1-e2-e3 acts as the quadratic transformation based
    # at the first three points
    r = delta(1, 2, 3)
    assert _reflect(H, r) == 2 * H - E[1] - E[2] - E[3]
    assert _reflect(E[1], r) == H - E[2] - E[3]
    assert _reflect(E[2], r) == H - E[1] - E[3]
    assert _reflect(E[3], r) == H - E[1] - E[2]
    assert _reflect(E[4], r) == E[4]


def test_reflect_fixes_K_and_negates_root():
    for r in enumerate_roots():
        assert _reflect(K, r) == K
        assert _reflect(r, r) == -r


@given(div_classes, div_classes)
def test_intersection_symmetric(d1, d2):
    assert d1.dot(d2) == d2.dot(d1)


@given(div_classes, div_classes, div_classes, st.integers(-4, 4))
def test_intersection_bilinear(d1, d2, d3, n):
    assert (d1 + n * d2).dot(d3) == d1.dot(d3) + n * d2.dot(d3)


@settings(max_examples=60)
@given(st.sampled_from(sorted(enumerate_roots(), key=lambda d: d.coeffs)), div_classes, div_classes)
def test_reflection_preserves_form(r, d1, d2):
    assert _reflect(d1, r).dot(_reflect(d2, r)) == d1.dot(d2)


@settings(max_examples=60)
@given(st.sampled_from(sorted(enumerate_roots(), key=lambda d: d.coeffs)), div_classes)
def test_reflection_involutive(r, d):
    assert _reflect(_reflect(d, r), r) == d


def test_weyl_orbit_of_one_root_is_all_roots():
    assert weyl_orbit({delta(1, 2)}) == enumerate_roots()


def test_weyl_orbit_of_each_simple_root():
    for r in simple_roots():
        assert weyl_orbit({r}) == enumerate_roots()


def test_weyl_group_has_order_120():
    assert len(weyl_group_elements()) == 120


def test_weyl_group_elements_are_isometries_fixing_K():
    # each element is its tuple of images of the basis h, e1..e4
    basis = (H, E[1], E[2], E[3], E[4])
    group = weyl_group_elements()
    assert basis in group
    for images in group:
        for x, fx in zip(basis, images):
            assert [fx.dot(fy) for fy in images] == [x.dot(y) for y in basis]
        image_of_k = -3 * images[0] + images[1] + images[2] + images[3] + images[4]
        assert image_of_k == K


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
