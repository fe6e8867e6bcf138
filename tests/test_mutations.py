import re
from fractions import Fraction

import pytest

from quintic.euler import (
    KClass,
    chi_line,
    euler_pair,
    f_tilde_class,
    line_bundle_class,
    structure_class,
    twist,
)
from quintic.grassmannian import (
    GR25_LEFSCHETZ,
    chi_vector,
    kapranov_collection,
    lefschetz_objects,
    rhom_chi,
)
from quintic.lattice import E, H, K, ZERO, DivClass
from quintic.mutations import (
    SODWDP_DERIVATION,
    ExcCollection,
    MutationError,
    UnmatchedCurveError,
    assert_unitriangular,
    contraction_compatibility,
    gram,
    hermite_normal_form,
    is_unitriangular,
    left_mutate,
    replay,
    right_mutate,
    run_sodwdp_derivation,
    run_walk,
    sodwdp_start_collection,
    sodwdp_target_collection,
)
from quintic.suites import suite_mutations
from quintic.surfaces import SurfaceType, catalog, surface_type


def span(c):
    return hermite_normal_form([x.int_vector() for x in c.classes()])


def line_collection(*divisors):
    objects = tuple(
        (f"D{i}", line_bundle_class(d)) for i, d in enumerate(divisors)
    )
    return ExcCollection(objects, euler_pair)


def test_gram_of_single_line_bundle():
    c = line_collection(H)
    assert gram(c) == [[1]]
    assert is_unitriangular(c)


def test_gram_matches_chi_line():
    c = line_collection(-H, E[1] - H, ZERO)
    g = gram(c)
    divisors = [-H, E[1] - H, ZERO]
    for i, d1 in enumerate(divisors):
        for j, d2 in enumerate(divisors):
            assert g[i][j] == chi_line(d2 - d1)


def test_is_unitriangular_reads_only_the_triangle():
    # the classes are their slot numbers, and a pairing above the diagonal raises
    calls = []

    def collection(entries):
        def pairing(x, y):
            if x < y:
                raise AssertionError(f"pairing ({x}, {y}) lies above the diagonal")
            calls.append((x, y))
            return entries.get((x, y), int(x == y))

        return ExcCollection(tuple((f"E{k}", k) for k in range(5)), pairing)

    assert is_unitriangular(collection({}))
    assert len(calls) == 5 * 6 // 2
    assert not is_unitriangular(collection({(2, 2): -1}))
    assert not is_unitriangular(collection({(3, 1): 2}))


def test_failed_check_names_the_first_broken_entry():
    c = ExcCollection(
        (("O(h)", line_bundle_class(H)), ("O", line_bundle_class(ZERO))), euler_pair
    )
    message = "Gram matrix not unitriangular for ('O(h)', 'O'): chi(O, O(h)) = 3 at (1, 0)"
    with pytest.raises(MutationError, match=re.escape(message)):
        assert_unitriangular(c)


def test_start_and_target_collections_unitriangular():
    assert is_unitriangular(sodwdp_start_collection())
    assert is_unitriangular(sodwdp_target_collection())


def test_right_mutation_on_blowup_pair():
    # [O_{e1}(-1)] = [O(e1)] - [O]; mutating it past O(-h) lands on the
    # class of O(e1-h) up to sign
    o_e1_minus1 = line_bundle_class(E[1]) - line_bundle_class(ZERO)
    c = ExcCollection(
        (("O_e1(-1)", o_e1_minus1), ("O(-h)", line_bundle_class(-H))), euler_pair
    )
    mutated = right_mutate(c, 0)
    assert mutated.classes()[0] == line_bundle_class(-H)
    expected = line_bundle_class(E[1] - H)
    assert mutated.classes()[1] in (expected, -expected)


def test_right_mutation_of_orthogonal_pair_transposes():
    # chi(O(e4-h), O(e3-h)) = chi_line(e3-e4) = 0
    c = line_collection(E[4] - H, E[3] - H)
    assert euler_pair(*c.classes()) == 0
    mutated = right_mutate(c, 0)
    assert mutated.classes()[0] == line_bundle_class(E[3] - H)
    assert mutated.classes()[1] == -line_bundle_class(E[4] - H)


def test_mutation_past_whole_collection_is_anticanonical_twist():
    c = sodwdp_start_collection()
    final = replay(c, [{"kind": "transpose-to-end", "index": 0}], lambda c: None)
    moved = final.classes()[-1]
    expected = line_bundle_class(-K - H)  # O(-h) twisted by O(-K)
    assert moved in (expected, -expected)
    # and the same at the level of the twist map
    assert expected == twist(line_bundle_class(-H), -K)


def test_left_then_right_restores_pair():
    c = sodwdp_start_collection()
    for i in range(len(c) - 1):
        back = left_mutate(right_mutate(c, i), i)
        assert back.classes() == c.classes()


def test_right_then_left_restores_pair():
    c = sodwdp_target_collection()
    for i in range(len(c) - 1):
        back = right_mutate(left_mutate(c, i), i)
        assert back.classes() == c.classes()


def test_index_out_of_range():
    c = line_collection(H, ZERO)
    with pytest.raises(MutationError):
        right_mutate(c, 1)
    with pytest.raises(MutationError):
        left_mutate(c, -1)


def test_empty_script_is_identity():
    c = sodwdp_start_collection()
    assert replay(c, [], lambda c: None).classes() == c.classes()


def test_script_prefix_moves_first_bundle_to_end():
    c = sodwdp_start_collection()
    out = replay(c, SODWDP_DERIVATION[:1], lambda c: None)
    expected = line_bundle_class(-K - H)
    assert out.classes()[-1] in (expected, -expected)
    assert out.classes()[0] == line_bundle_class(E[4] - H)


def test_full_derivation_reaches_target():
    report = run_sodwdp_derivation()
    assert report == {"slots": (True,) * 7, "preserves_span": True}


def test_walk_one_step_short_misses_a_slot():
    start, target = sodwdp_start_collection(), sodwdp_target_collection()
    slots = run_walk(
        start, SODWDP_DERIVATION[:-1], target, KClass.int_vector, assert_unitriangular
    )
    assert len(slots) == 7 and not all(slots)
    target = ExcCollection(lefschetz_objects(), rhom_chi)
    slots = run_walk(
        kapranov_collection(), GR25_LEFSCHETZ[:-1], target, chi_vector, assert_unitriangular
    )
    assert len(slots) == 10 and not all(slots)


def test_walk_calls_check_on_start_and_every_atomic_mutation():
    seen = []
    start = sodwdp_start_collection()
    run_walk(start, SODWDP_DERIVATION, start, KClass.int_vector, seen.append)
    # five moves to the end of a seven-object collection, then one left mutation
    assert seen[0] is start
    assert len(seen) == 1 + 5 * 6 + 1


def test_walk_rejects_a_target_of_another_length():
    start = sodwdp_start_collection()
    with pytest.raises(MutationError):
        run_walk(start, (), line_collection(H), KClass.int_vector, assert_unitriangular)


def test_derivation_mismatch_is_a_false_check(monkeypatch):
    import quintic.mutations

    monkeypatch.setattr(quintic.mutations, "SODWDP_DERIVATION", SODWDP_DERIVATION[:-1])
    details = suite_mutations(0)
    assert details.pop("derivation reaches target (numerical shadow)") is False
    assert len(details) == 13 and all(details.values())


def test_derivation_keeps_unitriangular_and_span():
    c = sodwdp_start_collection()
    start_span = span(c)
    seen = [c]

    def check(col):
        assert_unitriangular(col)
        seen.append(col)

    final = replay(c, SODWDP_DERIVATION, check)
    assert len(seen) > len(SODWDP_DERIVATION)  # macros expand to atomic steps
    for col in seen:
        assert span(col) == start_span
    assert span(final) == start_span


def test_final_left_mutation_builds_extension_class():
    c = sodwdp_start_collection()
    out = replay(c, SODWDP_DERIVATION, lambda c: None)
    assert out.classes()[1] in (f_tilde_class(), -f_tilde_class())
    assert f_tilde_class() == line_bundle_class(-K - H) + line_bundle_class(H)


def test_orthogonal_transposition_preserves_class_multiset():
    c = line_collection(E[4] - H, E[3] - H)
    mutated = right_mutate(c, 0)

    def normalize(cls):
        vec = cls.int_vector()
        sign = next((1 if x > 0 else -1 for x in vec if x != 0), 1)
        return tuple(sign * x for x in vec)

    assert sorted(normalize(x) for x in c.classes()) == sorted(
        normalize(x) for x in mutated.classes()
    )
    total_before = sum(
        (normalize(x)[0] for x in c.classes())
    )  # rank is sign-normalized
    total_after = sum((normalize(x)[0] for x in mutated.classes()))
    assert total_before == total_after


def test_gr25_script_shape():
    kinds = [step["kind"] for step in GR25_LEFSCHETZ]
    assert kinds.count("transpose-to-end") == 2
    assert kinds.count("right") == 5


def test_intermediate_seven_object_collection_unitriangular():
    # the collection reached after the first move: O(e4-h), ..., O(e1-h),
    # O, O(h), O(-K-h)
    divisors = [E[i] - H for i in (4, 3, 2, 1)] + [ZERO, H, -K - H]
    assert is_unitriangular(line_collection(*divisors))


def test_hermite_normal_form_examples():
    assert hermite_normal_form([[2, 0], [0, 3]]) == ((2, 0), (0, 3))
    assert hermite_normal_form([[1, 2], [3, 4]]) == ((1, 0), (0, 2))
    assert hermite_normal_form([[0, 0], [0, 0]]) == ()
    assert hermite_normal_form([[4], [6]]) == ((2,),)
    assert hermite_normal_form([[-1, 1]]) == ((1, -1),)
    # span is invariant under integer row operations
    assert hermite_normal_form([[1, 2], [3, 4]]) == hermite_normal_form(
        [[3, 4], [4, 6]]
    )


def test_contraction_compatibility_all_types():
    for t in catalog():
        assert contraction_compatibility(t)


def test_contraction_compatibility_II3():
    assert contraction_compatibility(surface_type("II.3"))


def test_contraction_compatibility_smooth_is_vacuous():
    assert contraction_compatibility(surface_type("I.1"))


def test_contraction_compatibility_unmatched_curve():
    curve = 2 * H - E[1] - E[2] - E[3] - E[4] - K
    fake = SurfaceType("fake", frozenset({curve}), ())
    with pytest.raises(UnmatchedCurveError, match=r"fake: \[5, 2, 2, 2, 2\]"):
        contraction_compatibility(fake)


def test_spherical_class_numerics():
    # the class of O_C(-1) on a (-2)-curve: invisible to the pushforward
    # (chi against O vanishes both ways) but chi with itself is 2
    o = structure_class()
    curve = E[1] - E[2]
    cls = line_bundle_class(E[1] - K - H) - line_bundle_class(E[2] - K - H)
    assert cls.rank == 0
    assert cls.c1 == curve
    assert cls.c1.dot(K) == 0
    assert euler_pair(o, cls) == 0
    assert euler_pair(cls, o) == 0
    assert euler_pair(cls, cls) == 2
