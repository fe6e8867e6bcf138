from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quintic.euler import (
    HilbPoly,
    KClass,
    chi_line,
    euler_pair,
    f_tilde_class,
    hilbert_poly,
    line_bundle_class,
    normal_bundle_cherns,
    p_class,
    point_class,
    structure_class,
    twist,
    verify_chi_identities,
)
from quintic.lattice import E, H, K, ZERO, DivClass
from quintic.suites import suite_chern

H2 = HilbPoly(Fraction(5), Fraction(10), Fraction(5))  # 5(t+1)^2
H3 = HilbPoly(Fraction(5, 2), Fraction(11, 2), Fraction(3))  # (t+1)(5t+6)/2

div_classes = st.tuples(*[st.integers(-5, 5)] * 5).map(DivClass)


def _kclass(rank: int, c1: DivClass, extra: int) -> KClass:
    # ch2 differs from c1^2/2 by an integer on any class of an actual object
    return KClass(rank, c1, c1.square() + 2 * extra)


k_classes = st.builds(
    _kclass,
    st.integers(-10, 10),
    st.tuples(*[st.integers(-8, 8)] * 5).map(DivClass),
    st.integers(-20, 20),
)


def test_chi_line_values():
    assert chi_line(ZERO) == 1
    assert chi_line(H) == 3
    assert chi_line(-K - 2 * H) == -1
    assert chi_line(-K) == 6
    assert chi_line(K) == 1
    assert chi_line(E[1]) == 1
    assert chi_line(H - E[1]) == 2
    assert chi_line(H - E[1] - E[2]) == 1


def test_kclass_rejects_bad_denominator():
    # ch2 = 1/3 has no integer 2 ch2
    with pytest.raises(ValueError):
        KClass.from_json({"rank": 1, "c1": [0, 0, 0, 0, 0], "ch2": [1, 3]})


def test_kclass_rejects_wrong_parity():
    with pytest.raises(ValueError):
        KClass(0, ZERO, 1)


def test_kclass_json_round_trip():
    f = f_tilde_class()
    assert f.to_json()["ch2"] == [1, 2]
    assert KClass.from_json(f.to_json()) == f


@given(st.integers(-40, 40), st.integers(-12, 12).filter(bool), st.sampled_from([ZERO, H]))
@example(2, 4, H)
@example(2, 4, ZERO)
@example(1, -2, H)
@example(1, -2, ZERO)
@example(1, 3, ZERO)
@example(3, 6, H)
@example(3, 6, ZERO)
@example(-4, -2, ZERO)
def test_kclass_wire_format_is_the_reduced_ch2_pair(num, den, c1):
    # [num, den] is accepted exactly when num/den reduces to a denominator
    # of 1 or 2 whose 2 ch2 has the parity of c1^2, and goes out reduced
    record = {"rank": 1, "c1": c1.to_json(), "ch2": [num, den]}
    ch2 = Fraction(num, den)
    if ch2.denominator not in (1, 2) or (2 * ch2 - c1.square()) % 2:
        with pytest.raises(ValueError):
            KClass.from_json(record)
        return
    x = KClass.from_json(record)
    assert x.twice_ch2 == 2 * ch2
    assert x.to_json()["ch2"] == [ch2.numerator, ch2.denominator]


@pytest.mark.parametrize(
    "record",
    [
        1,
        {"rank": True, "c1": [0, 0, 0, 0, 0], "ch2": [0, 1]},
        {"rank": 1, "c1": [0, 0, 0, 0, 0], "ch2": [1, 0]},
        {"rank": 1, "c1": [0, 0, 0, 0, 0], "ch2": [1]},
        {"rank": 1, "c1": [0, 0, 0, 0, 0], "ch2": [1.0, 2]},
        {"rank": 1, "ch2": [0, 1]},
    ],
)
def test_kclass_from_json_rejects_malformed_records(record):
    with pytest.raises(ValueError):
        KClass.from_json(record)


def test_line_bundle_and_point_classes():
    assert line_bundle_class(H) == KClass(1, H, 1)
    assert point_class() == KClass(0, ZERO, 2)
    # O_C(-1) on a curve class C as the difference [O(C)] - [O]
    c = E[1] - E[2]
    diff = line_bundle_class(c) - line_bundle_class(ZERO)
    assert diff == KClass(0, c, -2)


def test_f_tilde_and_p_classes():
    assert f_tilde_class() is f_tilde_class()
    assert p_class() is p_class()
    f = f_tilde_class()
    assert (f.rank, f.c1, f.twice_ch2) == (2, -K, 1)
    p = p_class()
    assert (p.rank, p.c1, p.twice_ch2) == (5, -3 * K, 5)


def test_hilbert_polys_reproduce_published_values():
    assert hilbert_poly(f_tilde_class()) == H2
    assert hilbert_poly(line_bundle_class(H)) == H3
    assert hilbert_poly(p_class()) == 5 * H3
    assert H2(-1) == 0
    assert H3(-1) == 0
    assert H2(0) == 5
    assert hilbert_poly(structure_class()) == HilbPoly(
        Fraction(5, 2), Fraction(5, 2), Fraction(1)
    )


def test_euler_pair_examples():
    o = structure_class()
    assert euler_pair(o, o) == 1
    assert euler_pair(f_tilde_class(), f_tilde_class()) == 1
    a = line_bundle_class(H)
    b = line_bundle_class(E[1] - K - H)
    assert euler_pair(a, b) == chi_line(E[1] - K - 2 * H)
    assert euler_pair(point_class(), point_class()) == 0


@given(div_classes, div_classes)
def test_euler_pair_of_line_bundles_is_chi_of_difference(d1, d2):
    assert euler_pair(line_bundle_class(d1), line_bundle_class(d2)) == chi_line(d2 - d1)


@given(k_classes, k_classes, k_classes)
def test_euler_pair_biadditive(x, y, z):
    assert euler_pair(x + y, z) == euler_pair(x, z) + euler_pair(y, z)
    assert euler_pair(x, y + z) == euler_pair(x, y) + euler_pair(x, z)


@given(k_classes)
def test_hilbert_poly_at_zero_is_chi(c):
    assert hilbert_poly(c)(0) == euler_pair(structure_class(), c)


@given(k_classes, div_classes)
def test_twist_multiplies_chern_characters(x, d):
    t = twist(x, d)
    assert t.rank == x.rank
    assert t.c1 == x.c1 + x.rank * d


@given(div_classes, div_classes)
def test_twist_on_line_bundles_matches_chi_oracle(d1, d2):
    assert twist(line_bundle_class(d1), d2) == line_bundle_class(d1 + d2)


@settings(max_examples=200)
@given(k_classes, k_classes)
def test_serre_symmetry(x, y):
    assert euler_pair(x, y) == euler_pair(y, twist(x, K))


def _fraction_euler_pair(x, y):
    """The earlier rational form of euler_pair, kept as a reference."""
    deg2 = (
        x.rank * Fraction(y.twice_ch2, 2)
        + y.rank * Fraction(x.twice_ch2, 2)
        - x.c1.dot(y.c1)
    )
    deg1 = (x.rank * y.c1 - y.rank * x.c1).dot(K)
    total = deg2 - Fraction(deg1, 2) + x.rank * y.rank
    assert total.denominator == 1
    return total.numerator


wide_k_classes = st.builds(
    _kclass,
    st.integers(-(10**6), 10**6),
    st.tuples(*[st.integers(-(10**6), 10**6)] * 5).map(DivClass),
    st.integers(-(10**9), 10**9),
)
half_k_classes = st.one_of(k_classes, wide_k_classes).filter(
    lambda x: x.twice_ch2 % 2 == 1
)


@settings(max_examples=300)
@given(
    st.one_of(k_classes, wide_k_classes, half_k_classes),
    st.one_of(k_classes, wide_k_classes, half_k_classes),
)
def test_integer_euler_pair_matches_fraction_formula(x, y):
    assert euler_pair(x, y) == _fraction_euler_pair(x, y)


@given(half_k_classes, half_k_classes)
def test_integer_euler_pair_on_half_integer_ch2(x, y):
    assert x.twice_ch2 % 2 == y.twice_ch2 % 2 == 1
    assert euler_pair(x, y) == _fraction_euler_pair(x, y)


def test_chi_identities_on_anchors():
    pt = point_class()
    assert euler_pair(f_tilde_class(), pt) == 2
    assert euler_pair(p_class(), pt) == 5
    assert verify_chi_identities(pt)
    assert verify_chi_identities(structure_class())
    assert verify_chi_identities(f_tilde_class())


def test_chi_identities_on_seeded_random_classes():
    import random

    rng = random.Random(20260808)
    for _ in range(1000):
        c1 = DivClass(tuple(rng.randint(-50, 50) for _ in range(5)))
        g = KClass(rng.randint(-50, 50), c1, c1.square() + 2 * rng.randint(-50, 50))
        assert verify_chi_identities(g)


def test_normal_bundle_cherns():
    tangent, normal, fprime = normal_bundle_cherns()
    assert tangent == KClass(2, -K, -9)  # c2 = 7
    assert normal == KClass(3, -5 * K, 39)  # c2 = 43
    assert (tangent.c2(), normal.c2(), fprime.c2()) == (7, 43, 2)
    assert hilbert_poly(fprime) == H2


def test_fprime_is_the_rank_two_extension_class():
    # stronger than the equal Hilbert polynomials the report checks
    assert normal_bundle_cherns()[2] == f_tilde_class()


def test_tangent_bundle_has_euler_characteristic_zero():
    tangent = normal_bundle_cherns()[0]
    assert euler_pair(structure_class(), tangent) == 0


@given(div_classes)
def test_c2_vanishes_on_line_bundles(d):
    assert line_bundle_class(d).c2() == 0


def test_c2_of_point_and_rank_two_extension():
    assert point_class().c2() == -1
    assert f_tilde_class().c2() == 2


def test_euler_pair_fault_flips_the_three_c2_checks(monkeypatch):
    import quintic.euler

    names = ("c2(T_X) = 7", "c2(N) = 43", "c2(F') = 2")
    assert all(suite_chern(0)[name] for name in names)
    pair = quintic.euler.euler_pair
    monkeypatch.setattr(
        quintic.euler, "euler_pair", lambda x, y: pair(x, y) + x.rank * y.rank
    )
    details = suite_chern(0)
    assert not any(details[name] for name in names)
