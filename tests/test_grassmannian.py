import itertools
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintic.grassmannian import (
    ChiOnly,
    CohProfile,
    HomBundle,
    bott,
    chi_vector,
    clebsch_gordan,
    dual,
    kapranov_collection,
    lefschetz_objects,
    lr_coefficients,
    o,
    pnr_criterion,
    rhom,
    rhom_chi,
    rperp,
    rstar,
    sym_rstar,
    tensor_decompose,
    twist,
    verify_appendix_identities,
    verify_lefschetz,
    weyl_dim,
)


def bundle_rank(x):
    """Reference rank: the Weyl dimensions of each block, summed with
    multiplicity."""
    return sum(m * weyl_dim(g, 2) * weyl_dim(b, 3) for (g, b), m in x.summands)


def count_ssyt(shape, n):
    """Independent oracle: semistandard tableaux of a partition shape with
    entries in 1..n, by direct backtracking."""
    shape = [p for p in shape if p > 0]
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    count = 0
    grid = {}

    def rec(idx):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            grid[(i, j)] = v
            rec(idx + 1)
        grid.pop((i, j), None)

    rec(0)
    return count


def schur_char_2(a, b):
    """Character of L^(a,b) C^2 as a Counter of exponent pairs."""
    return Counter({(a - k, b + k): 1 for k in range(a - b + 1)})


def test_weyl_dim_basics():
    assert weyl_dim((1, 0, 0, 0, 0), 5) == 5
    assert weyl_dim((1, 1, 0, 0, 0), 5) == comb(5, 2)
    assert weyl_dim((2, 0, 0, 0, 0), 5) == comb(6, 2)
    assert weyl_dim((0, 0, 0, 0, 0), 5) == 1
    assert weyl_dim((-2, -2, -2, -2, -2), 5) == 1


def test_weyl_dim_matches_ssyt_count():
    for shape in [(2, 1, 0), (3, 1, 0), (2, 2, 1), (4, 2, 0), (1, 1, 1)]:
        assert weyl_dim(shape, 3) == count_ssyt(shape, 3)
    for shape in [(2, 1, 0, 0, 0), (2, 2, 0, 0, 0), (3, 0, 0, 0, 0)]:
        assert weyl_dim(shape, 5) == count_ssyt(shape, 5)


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim((0, 1), 2)


def test_bott_h0_of_dual_tautological():
    assert bott((1, 0, 0, 0, 0), 5) == pytest.approx(bott((1, 0, 0, 0, 0), 5))
    res = bott((1, 0, 0, 0, 0), 5)
    assert (res.degree, res.weight, res.dim) == (0, (1, 0, 0, 0, 0), 5)


def test_bott_serre_dual_of_o_minus_5():
    res = bott((-5, -5, 0, 0, 0), 5)
    assert (res.degree, res.weight, res.dim) == (6, (-2, -2, -2, -2, -2), 1)


def test_bott_indec_family_vanishes():
    for i in range(1, 7):
        assert bott((2 - i, -i, 0, 0, 0), 5) is None


def test_bott_p4_closed_form():
    # line bundles on P^4: h^0(O(d)) = C(d+4, 4), h^4(O(d)) = C(-d-1, 4)
    for d in range(-12, 13):
        res = bott((d, 0, 0, 0, 0), 5)
        if d >= 0:
            assert res is not None and res.degree == 0
            assert res.dim == comb(d + 4, 4)
        elif d <= -5:
            assert res is not None and res.degree == 4
            assert res.dim == comb(-d - 1, 4)
        else:
            assert res is None


def test_bott_p1_closed_form():
    for d in range(-10, 11):
        res = bott((d, 0), 2)
        if d >= 0:
            assert res is not None and (res.degree, res.dim) == (0, d + 1)
        elif d == -1:
            assert res is None
        else:
            assert res is not None and (res.degree, res.dim) == (1, -d - 1)


def test_bott_kempf_range_has_degree_zero():
    # dominant concatenated weights give sections only
    for gamma in [(1, 0), (2, 1), (3, 3)]:
        for beta in [(0, 0, 0), (1, 0, 0), (1, 1, 0)]:
            if gamma[1] >= beta[0]:
                res = bott(gamma + beta, 5)
                assert res is not None and res.degree == 0


def test_bott_serre_duality_on_random_blocks():
    rng = random.Random(3)
    for _ in range(200):
        g = tuple(sorted((rng.randint(-4, 4), rng.randint(-4, 4)), reverse=True))
        b = tuple(sorted((rng.randint(-3, 3) for _ in range(3)), reverse=True))
        e = HomBundle.block(g, b)
        ((blk, _),) = e.summands
        res = bott(blk[0] + blk[1], 5)
        ((dblk, _),) = twist(dual(e), -5).summands
        dres = bott(dblk[0] + dblk[1], 5)
        if res is None:
            assert dres is None
        else:
            assert dres is not None
            assert dres.degree == 6 - res.degree
            assert dres.dim == res.dim


def test_clebsch_gordan_matches_character_arithmetic():
    for a in itertools.product(range(3, -3, -1), repeat=2):
        if a[0] < a[1]:
            continue
        for b in itertools.product(range(3, -3, -1), repeat=2):
            if b[0] < b[1]:
                continue
            product = Counter()
            for (x1, y1), c1 in schur_char_2(*a).items():
                for (x2, y2), c2 in schur_char_2(*b).items():
                    product[(x1 + x2, y1 + y2)] += c1 * c2
            expected = Counter()
            while product:
                lead = max((m for m, c in product.items() if c), default=None)
                if lead is None:
                    break
                mult = product[lead]
                expected[lead] += mult
                for m, c in schur_char_2(*lead).items():
                    product[m] -= mult * c
                product = Counter({m: c for m, c in product.items() if c})
            assert clebsch_gordan(a, b) == expected, (a, b)


def test_lr_matches_clebsch_gordan_on_two_rows():
    # the generic LR enumeration agrees with the closed rank-2 rule
    for a in [(2, 0), (3, 1), (2, 2), (4, 0)]:
        for b in [(1, 0), (2, 1), (3, 0)]:
            two_row = {
                (nu[0], nu[1]): c
                for nu, c in lr_coefficients((a[0], a[1], 0), (b[0], b[1], 0))
                if nu[2] == 0
            }
            cg = clebsch_gordan(a, b)
            for nu, c in two_row.items():
                assert cg[nu] == c
            # summands with a third row correspond to det-twists invisible
            # to GL(2); total dimension still matches by the lr invariant


def test_lr_known_example_with_multiplicity():
    expansion = dict(lr_coefficients((2, 1, 0), (2, 1, 0)))
    assert expansion == {
        (4, 2, 0): 1,
        (4, 1, 1): 1,
        (3, 3, 0): 1,
        (3, 2, 1): 2,
        (2, 2, 2): 1,
    }


def test_tensor_decompose_published_splittings():
    assert tensor_decompose(rstar(), rstar()) == sym_rstar(2) + o(1)
    assert tensor_decompose(rstar(), sym_rstar(2)) == sym_rstar(3) + rstar(1)
    cube = tensor_decompose(tensor_decompose(rstar(), rstar()), rstar())
    assert cube == sym_rstar(3) + 2 * rstar(1)
    assert tensor_decompose(sym_rstar(2), sym_rstar(3)) == (
        sym_rstar(5) + sym_rstar(3, 1) + rstar(2)
    )


def test_tensor_decompose_preserves_dimension():
    cases = [
        (rstar(2), rperp(1)),
        (sym_rstar(2), dual(rperp())),
        (rperp(), rperp()),
        (sym_rstar(3, -1), sym_rstar(2, 2)),
    ]
    for a, b in cases:
        assert bundle_rank(tensor_decompose(a, b)) == bundle_rank(a) * bundle_rank(b)


def test_block_normalization_identifies_det_relations():
    # Lambda^2 Rperp = (Rperp)*(-1) and R = R*(-1)
    assert HomBundle.block((0, 0), (1, 1, 0)) == twist(dual(rperp()), -1)
    assert dual(rstar()) == twist(rstar(), -1)
    # det Rperp = O(-1)
    assert HomBundle.block((0, 0), (1, 1, 1)) == o(-1)


def test_rank_identities():
    assert bundle_rank(rstar()) == 2
    assert bundle_rank(rperp()) == 3
    assert bundle_rank(o()) == 1
    assert bundle_rank(sym_rstar(3)) == 4
    # [Rperp] = 5[O] - [R*] numerically
    assert chi_vector(rperp()) == chi_vector(5 * o() - rstar())


def test_rhom_acceptance_values():
    assert rhom(sym_rstar(3), sym_rstar(2, 1)) == CohProfile.of({0: 5})
    assert rhom(sym_rstar(3), o(2)) == CohProfile(())
    k1 = 5 * sym_rstar(2, 1) - sym_rstar(3)
    assert rhom(k1, rstar(2)) == CohProfile.of({0: 10})
    assert rhom(rstar(), o()) == CohProfile(())
    assert rhom(o(1), o(1)) == CohProfile.of({0: 1})


def test_rhom_self_is_one_dimensional():
    for i in range(-2, 5):
        for e in (o(i), rstar(i), sym_rstar(2, i), sym_rstar(3, i)):
            assert rhom(e, e) == CohProfile.of({0: 1})


def test_rhom_euler_matches_chi():
    rng = random.Random(17)
    bundles = [o(1), rstar(-1), sym_rstar(2, 1), rperp(2), twist(dual(rperp()), 1)]
    for _ in range(60):
        a = rng.choice(bundles)
        b = rng.choice(bundles)
        result = rhom(a, b)
        if isinstance(result, CohProfile):
            assert result.euler() == rhom_chi(a, b)
        else:
            assert result.chi == rhom_chi(a, b)


def test_rhom_virtual_mixed_degrees_degrades_to_chi():
    # [O(-5)] contributes in degree 6 and [O] in degree 0; the virtual
    # difference cannot be resolved into a profile
    virt = o(0) - o(-5)
    result = rhom(o(0), virt)
    assert isinstance(result, ChiOnly)
    assert result.chi == 1 - 1


def test_chi_vector_separates_lefschetz_objects():
    vectors = {chi_vector(cls) for _, cls in lefschetz_objects()}
    assert len(vectors) == 10


def test_verify_lefschetz_full_table():
    report = verify_lefschetz()
    assert report["ok"] is True
    assert report["violations"] == []
    assert len(report["table"]) == 10
    assert report["table"][3][3] == {"degrees": {"0": 1}}


def test_kapranov_collection_is_unitriangular():
    from quintic.mutations import is_unitriangular

    assert is_unitriangular(kapranov_collection())


def test_verify_appendix_identities():
    report = verify_appendix_identities()
    assert report["ok"] is True
    assert all(report["checks"].values())


def test_pnr_criterion_soundness():
    # whenever the projective-space test certifies vanishing, the full
    # Grassmannian weight must vanish under Bott as well
    rng = random.Random(5)
    certified = 0
    for _ in range(200):
        gamma = tuple(sorted((rng.randint(-5, 5), rng.randint(-5, 5)), reverse=True))
        beta = tuple(sorted((rng.randint(-4, 4) for _ in range(3)), reverse=True))
        if pnr_criterion(gamma[1], beta, 5, 2):
            certified += 1
            assert bott(gamma + beta, 5) is None
    assert certified > 10


def test_pnr_criterion_ample_line_bundle_fails():
    assert pnr_criterion(3, (0, 0, 0), 5, 2) is False


def test_pnr_criterion_indec_family():
    # the projective-space criterion certifies the twists i = 1..3 directly;
    # for i = 4..6 the P^3 cohomology of O(-i) is nonzero and the
    # (one-directional) test is inconclusive even though the Grassmannian
    # cohomology vanishes
    for i in (1, 2, 3):
        assert pnr_criterion(-i, (0, 0, 0), 5, 2) is True
    for i in (4, 5, 6):
        assert pnr_criterion(-i, (0, 0, 0), 5, 2) is False
        assert bott((2 - i, -i, 0, 0, 0), 5) is None


def test_pnr_criterion_validates_input():
    with pytest.raises(ValueError):
        pnr_criterion(0, (0, 1, 0), 5, 2)
    with pytest.raises(ValueError):
        pnr_criterion(0, (0, 0), 5, 2)


hom_blocks = st.builds(
    lambda g_hi, g_diff, b: HomBundle.block((g_hi, g_hi - g_diff), tuple(sorted(b, reverse=True))),
    st.integers(-3, 3),
    st.integers(0, 3),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
)


@settings(max_examples=80)
@given(hom_blocks, hom_blocks)
def test_rhom_chi_additive_in_second_argument(a, b):
    assert rhom_chi(a, a + b) == rhom_chi(a, a) + rhom_chi(a, b)


@settings(max_examples=80)
@given(hom_blocks, hom_blocks)
def test_tensor_commutes(a, b):
    assert tensor_decompose(a, b) == tensor_decompose(b, a)
