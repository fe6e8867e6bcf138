import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintic import grassmannian
from quintic.grassmannian import (
    BottResult,
    ChiOnly,
    CohProfile,
    DimensionError,
    HomBundle,
    bott,
    chi_vector,
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
    return sum(m * weyl_dim(g) * weyl_dim(b) for (g, b), m in x.summands)


def ssyt_contents(shape, n):
    """Independent oracle: contents (number of 1s, ..., number of ns) of the
    semistandard tableaux of a partition shape with entries in 1..n, with
    multiplicity, by direct backtracking."""
    shape = [p for p in shape if p > 0]
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    contents = Counter()
    content = [0] * n
    grid = {}

    def rec(idx):
        if idx == len(cells):
            contents[tuple(content)] += 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            grid[(i, j)] = v
            content[v - 1] += 1
            rec(idx + 1)
            content[v - 1] -= 1
        grid.pop((i, j), None)

    rec(0)
    return contents


@lru_cache(maxsize=None)
def count_ssyt(shape, n):
    return sum(ssyt_contents(shape, n).values())


@lru_cache(maxsize=None)
def character(lam):
    """Character of L^lam C^n as a Counter of weights: the tableau contents
    of the partition lam - lam[-1], shifted back by det^lam[-1]."""
    shift = lam[-1]
    shape = [x - shift for x in lam]
    return Counter(
        {
            tuple(c + shift for c in content): m
            for content, m in ssyt_contents(shape, len(lam)).items()
        }
    )


def test_weyl_dim_basics():
    assert weyl_dim((1, 0, 0, 0, 0)) == 5
    assert weyl_dim((1, 1, 0, 0, 0)) == comb(5, 2)
    assert weyl_dim((2, 0, 0, 0, 0)) == comb(6, 2)
    assert weyl_dim((0, 0, 0, 0, 0)) == 1
    assert weyl_dim((-2, -2, -2, -2, -2)) == 1


def test_weyl_dim_matches_ssyt_count():
    for shape in [(2, 1, 0), (3, 1, 0), (2, 2, 1), (4, 2, 0), (1, 1, 1)]:
        assert weyl_dim(shape) == count_ssyt(shape, 3)
    for shape in [(2, 1, 0, 0, 0), (2, 2, 0, 0, 0), (3, 0, 0, 0, 0)]:
        assert weyl_dim(shape) == count_ssyt(shape, 5)


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim((0, 1))


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


def _bott_reference(alpha, ssyt_cells):
    """Bott's theorem by hand: sort alpha + rho, count its inversions pair
    by pair, and take the dimension from the tableaux of a nonnegative shape
    of at most ssyt_cells cells, else from the product formula."""
    n = len(alpha)
    v = [a + n - 1 - i for i, a in enumerate(alpha)]
    if len(set(v)) < n:
        return None
    inversions = sum(v[i] < v[j] for i in range(n) for j in range(i + 1, n))
    lam = tuple(x - (n - 1 - i) for i, x in enumerate(sorted(v, reverse=True)))
    if lam[-1] >= 0 and sum(lam) <= ssyt_cells:
        dim = count_ssyt(lam, n)
    else:
        dim = 1
        for i in range(n):
            for j in range(i + 1, n):
                dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
        assert dim.denominator == 1
    return BottResult(inversions, lam, int(dim))


def test_bott_matches_the_reference_on_every_small_weight():
    # every weight of length 2-5 with entries in -3..3; all its nonnegative
    # shapes have at most 15 cells
    for n in range(2, 6):
        for alpha in itertools.product(range(-3, 4), repeat=n):
            assert bott(alpha, n) == _bott_reference(alpha, ssyt_cells=15), alpha


def test_bott_keeps_no_per_weight_state():
    # point-query streams rarely repeat a weight, so bott must not keep one
    # result per weight; lengths and entries of the CLI and the benchmark
    rng = random.Random(19)
    weights = {
        tuple(rng.randint(-20, 20) for _ in range(rng.randint(2, 8)))
        for _ in range(20_000)
    }
    # CPython keeps up to 2,000 freed tuples of each small length for reuse,
    # which tracemalloc would count as kept if they were freed while tracing
    spare = [tuple(range(i, i + n)) for n in range(1, 10) for i in range(4000)]
    del spare
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for alpha in weights:
            bott(alpha, len(alpha))
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 64 * 1024, f"{growth} bytes kept over {len(weights)} weights"


def test_bott_takes_a_list_or_a_tuple():
    for alpha in ([1, 0, 0, 0, 0], [-5, -5, 0, 0, 0], [0, 1, 0], [3, -2]):
        assert bott(alpha, len(alpha)) == bott(tuple(alpha), len(alpha))
    assert bott([1, 0, 0, 0, 0], 5) == BottResult(0, (1, 0, 0, 0, 0), 5)


@settings(deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(*[st.integers(-20, 20)] * n)
    )
)
def test_bott_matches_the_reference_on_point_query_weights(alpha):
    # lengths and entries of the point_queries benchmark; tableaux are
    # enumerated one by one, so only shapes of at most 6 cells are counted
    assert bott(alpha, len(alpha)) == _bott_reference(alpha, ssyt_cells=6)
    assert bott.__wrapped__(alpha, len(alpha)) == bott(alpha, len(alpha))


def test_weyl_dimension_checks_the_divisibility_of_the_product(monkeypatch):
    monkeypatch.setattr(grassmannian, "_superfactorial", lambda n: 7)
    with pytest.raises(DimensionError, match=r"lam \+ rho = \(3, 0\) is not divisible by 7"):
        weyl_dim((2, 0))


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


def test_lr_coefficients_matches_character_oracle():
    # multiply characters, then peel off the lexicographically largest
    # weight, which is the highest weight of a summand
    for n in (2, 3):
        weights = [
            lam
            for lam in itertools.product(range(2, -3, -1), repeat=n)
            if all(lam[i] >= lam[i + 1] for i in range(n - 1))
        ]
        for lam, mu in itertools.product(weights, repeat=2):
            product = Counter()
            for x, a in character(lam).items():
                for y, b in character(mu).items():
                    product[tuple(p + q for p, q in zip(x, y))] += a * b
            expected = {}
            while product:
                lead = max(product)
                mult = product[lead]
                expected[lead] = mult
                for x, c in character(lead).items():
                    product[x] -= mult * c
                product = Counter({x: c for x, c in product.items() if c})
            assert dict(lr_coefficients(lam, mu)) == expected, (lam, mu)


def test_lr_coefficients_rejects_non_dominant_or_unequal_weights():
    for lam, mu in [((0, 1), (1, 0)), ((1, 0, 0), (0, 1, 0)), ((1, 0), (1, 0, 0))]:
        with pytest.raises(ValueError):
            lr_coefficients(lam, mu)


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
    # K1's presentation 0 -> Sym^3 R* -> V (x) Sym^2 R*(1) -> K1 -> 0 runs
    # this way: the map goes from Sym^3 R*, and nothing comes back
    assert rhom(sym_rstar(3), sym_rstar(2, 1)) == CohProfile.of({0: 5})
    assert rhom(sym_rstar(2, 1), sym_rstar(3)) == CohProfile(())
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
    # rhom_chi reads rhom, so the reference is the alternating Bott sum
    rng = random.Random(17)
    bundles = [o(1), rstar(-1), sym_rstar(2, 1), rperp(2), twist(dual(rperp()), 1)]
    for _ in range(60):
        a = rng.choice(bundles)
        b = rng.choice(bundles)
        terms = (
            (bott(g + bb, 5), m) for (g, bb), m in tensor_decompose(dual(a), b).summands
        )
        chi = sum((-1) ** res.degree * m * res.dim for res, m in terms if res is not None)
        assert rhom_chi(a, b) == rhom(a, b).euler() == chi


def test_rhom_virtual_mixed_degrees_degrades_to_chi():
    # [O(-5)] contributes in degree 6 and [O] in degree 0; the virtual
    # difference cannot be resolved into a profile
    virt = o(0) - o(-5)
    result = rhom(o(0), virt)
    assert isinstance(result, ChiOnly)
    assert result.chi == 1 - 1


def test_rhom_virtual_in_one_degree_with_a_negative_total_degrades_to_chi():
    # -[O] lands in degree 0 alone, but no dimension there can be -1
    assert rhom(o(0), -1 * o(0)) == ChiOnly(-1)


def test_rhom_degree_whose_contributions_cancel_still_counts():
    # 2 R* and O(1) both land in degree 0 with dimension 10 and cancel;
    # with O(-5) in degree 6 the virtual class still spans two degrees
    assert rhom(o(0), 2 * rstar(0) - o(1) + o(-5)) == ChiOnly(1)


def _rhom_pool():
    """The 25 bundles O, R*, Sym^2 R*, Sym^3 R*, Rperp at twists -2..2, and
    the five virtual kernels of verify_appendix_identities."""
    pool = [
        make(k)
        for make in (o, rstar, lambda k: sym_rstar(2, k), lambda k: sym_rstar(3, k), rperp)
        for k in range(-2, 3)
    ]
    k1 = 5 * sym_rstar(2, 1) - sym_rstar(3)
    kernels = [
        10 * o(0) - o(1),
        10 * o(0) - rperp(1),
        k1,
        10 * rstar(2) - k1,
        5 * rstar(1) - sym_rstar(2),
    ]
    return pool + kernels


def test_memoised_rhom_matches_the_uncached_function():
    pool = _rhom_pool()
    rhom.cache_clear()
    for a, b in itertools.product(pool, repeat=2):
        expected = rhom.__wrapped__(a, b)
        misses = rhom.cache_info().misses
        assert rhom(a, b) == expected, (a, b)
        assert rhom.cache_info().misses == misses + 1
        hits = rhom.cache_info().hits
        assert rhom_chi(a, b) == expected.euler(), (a, b)
        assert rhom.cache_info().hits == hits + 1


def test_chi_vector_separates_lefschetz_objects():
    vectors = {chi_vector(cls) for _, cls in lefschetz_objects()}
    assert len(vectors) == 10


def test_verify_lefschetz_full_table():
    report = verify_lefschetz()
    assert report == {"ok": True, "violations": []}


def test_verify_lefschetz_checks_the_diagonal_and_below(monkeypatch):
    import quintic.grassmannian

    # RHom = k everywhere breaks the 45 pairs below the diagonal
    monkeypatch.setattr(quintic.grassmannian, "rhom", lambda a, b: CohProfile.of({0: 1}))
    assert len(verify_lefschetz()["violations"]) == 45
    # RHom = 0 everywhere breaks the 10 diagonal pairs
    monkeypatch.setattr(quintic.grassmannian, "rhom", lambda a, b: CohProfile(()))
    assert [(a, b) for a, b, _ in verify_lefschetz()["violations"]] == [
        (label, label) for label, _ in lefschetz_objects()
    ]


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
        if pnr_criterion(gamma[1], beta):
            certified += 1
            assert bott(gamma + beta, 5) is None
    assert certified > 10


def test_pnr_criterion_ample_line_bundle_fails():
    assert pnr_criterion(3, (0, 0, 0)) is False


def test_pnr_criterion_indec_family():
    # the projective-space criterion certifies the twists i = 1..3 directly;
    # for i = 4..6 the P^3 cohomology of O(-i) is nonzero and the
    # (one-directional) test is inconclusive even though the Grassmannian
    # cohomology vanishes
    for i in (1, 2, 3):
        assert pnr_criterion(-i, (0, 0, 0)) is True
    for i in (4, 5, 6):
        assert pnr_criterion(-i, (0, 0, 0)) is False
        assert bott((2 - i, -i, 0, 0, 0), 5) is None


def test_pnr_criterion_validates_input():
    with pytest.raises(ValueError):
        pnr_criterion(0, (0, 1, 0))


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
