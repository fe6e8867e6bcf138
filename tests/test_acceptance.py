"""End-to-end acceptance battery.

One test per criterion; every comparison is exact.  Each test prints a
summary line (visible with pytest -s or in the captured output block).
"""

import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np

from quintic.cohomology import (
    ChainProblem,
    f_tilde_cohomology,
    h_all,
    r1_chain_vanishing,
    sweep_box,
)
from quintic.euler import (
    HilbPoly,
    KClass,
    f_tilde_class,
    hilbert_poly,
    line_bundle_class,
    normal_bundle_cherns,
    p_class,
    verify_chi_identities,
)
from quintic.grassmannian import (
    CohProfile,
    bott,
    o,
    rhom,
    rstar,
    sym_rstar,
    verify_appendix_identities,
    verify_lefschetz,
)
from quintic.lattice import (
    E,
    H,
    K,
    DivClass,
    enumerate_roots,
    is_weyl_stable,
    line_through,
    weyl_group_elements,
)
from quintic.mutations import run_sodwdp_derivation
from quintic.surfaces import a3_block_classes, a3_chains, catalog, surface_type, z_scheme

SEED = 20260808


def report(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_01_root_system():
    roots = enumerate_roots()
    assert len(roots) == 20
    assert is_weyl_stable(roots)
    assert len(weyl_group_elements()) == 120
    report(1, "20 roots, reflection stable, Weyl group of order 120")


def test_criterion_02_catalog_consistency():
    expected_ade = {
        "I.1": (),
        "I.2": (1,),
        "II.1": (1,),
        "II.2": (1, 1),
        "II.3": (2,),
        "III.1": (1, 1),
        "III.2": (1, 2),
        "IV.1": (2,),
        "IV.2": (1, 2),
        "IV.3": (3,),
        "V.1": (3,),
        "V.2": (4,),
    }
    types = catalog()
    assert len(types) == 12
    for t in types:
        assert t.ade == expected_ade[t.label]
        lengths = z_scheme(t.ade)
        assert sum(lengths) == 5
        assert sorted(len(c) for c in a3_chains(t)) == sorted(lengths)
    report(2, "all 12 types match the table; chain lengths realize z-schemes")


def test_criterion_03_hilbert_polynomials():
    h2 = HilbPoly(Fraction(5), Fraction(10), Fraction(5))
    h3 = HilbPoly(Fraction(5, 2), Fraction(11, 2), Fraction(3))
    assert hilbert_poly(f_tilde_class()) == h2
    assert hilbert_poly(line_bundle_class(H)) == h3
    assert hilbert_poly(p_class()) == 5 * h3
    assert h2(-1) == 0
    report(3, "h_F = 5(t+1)^2, h_3 = (t+1)(5t+6)/2, h_P = 5 h_3, h_F(-1) = 0")


def test_criterion_04_chi_identities():
    rng = random.Random(SEED)
    for _ in range(1000):
        c1 = DivClass(tuple(rng.randint(-50, 50) for _ in range(5)))
        g = KClass(rng.randint(-50, 50), c1, c1.square() + 2 * rng.randint(-50, 50))
        assert verify_chi_identities(g)
    report(4, "both pairing identities hold on 1000 seeded classes")


def test_criterion_05_mutation_replay():
    result = run_sodwdp_derivation()
    assert all(result["slots"])
    report(5, "bundled derivation reaches the target classes, Gram unitriangular throughout")


def test_criterion_06_ext_semiorthogonality_and_contraction():
    from quintic.mutations import contraction_compatibility

    block = a3_block_classes()
    for t in catalog():
        for i, di in enumerate(block):
            for j, dj in enumerate(block):
                if i > j:
                    assert h_all(dj - di, t) == (0, 0, 0)
                elif i == j:
                    assert h_all(dj - di, t) == (1, 0, 0)
        assert contraction_compatibility(t)
    report(6, "reverse Exts vanish on all 12 types; contraction compatible")


def test_criterion_07_cohomology_values_and_sweep():
    types = catalog()
    for t in types:
        assert h_all(H, t) == (3, 0, 0)
        assert h_all(-K - H, t) == (2, 0, 0)
        assert f_tilde_cohomology(t) == (5, 0, 0)
        for i in (1, 2, 3, 4):
            assert h_all(line_through(i), t)[0] == 2
        for i, j in itertools.combinations((1, 2, 3, 4), 2):
            assert h_all(line_through(i, j), t)[0] == 1
    assert h_all(-K - 2 * H, surface_type("I.1")) == (0, 1, 0)
    for t in types:
        info = sweep_box(t, bound=4, return_arrays=True)
        arr = info["arrays"]
        for i in np.random.default_rng(SEED).integers(0, info["classes"], size=20).tolist():
            got = tuple(int(arr[h][i]) for h in ("h0", "h1", "h2"))
            assert got == h_all(DivClass(tuple(arr["box"][i].tolist())), t)
        assert (arr["h0"] - arr["h1"] + arr["h2"] == arr["chi"]).all()
        assert (arr["h1"] >= 0).all()
        # Serre duality: h^2(D) = h^0(K-D) wherever the mirror stays in the box
        kvec = np.array(K.coeffs)
        mirror = kvec - arr["box"]
        inside = (np.abs(mirror) <= 4).all(axis=1)
        idx = ((mirror + 4) * 9 ** np.arange(4, -1, -1)).sum(axis=1)
        assert inside.any()
        assert (arr["h2"][inside] == arr["h0"][idx[inside]]).all()
    report(7, "published h^i values and the |coeff|<=4 sweep identities hold")


def test_criterion_08_chain_vanishing():
    for n in (1, 2, 3, 4):
        for degrees in itertools.product(range(-1, 4), repeat=n):
            for l in range(1, n + 1):
                hyp = degrees[l - 1] >= -1 and all(
                    degrees[i] >= 0 for i in range(n) if i != l - 1
                )
                if hyp:
                    assert r1_chain_vanishing(ChainProblem(degrees, l)).certified
    assert not r1_chain_vanishing(ChainProblem((-2,), 1)).certified
    assert not r1_chain_vanishing(ChainProblem((-1, -1), 1)).certified
    report(8, "every hypothesis-satisfying chain is certified; counterexamples are not")


def test_criterion_09_chern_numbers():
    tangent, normal, fprime = normal_bundle_cherns()
    assert (tangent.c2(), normal.c2(), fprime.c2()) == (7, 43, 2)
    assert hilbert_poly(fprime) == HilbPoly(Fraction(5), Fraction(10), Fraction(5))
    report(9, "c2 integrals (7, 43, 2) and h_F' = 5t^2+10t+5")


def test_criterion_10_grassmannian():
    for d in range(-12, 13):
        res = bott((d, 0, 0, 0, 0), 5)
        if d >= 0:
            assert res is not None and (res.degree, res.dim) == (0, comb(d + 4, 4))
        elif d <= -5:
            assert res is not None and (res.degree, res.dim) == (4, comb(-d - 1, 4))
        else:
            assert res is None
    for i in range(1, 7):
        assert bott((2 - i, -i, 0, 0, 0), 5) is None
    assert rhom(sym_rstar(3), sym_rstar(2, 1)) == CohProfile.of({0: 5})
    assert rhom(sym_rstar(3), o(2)) == CohProfile(())
    k1 = 5 * sym_rstar(2, 1) - sym_rstar(3)
    assert rhom(k1, rstar(2)) == CohProfile.of({0: 10})
    appendix = verify_appendix_identities()
    assert appendix["ok"], appendix
    lefschetz = verify_lefschetz()
    assert lefschetz["ok"], lefschetz["violations"]
    report(10, "Bott closed forms, RHom values, appendix identities, 10x10 table")
