import hashlib
import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import ceil, gcd
from operator import mul
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quintic import cohomology, sweep
from quintic.cohomology import (
    _CHAMBER_RAYS,
    _SIGNS,
    CannotConcludeError,
    CohomologyConsistencyError,
    ReductionDivergenceError,
    _h0,
    _kernel,
    _Kernel,
    _solve_support,
    ChainCertificate,
    ChainProblem,
    f_tilde_cohomology,
    h_all,
    negative_curves,
    r1_chain_vanishing,
    sweep_box,
)
from quintic.euler import chi_line
from quintic.lattice import (
    E,
    H,
    K,
    ZERO,
    DivClass,
    delta,
    line_through,
    minus_one_classes,
    simple_roots,
    weyl_orbit,
)
from quintic.surfaces import _surface, a3_block_classes, catalog, surface_type
from quintic.sweep import _box, _h0_rows, _int_dtype, _jump, _on_grid


def test_negative_curves_smooth_type():
    nc = negative_curves(surface_type("I.1"))
    assert nc.minus_two == ()
    assert set(nc.minus_one_irred) == set(minus_one_classes())


def test_negative_curves_exclude_decomposable_classes():
    # on II.1 the class e1 decomposes as (e1-e2) + e2
    nc = negative_curves(surface_type("II.1"))
    assert E[1] not in nc.minus_one_irred
    assert E[2] in nc.minus_one_irred
    # on V.2 only e4 survives among the exceptional classes
    nc = negative_curves(surface_type("V.2"))
    assert [l for l in nc.minus_one_irred if l in {E[1], E[2], E[3], E[4]}] == [E[4]]


def test_excluded_classes_decompose_into_irreducible_curves():
    # every excluded (-1)-class is an effective sum of a (-2)-curve chain
    # and an irreducible (-1)-curve
    for t in catalog():
        nc = negative_curves(t)
        for l in sorted(minus_one_classes() - set(nc.minus_one_irred), key=lambda d: d.coeffs):
            cur, parts = l, []
            for _ in range(10):
                if cur in nc.minus_one_irred:
                    break
                step = next(c for c in nc.minus_two if cur.dot(c) < 0)
                parts.append(step)
                cur = cur - step
            assert cur in nc.minus_one_irred
            assert parts


def test_h_all_hyperplane_on_all_types():
    for t in catalog():
        assert h_all(H, t) == (3, 0, 0)


def test_h_all_anticanonical_minus_h_on_all_types():
    for t in catalog():
        assert h_all(-K - H, t) == (2, 0, 0)


def test_h_all_minus_k_minus_2h_on_smooth_type():
    assert h_all(-K - 2 * H, surface_type("I.1")) == (0, 1, 0)


def test_h_all_pencil_classes():
    assert h_all(line_through(1), surface_type("I.1")) == (2, 0, 0)
    for t in catalog():
        for i in (1, 2, 3, 4):
            h0, _, _ = h_all(line_through(i), t)
            assert h0 == 2


def test_h_all_line_classes():
    for t in catalog():
        for i, j in itertools.combinations((1, 2, 3, 4), 2):
            h0, _, _ = h_all(line_through(i, j), t)
            assert h0 == 1


def test_h_all_effective_minus_two_curve():
    t = surface_type("II.1")
    assert h_all(delta(1, 2), t) == (1, 1, 0)
    # same class on the smooth type is not effective
    assert h_all(delta(1, 2), surface_type("I.1")) == (0, 0, 0)


def test_h_all_trivial_and_anticanonical():
    for t in catalog():
        assert h_all(ZERO, t) == (1, 0, 0)
        assert h_all(-K, t) == (6, 0, 0)
        assert h_all(K, t) == (0, 0, 1)


def _peel_h0(d, curves, steps=200):
    """The earlier kernel, kept as a test oracle: peel one negative curve per
    step until the class is nef or meets -K negatively."""
    for _ in range(steps):
        if d.dot(-K) < 0:
            return 0, d
        c = next((c for c in curves if d.dot(c) < 0), None)
        if c is None:
            return max(chi_line(d), 0), d
        d = d - c
    raise AssertionError(f"peeling oracle did not stop within {steps} steps")


def test_reduction_terminal_is_order_independent():
    # on an effective class the rounds stop at the class the one-curve
    # peeling ends on, in either curve order
    rng = random.Random(11)
    types = catalog()
    effective = 0
    for _ in range(600):
        t = rng.choice(types)
        d = DivClass(tuple(rng.randint(-4, 4) for _ in range(5)))
        if h_all(d, t)[0] == 0:
            continue
        effective += 1
        terminal = _h0(d.coeffs, t)[1]
        assert all(terminal.dot(c) >= 0 for c in negative_curves(t).all)
        for curves in (negative_curves(t).all, tuple(reversed(negative_curves(t).all))):
            assert _peel_h0(d, curves)[1] == terminal
    assert effective >= 100


@pytest.mark.parametrize(
    "label, n", [("V.2", 150), ("I.1", 250)] + [(t.label, 5000) for t in catalog()]
)
def test_h_all_large_multiple_of_exceptional_class(label, n):
    # n*e1 is rigid: one section, h^1 from Riemann-Roch, no step cap
    d = n * E[1]
    assert h_all(d, surface_type(label)) == (1, 1 - chi_line(d), 0)


def test_h_all_keeps_no_per_class_state():
    # the support table is per type and bounded; once a sweep has filled it
    # for a box, scalar h_all on that box must not grow memory per class.
    # Runs before the bound-3 test below, so no earlier test has seen
    # these classes.
    t = surface_type("V.2")
    box = sweep_box(t, bound=2, return_arrays=True)["arrays"]["box"]
    classes = [DivClass(tuple(row)) for row in box.tolist()]
    # CPython keeps up to 2,000 freed tuples of each small length for reuse,
    # which tracemalloc would count as kept if they were freed while tracing
    spare = [tuple(range(i, i + 5)) for i in range(4000)]
    del spare
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for d in classes:
            h_all(d, t)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 64 * 1024, f"{growth} bytes kept over {len(classes)} classes"


def test_sweep_scalar_and_peeling_oracle_agree_on_bound_3_box():
    for t in catalog():
        curves = negative_curves(t).all
        arr = sweep_box(t, bound=3, return_arrays=True)["arrays"]
        for row, h0, h1, h2 in zip(
            arr["box"].tolist(), arr["h0"].tolist(), arr["h1"].tolist(), arr["h2"].tolist()
        ):
            d = DivClass(tuple(row))
            oracle0 = _peel_h0(d, curves)[0]
            oracle2 = _peel_h0(K - d, curves)[0]
            expected = (oracle0, oracle0 + oracle2 - chi_line(d), oracle2)
            assert (h0, h1, h2) == expected, (t.label, row)
            assert h_all(d, t) == expected, (t.label, row)


def test_ext_line_examples():
    # Ext(O(D), O(D')) is the cohomology h_all(D' - D) of the difference
    d4, d3 = E[4] - K - H, E[3] - K - H
    # on V.1 the difference e3 - e4 is an effective (-2)-curve C, and
    # h(O(C)) = (1, 1, 0) since chi(O(C)) = 0
    assert h_all(d3 - d4, surface_type("V.1")) == (1, 1, 0)
    # on I.1 no (-2)-class is effective, so O(e3 - e4) has no cohomology
    assert h_all(d3 - d4, surface_type("I.1")) == (0, 0, 0)
    for t in catalog():
        assert h_all(H - H, t) == (1, 0, 0)
        assert h_all(d4 - d3, t) == (0, 0, 0)


def test_a3_collection_is_ext_exceptional_on_every_type():
    block = a3_block_classes()
    for t in catalog():
        for i, di in enumerate(block):
            for j, dj in enumerate(block):
                ext = h_all(dj - di, t)
                if i == j:
                    assert ext == (1, 0, 0)
                elif i > j:
                    assert ext == (0, 0, 0)


def test_a3_collection_forward_exts_follow_chain_structure():
    # for i < j, two members of one chain (adjacent or not) have
    # Ext^0 = Ext^1 = k; members of different chains are orthogonal
    from quintic.surfaces import a3_chains

    for t in catalog():
        chains = a3_chains(t)
        position = {d: (ci, pi) for ci, c in enumerate(chains) for pi, d in enumerate(c)}
        block = a3_block_classes()
        for i, di in enumerate(block):
            for j, dj in enumerate(block):
                if i >= j:
                    continue
                ext = h_all(dj - di, t)
                if position[di][0] == position[dj][0]:
                    assert ext == (1, 1, 0)
                else:
                    assert ext == (0, 0, 0)


def test_f_tilde_cohomology_all_types():
    for t in catalog():
        assert f_tilde_cohomology(t) == (5, 0, 0)


def test_chain_problem_validation():
    with pytest.raises(ValueError):
        ChainProblem((0, 0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        ChainProblem((), 1)
    with pytest.raises(ValueError):
        ChainProblem((0, 0), 3)


def test_r1_vanishing_examples():
    assert r1_chain_vanishing(ChainProblem((-1,), 1)).certified
    assert r1_chain_vanishing(ChainProblem((0, -1, 0), 2)).certified
    assert r1_chain_vanishing(ChainProblem((0, -1, 0, 0), 2)).certified
    res = r1_chain_vanishing(ChainProblem((-2,), 1))
    assert not res.certified
    assert res.failing_step == (1, 1, -2)
    res = r1_chain_vanishing(ChainProblem((-1, -1), 1))
    assert not res.certified
    assert res.failing_step is not None


def _r1_chain_simulation(p: ChainProblem) -> ChainCertificate:
    """The formal-neighbourhood induction run level by level, for levels
    1 .. n+2: the oracle that r1_chain_vanishing's docstring proves equal
    to its level-1 criterion."""
    n, l = len(p.degrees), p.l
    schedule = list(range(l, n + 1)) + list(range(l - 1, 0, -1))
    w = [0] * (n + 2)  # 1-based multiplicities with zero padding
    previous: dict[int, int] = {}
    for level in range(1, n + 3):
        for j in schedule:
            against = w[j - 1] + w[j + 1] - 2 * w[j]
            deg = p.degrees[j - 1] - against
            if deg < -1:
                return ChainCertificate(False, (level, j, deg))
            if level > 1 and deg < previous[j]:
                raise CohomologyConsistencyError(
                    f"step degree decreased at level {level}, curve {j}"
                )
            previous[j] = deg
            w[j] += 1
    return ChainCertificate(True)


def test_r1_chain_vanishing_matches_the_level_simulation():
    problems = [
        ChainProblem(degrees, l)
        for n in (1, 2, 3, 4)
        for degrees in itertools.product(range(-5, 6), repeat=n)
        for l in range(1, n + 1)
    ]
    assert len(problems) == 62_810
    for p in problems:
        assert r1_chain_vanishing(p) == _r1_chain_simulation(p), p


@pytest.mark.parametrize(
    "check, fault",
    [
        # a certificate that also demands d_l >= 0 refuses the d_l = -1 rows
        (
            "chain vanishing certificate (exhaustive)",
            lambda real, p: ChainCertificate(False, (1, p.l, p.degrees[p.l - 1]))
            if p.degrees[p.l - 1] < 0
            else real(p),
        ),
        # a certificate that reads d_l = -2 as -1 accepts (-2,)
        (
            "chain vanishing counterexamples",
            lambda real, p: real(
                ChainProblem(
                    tuple(-1 if i == p.l - 1 and d == -2 else d for i, d in enumerate(p.degrees)),
                    p.l,
                )
            ),
        ),
    ],
    ids=["exhaustive", "counterexamples"],
)
def test_chain_vanishing_fault_flips_its_report_check(monkeypatch, check, fault):
    import quintic.suites
    from quintic.suites import suite_cohomology

    base = suite_cohomology(0)
    assert base[check] is True
    real = quintic.suites.r1_chain_vanishing
    monkeypatch.setattr(quintic.suites, "r1_chain_vanishing", lambda p: fault(real, p))
    details = suite_cohomology(0)
    assert {k for k in base if details[k] != base[k]} == {check}


def test_sweep_box_small_bound_consistency():
    for t in catalog():
        info = sweep_box(t, bound=2)
        assert info["classes"] == 5**5
        assert info["h1_positive"] > 0
        assert info["max_h0"] >= chi_line(2 * H)


def test_sweep_matches_scalar_on_known_values():
    t = surface_type("I.1")
    info = sweep_box(t, bound=2, return_arrays=True)
    assert info["type"] == "I.1"
    arr = info["arrays"]
    for i in np.random.default_rng(123).integers(0, info["classes"], size=50).tolist():
        got = tuple(int(arr[h][i]) for h in ("h0", "h1", "h2"))
        assert got == h_all(DivClass(tuple(arr["box"][i].tolist())), t), i


def test_suite_sweep_consistency_check_is_real():
    from quintic.suites import _sweep_consistent, suite_cohomology

    t, seed = surface_type("III.1"), 5
    info = sweep_box(t, bound=2, return_arrays=True)
    assert _sweep_consistent(info, t, seed)
    arr = info["arrays"]
    inside = [all(abs(k - x) <= 2 for k, x in zip(K.coeffs, r)) for r in arr["box"].tolist()]
    # a wrong h^2 on a row whose Serre mirror K - D lies in the box; h^1
    # moves with it, so only duality can catch it
    row = inside.index(True)
    arr["h2"][row] += 1
    arr["h1"][row] += 1
    assert not _sweep_consistent(info, t, seed)
    arr["h2"][row] -= 1
    arr["h1"][row] -= 1
    assert _sweep_consistent(info, t, seed)
    # a wrong h^0 on a sampled row whose mirror lies outside the box; h^1
    # moves with it, so only the scalar comparison can catch it
    rng = random.Random(seed)
    sampled = [rng.randrange(info["classes"]) for _ in range(20)]
    row = next(i for i in sampled if not inside[i])
    arr["h0"][row] += 1
    arr["h1"][row] += 1
    assert not _sweep_consistent(info, t, seed)
    assert _sweep_consistent(info, t, seed + 1)
    # each class is one kernel row, so h^2(D) and h^0(K - D) read the same
    # row; the Serre conjunct checks _box's map to that row against the flip
    # of the box's corner that holds the mirrors.  A map shifted by one row
    # flips it on every type
    data = _box(4, _CHAMBER_RAYS)
    shifted = data._replace(h2_at=np.roll(data.h2_at, -1))
    with mock.patch.object(sweep, "_box", lambda bound, rays: shifted):
        details = suite_cohomology(seed)
    assert not any(details[f"{u.label}: |coeff|<=4 sweep consistent"] for u in catalog())


def test_sweep_consistency_needs_mirrors_inside_the_box():
    # K = (-3, -1, -1, -1, -1): at bounds 0 and 1 no mirror K - D of a
    # class of the box lies in the box, so the Serre conjunct compares
    # nothing and the check fails; from bound 2 on it holds
    from quintic.suites import _sweep_consistent

    t = surface_type("IV.2")
    for bound in range(5):
        info = sweep_box(t, bound=bound, return_arrays=True)
        assert _sweep_consistent(info, t, 3) == (bound >= 2), bound


def _fraction_solve_support(gram, idx):
    """The earlier support solve, kept as a reference: Gauss-Jordan over the
    rationals, positive definite iff every pivot is positive, det the pivot
    product and adj = det * inverse."""
    n = len(idx)
    rows = [
        [Fraction(-gram[i][j]) for j in idx] + [Fraction(int(r == c)) for c in range(n)]
        for r, i in enumerate(idx)
    ]
    det = Fraction(1)
    for col in range(n):
        pivot = rows[col][col]
        if pivot <= 0:
            return None
        det *= pivot
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    adj = tuple(tuple(det * x for x in row[n:]) for row in rows)
    assert det.denominator == 1 and all(x.denominator == 1 for row in adj for x in row)
    return tuple(tuple(int(x) for x in row) for row in adj), int(det)


def test_bareiss_support_solve_matches_fraction_reference_on_every_subset():
    solved = 0
    for t in catalog():
        gram = _kernel(t).gram
        m = len(negative_curves(t).all)
        for mask in range(1, 1 << m):
            idx = tuple(i for i in range(m) if mask >> i & 1)
            got = _solve_support(gram, idx)
            assert got == _fraction_solve_support(gram, idx), (t.label, idx)
            if got is not None:
                solved += 1
                adj, det = got
                # the sizes of the support table on the twelve types
                assert 1 <= det <= 6 and max(abs(x) for row in adj for x in row) <= 6
    assert solved == 532


def test_nef_rays_are_nef_and_each_vanishes_on_four_independent_curves():
    counts = []
    for t in catalog():
        curves = negative_curves(t).all
        rays = _kernel(t).rays
        counts.append(len(rays))
        assert len(set(rays)) == len(rays)
        for ray in rays:
            assert gcd(*ray.coeffs) == 1, (t.label, ray)
            assert all(ray.dot(c) >= 0 for c in curves), (t.label, ray)
            tight = [c.coeffs for c in curves if ray.dot(c) == 0]
            assert np.linalg.matrix_rank(np.array(tight)) == 4, (t.label, ray)
    assert counts == [10, 9, 9, 8, 7, 8, 7, 7, 7, 5, 5, 5]
    # the degree bound of quintic.sweep: functionals of at most 4 in
    # absolute value, and |P|_1 <= 10
    for t in catalog():
        kern = _kernel(t)
        assert max(abs(x) for v in (*kern.curve_ints, *kern.ray_ints) for x in v) <= 4
        assert max(sum(map(abs, v)) for v in kern.ray_ints) <= 10
    # on the smooth type: the pullbacks of lines and the conic classes
    lines, conics = weyl_orbit({H}), weyl_orbit({H - E[1]})
    assert len(lines) == len(conics) == 5
    assert set(_kernel(surface_type("I.1")).rays) == lines | conics


def _rays(*rays):
    """Hand out the given classes in place of _nef_rays's enumeration."""
    return mock.patch.object(cohomology, "_nef_rays", lambda func: rays)


def test_kernel_given_a_ray_that_is_not_nef_raises():
    t = surface_type("II.3")
    with _rays(H, E[1]), pytest.raises(CohomologyConsistencyError, match="not nef"):
        _Kernel(t)


def test_kernel_whose_rays_sum_to_zero_on_a_curve_raises():
    # A = the sum of the rays must meet every negative curve positively,
    # which h (zero on the (-2)-curves e_i - e_j) alone does not
    t = surface_type("II.3")
    with _rays(H), pytest.raises(CohomologyConsistencyError, match="measure class not positive"):
        _Kernel(t)


def test_kernel_given_a_curve_that_meets_minus_k_negatively_raises(monkeypatch):
    # the -K pre-filter of h_all and sweep_box needs -K.C >= 0 on every
    # negative curve; -e1 has -K-degree -1
    t, minus_e1 = surface_type("II.1"), DivClass((0, 1, 0, 0, 0))
    assert minus_e1.dot(-K) == -1
    nc = negative_curves(t)
    broken = cohomology.NegativeCurveSet(nc.minus_two, nc.minus_one_irred + (minus_e1,))
    real = cohomology.negative_curves
    monkeypatch.setattr(cohomology, "negative_curves", lambda u: broken if u == t else real(u))
    with pytest.raises(CohomologyConsistencyError, match=r"^II\.1: .*\(0, 1, 0, 0, 0\)"):
        _Kernel(t)
    _Kernel(surface_type("II.2"))


def test_support_of_a_mask_that_is_not_negative_definite_raises():
    kern = _Kernel(surface_type("I.1"))
    m = len(kern.curves)
    with pytest.raises(CohomologyConsistencyError, match="I.1: support mask 0x14 is not"):
        kern.support(0x14)
    refused = 0
    for mask in range(1, 1 << m):
        if _solve_support(kern.gram, [i for i in range(m) if mask >> i & 1]) is None:
            refused += 1
            with pytest.raises(CohomologyConsistencyError, match=f"mask {mask:#x} "):
                kern.support(mask)
    assert refused == 948
    assert kern._table == {}


def _kernels(kernels):
    """Hand out the given per-type kernels in place of _kernel's."""
    return mock.patch.object(cohomology, "_kernel", lambda t: kernels[t.label])


def test_support_tables_after_bound_4_sweeps_are_the_zariski_chambers():
    # Bauer-Kuronya-Szemberg: a pseudo-effective class meets only supports
    # that are Zariski chambers, the negative definite curve sets.  Step 1
    # passes only pseudo-effective classes, and the scalar rounds on the
    # kernel rows of the twelve bound-4 sweeps visit every chamber but the
    # nef one.  The sweep itself asks for no support
    kernels = {t.label: _Kernel(t) for t in catalog()}
    rows = [tuple(d) for d in _box(4, _CHAMBER_RAYS).rows.tolist()]
    with _kernels(kernels):
        for t in catalog():
            sweep_box(t, bound=4)
            assert kernels[t.label]._table == {}, t.label
            for d in rows:
                _h0(d, t)
    chambers = []
    for t in catalog():
        kern = kernels[t.label]
        m = len(kern.curves)
        negative_definite = {
            mask
            for mask in range(1, 1 << m)
            if _solve_support(kern.gram, [i for i in range(m) if mask >> i & 1]) is not None
        }
        assert set(kern._table) == negative_definite, t.label
        chambers.append(len(negative_definite))
    # with the nef chamber, I.1 has 76: the Bauer-Funke-Neumann count for degree 5
    assert chambers == [75, 58, 58, 49, 39, 49, 40, 39, 40, 28, 28, 29]
    assert sum(chambers) == 532



def test_support_growth_columns_test_exactly_the_curves_that_meet_s():
    # distinct curves meet nonnegatively, so C.S > 0 says C meets a curve of S
    for t in catalog():
        kern = _Kernel(t)
        m = len(kern.curves)
        for mask in range(1, 1 << m):
            idx = [i for i in range(m) if mask >> i & 1]
            if _solve_support(kern.gram, idx) is None:
                continue
            sup = kern.support(mask)
            near = [j for j in range(m) if j not in idx and sum(kern.gram[i][j] for i in idx) > 0]
            assert sup.grow == tuple(1 << j for j in near), (t.label, mask)
            assert len(sup.solve) == len(idx) + len(near), (t.label, mask)


def _rounds_testing_every_curve(coeffs, t):
    """The rounds of the module docstring in Fractions, with the growth test
    of step 3 on every negative curve, and the det-1 exit: the masks of the
    supports they solve on, in order, and the class they end at."""
    kern = _kernel(t)
    curves, gram = kern.curves, kern.gram
    d, masks = DivClass(coeffs), []
    while all(d.dot(p) >= 0 for p in kern.rays):
        mask = sum(1 << i for i, c in enumerate(curves) if d.dot(c) < 0)
        if not mask:
            break
        while True:
            masks.append(mask)
            idx = [i for i in range(len(curves)) if mask >> i & 1]
            adj, det = _solve_support(gram, idx)
            # N = sum x_i C_i meets S as D does: M_S x = b, x = -adj(-M_S) b / det
            b = [d.dot(curves[i]) for i in idx]
            x = [Fraction(-sum(u * v for u, v in zip(row, b)), det) for row in adj]
            grown = mask
            for j, c in enumerate(curves):
                if d.dot(c) - sum(xi * gram[i][j] for xi, i in zip(x, idx)) < 0:
                    grown |= 1 << j
            if grown == mask:
                break
            mask = grown
        d = d - sum((ceil(xi) * curves[i] for xi, i in zip(x, idx)), ZERO)
        if det == 1:
            break
    return masks, d


@pytest.mark.parametrize("label", [t.label for t in catalog()])
@settings(deadline=None)
@given(coeffs=st.tuples(*[st.integers(-64, 64)] * 5))
@example(coeffs=(64, -64, -64, -64, -64))
@example(coeffs=(-64, 64, 64, 64, 64))
@example(coeffs=(3, -1, -4, 0, 0))
def test_rounds_ask_for_the_supports_of_a_growth_test_on_every_curve(label, coeffs):
    # the growth columns leave out the curves that do not meet S, which
    # meet D - N as they meet D, nonnegatively; so _h0 solves on the same
    # supports, in the same order, as rounds that test every curve, on D
    # and on K - D, the two sides h_all may take
    t = surface_type(label)
    kern = _kernel(t)
    asked = []

    def support(mask):
        asked.append(mask)
        return _Kernel.support(kern, mask)

    for side in (coeffs, (K - DivClass(coeffs)).coeffs):
        asked.clear()
        with mock.patch.object(kern, "support", support):
            end = _h0(side, t)[1]
        assert (asked, end) == _rounds_testing_every_curve(side, t), side


@pytest.mark.parametrize("label", [t.label for t in catalog()])
@settings(deadline=None)
@given(coeffs=st.tuples(*[st.integers(-64, 64)] * 5))
@example(coeffs=(64, -64, -64, -64, -64))
@example(coeffs=(-64, 64, 64, 64, 64))
def test_nef_rays_change_no_h_all(label, coeffs):
    # the peeling oracle tests only -K and no ray, so the rays may only end
    # earlier the rows that have no sections; |coeff| <= 64 is the range of
    # the point_queries benchmark
    t, d = surface_type(label), DivClass(coeffs)
    curves = negative_curves(t).all
    h0 = _peel_h0(d, curves, steps=1000)[0]
    h2 = _peel_h0(K - d, curves, steps=1000)[0]
    assert h_all(d, t) == (h0, h0 + h2 - chi_line(d), h2)


def test_batch_and_scalar_divergence_errors_name_the_starting_class():
    # a step matrix whose drop column reads 0 breaks the measure check of
    # proof (d) in the scalar rounds
    t, start = surface_type("II.1"), (3, -1, -4, 0, 0)
    kern = _Kernel(t)
    with _kernels({"II.1": kern}):
        _h0(start, t)
    assert kern._table
    for sup in kern._table.values():
        sup.step = (*sup.step[:5], (0,) * len(sup.idx))
    message = r"did not lower A\.D at \(3, -1, -4, 0, 0\) on II\.1$"
    with _kernels({"II.1": kern}), pytest.raises(ReductionDivergenceError, match=message):
        _h0(start, t)
    # in the walk of the batch kernel, -C beside the curve C = (0, -1, 1, 0, 0)
    # breaks the measure of its termination argument, A.(-C) < 0: D steps by
    # C to D - C, which meets only -C negatively and steps back to D
    kern = _kernel(t)
    curve, start = kern.curves[0], (2, 0, 1, 0, 0)
    assert curve.coeffs == (0, -1, 1, 0, 0)
    cycled = SimpleNamespace(
        label=kern.label,
        curves=(*kern.curves, -curve),
        curve_ints=(*kern.curve_ints, tuple(-x for x in kern.curve_ints[0])),
        ray_ints=kern.ray_ints,
    )
    data = _rows_data([start, (2, 1, 0, 0, 0)])
    message = r"^pointer jumping from \(2, 0, 1, 0, 0\) on II\.1 did not end within 2 passes$"
    with pytest.raises(CohomologyConsistencyError, match=message):
        _h0_rows(data, cycled)


def _first_negative(kern, coeffs):
    """The first curve of kern that meets the class negatively, or None."""
    negative = (c for c, v in zip(kern.curves, kern.curve_ints) if sum(map(mul, v, coeffs)) < 0)
    return next(negative, None)


def _walk(coeffs, t, steps=None):
    """The rows of the walk of quintic.sweep from a class, one at a time in
    Python integers, and its h^0: 0 once a ray meets the class negatively,
    max(chi, 0) once no curve does, else the h^0 of the class minus its
    first negative curve.  With steps, a walk that has taken that many and
    would step again gives its rows and None."""
    kern, chain = _kernel(t), [coeffs]
    while not any(sum(map(mul, p, coeffs)) < 0 for p in kern.ray_ints):
        first = _first_negative(kern, coeffs)
        if first is None:
            return chain, max(chi_line(DivClass(coeffs)), 0)
        if steps is not None and len(chain) > steps:
            return chain, None
        coeffs = tuple(x - y for x, y in zip(coeffs, first.coeffs))
        chain.append(coeffs)
    return chain, 0


def _rows_data(rows):
    """The data _h0_rows reads for the given classes alone: the rows in the
    order of their codes in the grid that holds them with a margin of 1 on
    every side, those codes, that grid's strides and each row's chi, all in
    int64; the fields that only the sweep reads are empty."""
    arr = np.array(sorted(set(rows)), dtype=np.int64)
    low = arr.min(axis=0) - 1
    wide = arr.max(axis=0) - low + 2
    strides = np.cumprod((1, *wide[:0:-1].tolist()))[::-1]
    codes = (arr - low) @ strides  # sorted: the codes order the rows as tuples
    row_chi = np.array([chi_line(DivClass(tuple(r))) for r in arr.tolist()], dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    return sweep._BoxData(empty, empty, empty, empty, arr, codes, row_chi, empty, empty, strides)


@pytest.mark.parametrize("label", [t.label for t in catalog()])
def test_batch_rows_at_the_float_limit_match_scalar(label):
    # the walk's degrees run in float32, exact below 2^24, and the module
    # docstring bounds |D.P| by 20 times the largest |coefficient| of a row:
    # L is the largest coefficient that bound covers.  Each class goes to
    # _h0_rows with the rows of its walk, up to 20 steps: a walk that ends
    # within them gives the scalar h^0, and one that does not leaves the
    # rows at its last row, by the first curve that the scalar rule names
    L = (2**24 - 1) // 20
    t = surface_type(label)
    kern = _kernel(t)
    rows = [
        (L, 0, 0, 0, 0),
        (0, -L, 0, 0, 0),
        (L, -L, 0, 0, 0),
        (L, 0, 0, 0, -L),
        (L, L, 0, 0, 0),
        (L, L, L, L, L),
        (-L, 0, 0, 0, 0),
        (L, -L, -L, -L, -L),
    ]
    # (L - 1) h + C steps once, to (L - 1) h, for each curve C with no h term
    rows += [(L - 1 + c.coeffs[0], *c.coeffs[1:]) for c in kern.curves if c.coeffs[0] == 0]
    ended = []
    for d in rows:
        chain, walked = _walk(d, t, steps=20)
        data = _rows_data(chain)
        ended.append(walked is not None)
        if walked is None:
            last = chain[-1]
            step = f"the step from {last} by the curve {_first_negative(kern, last).coeffs}"
            message = f"^{re.escape(f'{step} on {label} leaves the kernel rows')}$"
            with pytest.raises(CohomologyConsistencyError, match=message):
                _h0_rows(data, kern)
        else:
            at = [tuple(r) for r in data.rows.tolist()].index(d)
            assert _h0_rows(data, kern)[at] == walked == _h0(d, t)[0], d
    assert ended == [True, False, False, False, True, True, True, False] + [True] * (len(rows) - 8)
    assert len(rows) > 8
    # h^0(O(L h)) > 2^38
    assert _h0_rows(_rows_data([(L, 0, 0, 0, 0)]), kern).tolist() == [(L + 1) * (L + 2) // 2]


@pytest.mark.parametrize("label", [t.label for t in catalog()])
@settings(deadline=None)
@given(coeffs=st.tuples(*[st.integers(-64, 64)] * 5))
@example(coeffs=(64, -64, -64, -64, -64))
@example(coeffs=(-64, 64, 64, 64, 64))
def test_scalar_and_batch_rounds_agree_on_point_query_classes(label, coeffs):
    # the scalar rounds and the walk of the batch kernel, _h0_rows, away
    # from the box and its closure: on D and on K - D, with the rows of
    # their walks, and |coeff| <= 64, the range of the point_queries
    # benchmark
    t = surface_type(label)
    sides = (coeffs, (K - DivClass(coeffs)).coeffs)
    walks = [_walk(side, t) for side in sides]
    data = _rows_data([d for chain, _ in walks for d in chain])
    h0, rows = _h0_rows(data, _kernel(t)).tolist(), [tuple(r) for r in data.rows.tolist()]
    for side, (_, walked) in zip(sides, walks):
        assert h0[rows.index(side)] == walked == _h0(side, t)[0], side


def test_sweep_prefilter_drops_only_rows_with_no_sections():
    # a class that meets a nef chamber ray negatively has no sections, so
    # sweep_box sends it to the kernel neither as D nor as K - D.  -K is a
    # ray and (K - D).(-K) = -5 - D.(-K), so no class is needed on both sides
    data = _box(3, _CHAMBER_RAYS)
    box, h0_mask, h2_mask, rows, h0_at, h2_at = (
        data.box, data.h0_mask, data.h2_mask, data.rows, data.h0_at, data.h2_at
    )
    classes = [DivClass(tuple(d)) for d in box.tolist()]
    assert h0_mask.tolist() == [min(d.dot(p) for p in _CHAMBER_RAYS) >= 0 for d in classes]
    assert h2_mask.tolist() == [min((K - d).dot(p) for p in _CHAMBER_RAYS) >= 0 for d in classes]
    assert not (h0_mask & h2_mask).any()
    # every needed class is one row, and the maps find it
    assert len(set(map(tuple, rows.tolist()))) == rows.shape[0]
    assert (rows[h0_at] == box[h0_mask]).all()
    assert (rows[h2_at] == np.array(K.coeffs) - box[h2_mask]).all()
    for t in catalog():
        for d in box[~h0_mask].tolist():
            assert _h0(tuple(d), t)[0] == 0, (t.label, d)
        for d in box[~h2_mask].tolist():
            assert _h0((K - DivClass(tuple(d))).coeffs, t)[0] == 0, (t.label, d)
    # against 40,745 and 108,202 rows with -K alone
    assert [_box(b, (-K,)).rows.shape[0] for b in (4, 5)] == [40745, 108202]
    assert [_box(b, _CHAMBER_RAYS).rows.shape[0] for b in (4, 5)] == [25845, 69646]


def test_prefilter_rays_are_the_dominant_chamber_rays_and_nef_on_every_type():
    # the cone D.r >= 0 on the simple roots r and D.e4 >= 0 is simplicial:
    # each ray is nef on the chamber's four other walls and positive on one
    walls = [*simple_roots(), E[4]]
    assert _CHAMBER_RAYS == (H, H - E[1], 2 * H - E[1] - E[2], 3 * H - E[1] - E[2] - E[3], -K)
    for p in _CHAMBER_RAYS:
        assert sorted(p.dot(w) for w in walls) == [0, 0, 0, 0, 1], p
    for t in catalog():
        assert all(p.dot(c) >= 0 for p in _CHAMBER_RAYS for c in negative_curves(t).all)
        assert _kernel(t).prefilter == _CHAMBER_RAYS, t.label


def test_sweep_prefilter_keeps_only_the_rays_nef_on_its_type():
    # II.1 relabelled so that its (-2)-curve is e2 - e1: h - e1 meets it in -1,
    # and the catalog's rays would drop the effective classes that meet h - e1
    # negatively, starting with e2 - e1 itself
    t = _surface("II.1'", [delta(2, 1)])
    assert _kernel(t).prefilter == tuple(p for p in _CHAMBER_RAYS if p != H - E[1])
    assert h_all(delta(2, 1), t) == (1, 1, 0)
    arr = sweep_box(t, bound=2, return_arrays=True)["arrays"]
    for row, *h in zip(*(arr[k].tolist() for k in ("box", "h0", "h1", "h2"))):
        assert h_all(DivClass(tuple(row)), t) == tuple(h), row


def test_h_all_runs_the_rounds_once_and_only_on_a_side_that_meets_minus_k(monkeypatch):
    # h_all applies the -K pre-filter of the sweep: one _h0 per class, on D
    # when D.(-K) >= 0, on K - D when D.(-K) <= -5 and on neither in between,
    # with the answers of the two-sided rounds
    box, chi, *_ = _box(3, _CHAMBER_RAYS)
    calls = []

    def counted(coeffs, t):
        calls.append(coeffs)
        return _h0(coeffs, t)

    monkeypatch.setattr(cohomology, "_h0", counted)
    for t in catalog():
        for d, c in zip(box.tolist(), chi.tolist()):
            d = DivClass(tuple(d))
            k = d.dot(-K)
            calls.clear()
            got = h_all(d, t)
            assert len(calls) == (not -5 < k < 0), (t.label, d)
            assert all(DivClass(x).dot(-K) >= 0 for x in calls), (t.label, d)
            h0, h2 = _h0(d.coeffs, t)[0], _h0((K - d).coeffs, t)[0]
            assert got == (h0, h0 + h2 - c, h2), (t.label, d)


def test_sweep_agrees_with_kernel_runs_on_d_and_k_minus_d_separately():
    # the sweep walks a class needed as D and as K - D once, on rows that
    # pass the pre-filter; two separate walks, one on every D of the box
    # and one on every K - D, without the pre-filter, repeat the work it
    # shares and skips, and each stays on its own rows
    data = _box(3, ())
    sides = []
    for at in (data.h0_at, data.h2_at):
        own = np.sort(at)
        sub = data._replace(rows=data.rows[own], codes=data.codes[own], row_chi=data.row_chi[own])
        sides.append((sub, np.searchsorted(own, at)))
    for t in catalog():
        kern = _kernel(t)
        h0, h2 = (_h0_rows(sub, kern)[back] for sub, back in sides)
        arr = sweep_box(t, bound=3, return_arrays=True)["arrays"]
        assert (h0 == arr["h0"]).all(), t.label
        assert (h2 == arr["h2"]).all(), t.label



def test_walk_stays_on_the_kernel_rows_at_bounds_0_to_6():
    # every row that meets a negative curve and no ray steps to a row (else
    # _h0_rows raises naming it), and pointer jumping ends within its cap
    # (else _jump raises); the rows that point, summed over the types
    real = sweep._jump
    pointing = []

    def counted(ptr, rows, label):
        pointing[-1] += int(np.count_nonzero(ptr != np.arange(ptr.size)))
        return real(ptr, rows, label)

    with mock.patch.object(sweep, "_jump", counted):
        for bound in range(7):
            pointing.append(0)
            for t in catalog():
                sweep_box(t, bound=bound)
    assert pointing == [0, 1141, 12473, 68675, 238993, 640199, 1447490]


def test_jump_follows_every_chain_to_its_end_and_raises_on_a_cycle():
    # the error names the first row whose chain does not end
    rows = np.arange(5000).reshape(1000, 5)
    ptr = np.array([1, 2, 4, 4, 4, 5, 5])
    assert _jump(ptr, rows, "X").tolist() == [4, 4, 4, 4, 4, 5, 5]
    chain = np.minimum(np.arange(1, 1001), 999)  # 999 steps, 10 passes
    assert _jump(chain, rows, "X").tolist() == [999] * 1000
    for cycle, first in (([1, 0], 0), ([1, 2, 0, 3], 0), ([0, 2, 3, 4, 1], 1)):
        row, passes = ", ".join(map(str, range(5 * first, 5 * first + 5))), len(cycle).bit_length()
        message = rf"^pointer jumping from \({row}\) on X did not end within {passes} passes$"
        with pytest.raises(CohomologyConsistencyError, match=message):
            _jump(np.array(cycle), rows, "X")


def test_a_step_that_leaves_the_kernel_rows_raises_naming_it():
    # drop the row that the first pointing row of the bound-2 box steps to;
    # the lookup then misses at that row, the first whose step it was
    t = surface_type("II.1")
    kern, data = _kernel(t), _box(2, _CHAMBER_RAYS)
    rows = [DivClass(tuple(r)) for r in data.rows.tolist()]
    for d in rows:
        if all(d.dot(p) >= 0 for p in kern.rays):
            curve = next((c for c in kern.curves if d.dot(c) < 0), None)
            if curve is not None:
                break
    gone = rows.index(d - curve)
    keep = np.arange(len(rows)) != gone
    cut = data._replace(rows=data.rows[keep], codes=data.codes[keep], row_chi=data.row_chi[keep])
    message = (
        rf"^the step from \({', '.join(map(str, d.coeffs))}\) by the curve "
        rf"\({', '.join(map(str, curve.coeffs))}\) on II\.1 leaves the kernel rows$"
    )
    with pytest.raises(CohomologyConsistencyError, match=message):
        _h0_rows(cut, kern)


def test_walk_refuses_a_curve_past_the_margin_of_the_codes():
    # a coefficient of 2 could step out of the widened grid, where a code
    # could name another row
    kern = _kernel(surface_type("V.2"))
    wide = SimpleNamespace(
        label="V.2'",
        curves=(*kern.curves, DivClass((2, 1, 1, 1, 1))),
        curve_ints=(*kern.curve_ints, (2, -1, -1, -1, -1)),
        ray_ints=kern.ray_ints,
    )
    with pytest.raises(CohomologyConsistencyError, match="^V.2': a curve leaves the margin"):
        _h0_rows(_box(1, _CHAMBER_RAYS), wide)


def test_sweep_matches_scalar_h_all_on_seeded_rows_at_bounds_6_and_8():
    # the walk and the scalar rounds share only the curves and the rays;
    # 100 seeded rows per type and bound, half of them effective
    rng = np.random.default_rng(2468)
    for bound in (6, 8):
        for t in catalog():
            arr = sweep_box(t, bound=bound, return_arrays=True)["arrays"]
            effective = np.flatnonzero(arr["h0"])
            picked = [*rng.integers(0, arr["box"].shape[0], 50), *rng.choice(effective, 50)]
            for i in picked:
                d = DivClass(tuple(arr["box"][i].tolist()))
                got = tuple(int(arr[h][i]) for h in ("h0", "h1", "h2"))
                assert got == h_all(d, t), (bound, t.label, d)


@pytest.mark.parametrize("bound", [-1, True, False, 2.5, "3", None])
def test_sweep_box_rejects_a_bound_that_is_not_a_nonnegative_int(bound):
    with pytest.raises(ValueError, match="sweep bound"):
        sweep_box(surface_type("I.1"), bound=bound)


def test_sweep_box_arrays_are_shared_read_only_and_repeatable():
    t = surface_type("IV.2")
    first = sweep_box(t, bound=2, return_arrays=True)
    second = sweep_box(t, bound=2, return_arrays=True)
    a, b = first.pop("arrays"), second.pop("arrays")
    assert first == second
    assert all((a[k] == b[k]).all() for k in a)
    # the box and chi are the cached arrays of every sweep at this bound
    for key in ("box", "chi"):
        assert a[key] is b[key]
        with pytest.raises(ValueError):
            a[key][0] = 0
    for data in _box(2, _CHAMBER_RAYS):
        with pytest.raises(ValueError):
            data[0] = 0


def _box_reference(bound, rays):
    """_box built the plain way, in int64: the box from np.indices, chi and
    the degrees on the rays by matrix products, the needed rows from a union
    of grid codes, the maps by binary search, and the rows' chi and codes
    in the grid widened by 1 on every side from the rows themselves."""
    signs, k = np.array(_SIGNS), np.array(K.coeffs)
    box = np.indices((2 * bound + 1,) * 5, dtype=np.int64).reshape(5, -1).T - bound
    chi = (box * (box - k)) @ signs // 2 + 1
    tests = np.array([signs * p.coeffs for p in rays]).reshape(-1, 5).T
    h0_mask, h2_mask = ((x @ tests >= 0).all(axis=1) for x in (box, k - box))
    corner, sides = np.minimum(-bound, k - bound), 2 * bound + 1 + np.abs(k)
    h0_codes = np.ravel_multi_index((box[h0_mask] - corner).T, sides)
    h2_codes = np.ravel_multi_index((k - box[h2_mask] - corner).T, sides)
    codes = np.union1d(h0_codes, h2_codes)
    rows = np.stack(np.unravel_index(codes, sides), axis=1) + corner
    row_chi = (rows * (rows - k)) @ signs // 2 + 1
    wide = sides + 2
    row_codes = np.ravel_multi_index((rows - corner + 1).T, wide)
    strides = np.ravel_multi_index(np.eye(5, dtype=np.int64), wide)
    at = (np.searchsorted(codes, h0_codes), np.searchsorted(codes, h2_codes))
    return box, chi, h0_mask, h2_mask, rows, row_codes, row_chi, *at, strides


@pytest.mark.parametrize("bound", range(7))
def test_box_matches_a_plain_int64_reference(bound):
    # the rays of the catalog, of a type that keeps four, of -K alone, and none
    all_rays = [_CHAMBER_RAYS, _kernel(_surface("II.1'", [delta(2, 1)])).prefilter, (-K,), ()]
    for rays in all_rays:
        data = _box(bound, rays)
        # box, chi and the kernel rows fit int8 up to bound 6 (|chi| <= 84,
        # the rows span -bound - 3 to bound); the maps and the codes take
        # the narrowest signed dtype that holds the row count and the size
        # of the widened grid
        at_dtype, code_dtype = (
            next(np.dtype(d) for d in (np.int8, np.int16, np.int32) if np.iinfo(d).max >= top)
            for top in (data.rows.shape[0], (2 * bound + 6) * (2 * bound + 4) ** 4 - 1)
        )
        dtypes = [np.int8, np.int8, bool, bool, np.int8, code_dtype, np.int8]
        dtypes += [at_dtype, at_dtype, np.int64]
        for name, got, want, dtype in zip(data._fields, data, _box_reference(bound, rays), dtypes):
            assert got.dtype == dtype, (bound, len(rays), name)
            assert got.shape == want.shape and (got == want).all(), (bound, len(rays), name)
            assert not got.flags.writeable, (bound, len(rays), name)


def test_narrow_dtypes_switch_at_the_int8_boundary():
    assert _int_dtype(-128, 127) == np.int8
    assert _int_dtype(0, 128) == _int_dtype(-129, 0) == np.int16
    assert _int_dtype(-(2**15), 2**15 - 1) == np.int16
    assert _int_dtype(0, 2**15) == np.int32
    assert _int_dtype(0, 2**31) == np.int64
    with pytest.raises(OverflowError):
        _int_dtype(0, 2**63)
    # a grid sum reaching 127 or -128 stays int8, one reaching 128 or -129
    # widens, and so does one whose partial sums leave int8 though every
    # total is 0
    terms = np.zeros((5, 2), dtype=np.int64)
    terms[:, 1] = [25, 25, 25, 25, 27]
    assert _on_grid(terms).dtype == np.int8 and _on_grid(terms).max() == 127
    terms[4, 1] = 28
    assert _on_grid(terms).dtype == np.int16 and _on_grid(terms).max() == 128
    assert _on_grid(-terms).dtype == np.int8 and _on_grid(-terms).min() == -128
    terms[4, 1] = 29
    assert _on_grid(-terms).dtype == np.int16 and _on_grid(-terms).min() == -129
    terms[:] = [[100], [100], [-100], [-100], [0]]
    assert _on_grid(terms).dtype == np.int16 and not _on_grid(terms).any()


def test_sweep_memory_stays_within_a_budget_of_the_kernel_rows():
    # in bytes per class of the box: _box keeps every array narrow, the
    # kernel rows, their codes and their chi too, and the walk holds a few
    # arrays of one entry per kernel row and chunk-sized float32 degrees.
    # _box holds 13.4 and 14.5 B at bounds 4 and 5, and a V.2 sweep at
    # bound 5 peaks at 11.7 B; the budgets leave 3% and 7%.  (The batch
    # rounds peaked at 36.5 B, with 11.2 and 12.3 B in _box; the row-major
    # kernel, which tested growth on every curve, peaked at 38.2 B.)
    for bound in (4, 5):
        data = _box(bound, _CHAMBER_RAYS)
        assert sum(a.nbytes for a in data) <= 15 * data.box.shape[0], bound
    t = surface_type("V.2")
    sweep_box(t, bound=5)  # builds _box outside the trace
    tracemalloc.start()
    try:
        info = sweep_box(t, bound=5, return_arrays=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["classes"] == 11**5
    assert peak <= 12.5 * info["classes"], peak / info["classes"]


def test_sweep_box_names_a_negative_h1_class_in_plain_ints(monkeypatch):
    # with h^0 = h^2 = 0 everywhere, h^1 = -chi; the first class of the
    # bound-1 box with chi > 0 is (0, -1, -1, -1, -1)
    monkeypatch.setattr(
        sweep, "_h0_rows", lambda data, kern: np.zeros(data.rows.shape[0], dtype=np.int64)
    )
    with pytest.raises(
        CohomologyConsistencyError, match=r"^negative h\^1 at \(0, -1, -1, -1, -1\) on I\.1$"
    ):
        sweep_box(surface_type("I.1"), bound=1)



def test_h0_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    # a chunk of 7 rows splits the degrees of the 11,878 rows into 1,697
    # products, the last one short
    data = _box(3, (-K,))
    want = {t.label: _h0_rows(data, _kernel(t)) for t in catalog()}
    monkeypatch.setattr(sweep, "_CHUNK", 7)
    for t in catalog():
        assert (_h0_rows(data, _kernel(t)) == want[t.label]).all(), t.label



def test_scalar_rounds_end_where_they_did_before_the_unimodular_exit():
    # (h^0, the class the rounds end at) of _h0 on the bound-3 box of every
    # type, in catalog order, as the rounds gave them when a det-1 round
    # still ran one more round to find its class nef
    digest = hashlib.sha256()
    for t in catalog():
        for d in itertools.product(range(-3, 4), repeat=5):
            h0, end = _h0(d, t)
            digest.update(repr((h0, end.coeffs)).encode())
    assert digest.hexdigest() == "c92c6f2ffbbf2cf6960544ac930a94f55dfde1c72117d658435450f27d73e290"


def test_sweep_outputs_are_those_of_the_row_major_kernel():
    # the dtype, shape and bytes of h0, h1 and h2 of sweep_box on every type
    # at bounds 0 to 5, as the kernel gave them when it stepped rows of
    # (n, 5) arrays and tested growth on every curve
    digest = hashlib.sha256()
    for bound in range(6):
        for t in catalog():
            arr = sweep_box(t, bound=bound, return_arrays=True)["arrays"]
            for key in ("h0", "h1", "h2"):
                a = arr[key]
                digest.update(repr((t.label, bound, key, a.dtype.str, a.shape)).encode())
                digest.update(a.tobytes())
    assert digest.hexdigest() == "a84e4a6f69488ccaa552b4504b79d2c658aa5c6a67091d3314d67c075914e392"


def test_sweep_outputs_take_a_dtype_that_holds_their_range(monkeypatch):
    # numpy setitem wraps silently, so a fixed narrow dtype would lose an
    # h^0 of 2^40 without an error
    t = surface_type("IV.2")
    plain = sweep_box(t, bound=4, return_arrays=True)["arrays"]
    assert all(plain[h].dtype.itemsize < 8 for h in ("h0", "h1", "h2"))
    data = _box(4, _CHAMBER_RAYS)
    d = int(np.flatnonzero(data.h0_mask)[0])  # h^0(D) is read off this row
    row = data.h0_at[0]
    real = sweep._h0_rows

    def bumped(data, kern):
        h0 = real(data, kern).astype(np.int64)
        h0[row] += 2**40
        return h0

    monkeypatch.setattr(sweep, "_h0_rows", bumped)
    faulted = sweep_box(t, bound=4, return_arrays=True)["arrays"]
    assert int(faulted["h0"][d]) == int(plain["h0"][d]) + 2**40
    assert int(faulted["h1"][d]) == int(plain["h1"][d]) + 2**40
