import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quintic.cohomology import (
    FLOAT_EXACT_LIMIT,
    CannotConcludeError,
    FloatRangeError,
    _box,
    _h0,
    _h0_rows,
    _kernel,
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
from quintic.lattice import E, H, K, ZERO, DivClass, delta, line_through, minus_one_classes
from quintic.surfaces import a3_block_classes, catalog, surface_type


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


def test_sweep_scalar_and_peeling_oracle_agree_on_bound_3_box():
    try:
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
    finally:
        _h0.cache_clear()


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
        ChainProblem(5, (0, 0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        ChainProblem(2, (0,), 1)
    with pytest.raises(ValueError):
        ChainProblem(2, (0, 0), 3)


def test_r1_vanishing_examples():
    assert r1_chain_vanishing(ChainProblem(1, (-1,), 1)).certified
    assert r1_chain_vanishing(ChainProblem(3, (0, -1, 0), 2)).certified
    res = r1_chain_vanishing(ChainProblem(1, (-2,), 1))
    assert not res.certified
    assert res.failing_step == (1, 1, -2)
    res = r1_chain_vanishing(ChainProblem(2, (-1, -1), 1))
    assert not res.certified
    assert res.failing_step is not None


def test_r1_vanishing_exhaustive_hypothesis_sweep():
    for n in (1, 2, 3, 4):
        for degrees in itertools.product(range(-1, 4), repeat=n):
            satisfies = [
                l
                for l in range(1, n + 1)
                if degrees[l - 1] >= -1
                and all(degrees[i] >= 0 for i in range(n) if i != l - 1)
            ]
            for l in satisfies:
                assert r1_chain_vanishing(ChainProblem(n, degrees, l)).certified, (
                    n,
                    degrees,
                    l,
                )


def test_r1_vanishing_stable_at_higher_levels():
    cert = r1_chain_vanishing(ChainProblem(4, (0, -1, 0, 0), 2), levels=10)
    assert cert.certified


def test_sweep_box_small_bound_consistency():
    for t in catalog():
        info = sweep_box(t, bound=2, spot_checks=25, seed=7)
        assert info["classes"] == 5**5
        assert info["h1_positive"] > 0
        assert info["max_h0"] >= chi_line(2 * H)


def test_sweep_matches_scalar_on_known_values():
    t = surface_type("I.1")
    info = sweep_box(t, bound=2, spot_checks=50, seed=123)
    assert info["type"] == "I.1"


def test_suite_sweep_consistency_check_is_real():
    from quintic.suites import _sweep_consistent

    info = sweep_box(surface_type("III.1"), bound=2, return_arrays=True)
    assert _sweep_consistent(info)
    arr = info["arrays"]
    # a wrong h^2 on a row whose Serre mirror K - D lies in the box; h^1
    # moves with it, so only duality can catch it
    row = next(
        i for i, r in enumerate(arr["box"].tolist())
        if all(abs(k - x) <= 2 for k, x in zip(K.coeffs, r))
    )
    arr["h2"][row] += 1
    arr["h1"][row] += 1
    assert not _sweep_consistent(info)


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
                # the table sizes quoted by the float64 carrier proof
                assert 1 <= det <= 6 and max(abs(x) for row in adj for x in row) <= 6
    assert solved == 532


def test_batch_row_past_the_float_limit_raises():
    rows = np.zeros((3, 5))
    rows[1, 2] = -(FLOAT_EXACT_LIMIT + 1)
    with pytest.raises(FloatRangeError, match=f"FLOAT_EXACT_LIMIT = {FLOAT_EXACT_LIMIT}$"):
        _h0_rows(rows, _kernel(surface_type("V.2")))


@pytest.mark.parametrize("label", [t.label for t in catalog()])
def test_batch_rows_at_the_float_limit_match_scalar(label):
    L = FLOAT_EXACT_LIMIT
    t = surface_type(label)
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
    try:
        got = _h0_rows(np.array(rows, dtype=np.float64), _kernel(t)).tolist()
        assert got == [_h0(r, t)[0] for r in rows]
        assert got[0] == (L + 1) * (L + 2) // 2  # h^0(O(L h)) > 2^49
    finally:
        _h0.cache_clear()


def test_sweep_prefilter_drops_only_rows_with_no_sections():
    # (K - D).(-K) = -5 - D.(-K): in the gap -5 < D.(-K) < 0 neither D nor
    # K - D passes step 1, so sweep_box never sends them to the kernel
    box, _, anti_k, rows = _box(3)
    classes = [DivClass(tuple(d)) for d in box.tolist()]
    assert anti_k.tolist() == [d.dot(-K) for d in classes]
    assert [(K - d).dot(-K) for d in classes] == (-5 - anti_k).tolist()
    gap = box[(anti_k > -5) & (anti_k < 0)].tolist()
    assert len(gap) + rows.shape[0] == box.shape[0]
    for t in catalog():
        for d in gap:
            assert _h0(tuple(d), t)[0] == 0, (t.label, d)
            assert _h0((K - DivClass(tuple(d))).coeffs, t)[0] == 0, (t.label, d)


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
    for data in _box(2):
        with pytest.raises(ValueError):
            data[0] = 0


@given(x=st.integers(-(2**53 - 1), 2**53 - 1), det=st.integers(1, 16))
@example(x=2**53 - 1, det=1)
@example(x=-(2**53 - 1), det=1)
@example(x=2**53 - 1, det=6)
@example(x=-(2**53 - 1), det=16)
@example(x=-6 * (2**49), det=6)
@example(x=16 * (2**48 - 1), det=16)
@example(x=-(2**53 - 2), det=2)
def test_float_floor_of_quotient_is_integer_floor_division(x, det):
    # the batch round takes -ceil(N) as floor(x / det) on float64
    assert np.floor(np.float64(x) / det) == x // det
