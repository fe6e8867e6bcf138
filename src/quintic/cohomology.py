"""Line-bundle cohomology on the weak del Pezzo surface.

h^0 is computed by Zariski rounds: Bauer's construction of the Zariski
decomposition (Zariski, Ann. Math. 76 (1962); T. Bauer, "A simple proof for
the existence of Zariski decompositions on surfaces", arXiv:0712.1576),
followed by removal of the round-up of the negative part.  The negative
curves of a type are its (-2)-curves and its irreducible (-1)-classes.  The
module assumes, as a weak del Pezzo surface of degree 5 in characteristic
zero provides, that a class meeting every negative curve nonnegatively is
nef and that a nef class D has h^0 = chi(D) and no higher cohomology
(Kawamata-Viehweg: D - K is nef and big).  h^2 is h^0(K - D) by Serre
duality and h^1 closes the Euler characteristic.

One round on a class D, with P_1, ..., P_k the extremal rays of the nef
cone described in (e):

1. If D.P_j < 0 for some j, then h^0(D) = 0.
2. If D.C >= 0 for every negative curve C, then h^0(D) = max(chi(D), 0).
3. Otherwise let S = {C : D.C < 0} and solve (D - N).C = 0 for C in S, with
   N a rational combination of the curves of S.  Add to S every negative
   curve C with (D - N).C < 0 and solve again, until no curve is added.
   By (c) and (e) the intersection matrix of S is negative definite.
4. Replace D by D - ceil(N) and start the next round.

Proofs.  Distinct irreducible curves meet nonnegatively, so when S is
negative definite, -M_S (M_S its intersection matrix) is a nonsingular
M-matrix and (-M_S)^{-1} is entrywise nonnegative with a positive diagonal.
Hence (*): a combination X of the curves of S with X.C <= 0 for every C in
S has nonnegative coefficients.

(a) N is effective, and nonzero.  The first solve has N.C = D.C < 0 on S,
    so (*) and the positive diagonal give N > 0 on every curve of the
    first S.  A growth step from S to S' changes N to N' with
    (N' - N).C = (D - N).C <= 0 for C in S', so N' >= N by (*).
(b) h^0(D) = h^0(D - ceil N).  Let E be an effective divisor in |D|, and
    write E = E_S + E' with E_S supported on S and E' without components
    in S.  For C in S, E.C = D.C = N.C, so (E_S - N).C = -E'.C <= 0 and (*)
    gives E_S >= N.  E is integral, so E >= ceil(N): every section of O(D)
    vanishes on ceil(N), and multiplication by its equation identifies the
    sections of O(D - ceil N) with those of O(D).
(c) If D is pseudo-effective, every S of step 3 is negative definite.  D
    has a Zariski decomposition D = P + N_Z with P nef and supp N_Z
    negative definite (Zariski; Fujita for pseudo-effective classes).
    Bauer's lemma: every S of step 3 lies in supp N_Z.  A first curve has
    N_Z.C = D.C - P.C < 0, so it is a component of N_Z.  If S lies in supp
    N_Z and is therefore negative definite, split N_Z = N_S + N' along S;
    for C in S, (N_S - N).C = -P.C - N'.C <= 0, so N_Z >= N by (*).  A curve
    added next has (D - N).C = P.C + (N_Z - N).C < 0 with P.C >= 0, so it is
    a component of the effective N_Z - N.  Subsets of a negative definite
    set are negative definite.
(d) The rounds terminate.  The measure class is A = P_1 + ... + P_k.  Each
    kernel checks A.C >= 1 on every negative curve C.  A class that passes
    step 1 has A.D = D.P_1 + ... + D.P_k >= 0.  By (a), ceil(N) is a
    nonzero effective combination of negative curves, so A.D drops by at
    least 1 per round, and once A.D < 0 some D.P_j < 0 and step 1 ends the
    rounds: at most A.D + 1 rounds.  This uses only that step 1 tests the
    P_j, not that they are all the extremal rays.  The drop is checked on
    every round; ReductionDivergenceError reports a failed check and is not
    a size cap.
(e) Step 1 is sound and passes only pseudo-effective classes.  Each P_j is
    checked nef on construction, so D.P_j < 0 makes D not effective.  The
    nef cone {D : D.C >= 0 for every negative curve C} is polyhedral, and
    pointed (D and -D nef make D numerically trivial), so in rank 5 it is
    the cone spanned by its extremal rays.  Each ray is cut out by four
    linearly independent curve functionals; P_j is its primitive integer
    generator, enumerated over all four-curve subsets by _nef_rays.  On a
    surface the pseudo-effective cone is the dual of the nef cone
    (Kleiman), so a D with D.P_j >= 0 for every j is pseudo-effective, and
    by (c) every S that step 3 meets on it is negative definite: a Zariski
    chamber (Bauer, Kuronya and Szemberg, "Zariski chambers, volumes, and
    stable base loci", 2004).  There are 10, 9, 9, 8, 7, 8, 7, 7, 7, 5, 5
    and 5 rays on the twelve types, in catalog order.

Support table.  Each type has one table keyed by the bitmask of S over
negative_curves(t).all, filled on first use with the Zariski chambers the
rounds meet.  A mask that is not negative definite raises
CohomologyConsistencyError naming the type and the mask; by (e) no round
asks for one.  An entry holds the indices of S, det = det(-M_S) and two
integer matrices, which are the one definition of a round on S.  With D
the row of its coefficients and b = (D.C) on S, det * N = adj(-M_S) (-b)
is integral, and

    D @ solve = (-det * N on S, det * (D - N).C on every curve),
    -ceil(N) @ step = (the change of D, minus the drop of A.D),

with -ceil(N) = floor(-det * N / det).  The columns of solve on the curves
outside S are the growth test of step 3, and the last column of step is
the drop check of (d).  adj(-M_S) and det come from Bareiss's
fraction-free elimination, then solve and step from integer matrix
products.  Scalar h_all applies them to one class in Python integers;
sweep_box applies float64 copies to rows of classes, grouping its open
rows by support mask at every growth step.  Step 1 and the masks of step
3 are read off one test matrix per type, the degrees of D on the curves
and on the rays: scalar h_all reads its integer columns, and sweep_box
its float64 copy.  Once the twelve bound-4 sweeps have run, the tables
hold exactly the 532 nonempty Zariski chambers of the twelve types.

The -K pre-filter.  Both forms need h^0(D) and h^2(D) = h^0(K - D), and
run the rounds on one of the two classes at most.  -K is nef: by
adjunction -K.C = C^2 + 2, which is 0 on a (-2)-curve and 1 on a
(-1)-curve, and each kernel checks -K.C >= 0 on its curves.  So -K lies in
the nef cone, and by (e) it is a nonnegative combination of the rays P_j.
A class X with X.(-K) < 0 therefore has X.P_j < 0 for some j, and step 1
ends it with h^0(X) = 0; skipping its rounds changes no answer.  Since
K^2 = 5, (K - D).(-K) = -5 - D.(-K), so at most one of D and K - D meets -K
nonnegatively, and neither does when -5 < D.(-K) < 0.  Scalar h_all reads
D.(-K) = 3a - b1 - b2 - b3 - b4 and runs the rounds on D when it is >= 0,
on K - D when it is <= -5, and not at all in between.  sweep_box does the
same for a box: the box, chi and D.(-K) do not depend on the type and are
computed once per bound, and the batch rounds run only on the D with
D.(-K) >= 0 and the K - D with D.(-K) <= -5, solving each such class once,
though a class can be needed both as D and as K - D (0.690 and 0.672 of
the box size at bounds 4 and 5, against twice the box size).

Float64 carrier.  The batch form runs every product in float64, used only
to carry integers, and keeps in float64 only the rows that a round steps;
its input rows and its other arrays are integers, and promoting an integer
below 2^53 to float64 is exact.  A sum of integer products is computed
exactly, in whatever order BLAS adds, when the absolute values of its
terms add up to less than 2^53.  Let X bound the absolute coefficients of
the open rows at the start of a round; each round checks
X <= FLOAT_EXACT_LIMIT = 2^25 and raises FloatRangeError otherwise.  Let m
be the number of curves, r the number of (-2)-curves, k the number of nef
rays, c the largest absolute curve coefficient and g the largest |C.C'|.
-M_S is positive definite with diagonal entries 2 and 1, so by Hadamard's
inequality its determinant and its principal minors are at most 2^r;
adj(-M_S) is positive definite too, so every |adj_ij| is at most 2^r.  A
round computes, per row, its degrees on the test matrix for step 1, then
on S row @ solve, -ceil(N) = floor(x / det) with x = -det * N, and
-ceil(N) @ step, on the float64 copies of the two integer matrices of the
support table.  With p = 5 c m 2^r the terms add up to at most X * F,
where

    F = max(max_j |P_j|_1, 5 c 2^r (1 + g m^2), 1 + m p max(c, A.C))

(max_j |P_j|_1 is at most 10, on III.2), the numerator D^2 - D.K of the
Euler characteristic adds up to at most 5 X (X + 3), and the products
that pack sign tests into codes, weight 2^i on curve i and 2^m on each
ray, stay below 2^m (k + 1).  Each kernel checks F * 2^25 < 2^53 (F is at
most 5761 on the twelve types, whose tables have det <= 6, |adj| <= 6,
g <= 2 and c = 1), and 5 * 2^25 * (2^25 + 3) < 2^53.  So every value is
an exact integer.

The floor of the float quotient is exact too.  IEEE division is correctly
rounded, so the computed quotient of integers x and det >= 1 is q = x/det
rounded to nearest, with error at most |x/det| * 2^-53.  If det divides x,
x/det is an integer below 2^53 and q equals it.  Otherwise x/det = n + f
with n = floor(x/det) and 1/det <= f <= 1 - 1/det; for |x| < 2^53 the error
is below 1/det, so n < q < n + 1 and floor(q) = n.

Memory.  Of the sweep's arrays only the rows that a round steps and the
products need float64; the rest are kept narrow, and the kernel keeps one
copy of its open rows.  _box holds the box, D.(-K), chi and the kernel
rows in the narrowest signed dtype that holds their values on the box,
chosen from the bound, so that no bound wraps (under NEP 50, int8 + 3
stays int8 and wraps silently).  The kernel rows are points of the grid
that holds both the box and K - box, which runs from its corner to bound
on every axis.  Each of the other three is a sum of one term per
coefficient: d_j itself, the weight of d_j in D.(-K), and half of
sign_j d_j (d_j - k_j) for chi, which is an integer because every k_j is
odd.  So the least and the greatest value over the box, and over each
partial sum, are sums of per-coefficient extremes, and _on_grid adds the
terms one axis at a time, by broadcasting into an array of that dtype,
with no n x 5 temporary.  Up to bound 6 all four are int8.  Arithmetic
that can leave that range runs wider: the grid codes of D and K - D in the
dtype of their own range (int32 at bound 5), chi of a row in int64 (int8
squares wrap), and h^0 in int64.  h0_at, h2_at and the kernel's row index
take the narrowest dtype that holds the row count, and the returned h0, h1
and h2 the narrowest that holds h^1 = h^0 + h^2 - chi, which lies between
-max chi and 2 max h^0 - min chi.  Round 1 promotes the narrow rows to
float64 one _CHUNK slice at a time for its products.  _h0_rows gathers the
open rows of a round, sorted by support mask, into float64 with one index,
and _step_round steps them in place a chunk at a time; where some rows of
a chunk grow their support, the others step and the grown rows step by
zero.  Under tracemalloc, at bound 5, _box holds 2.1 MiB (13.9 bytes per
class of the box, 37.4 with float64 kernel rows), a warm sweep on V.2
peaks 6.3 MiB (41 bytes per class) above it, and twelve sweeps peak
at 8.5 MiB with _box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from .euler import chi_line, euler_pair, f_tilde_class, hilbert_poly, structure_class
from .lattice import H, K, ZERO, DivClass, minus_one_classes
from .surfaces import SurfaceType

__all__ = [
    "NegativeCurveSet",
    "ReductionDivergenceError",
    "CohomologyConsistencyError",
    "FloatRangeError",
    "FLOAT_EXACT_LIMIT",
    "CannotConcludeError",
    "negative_curves",
    "h_all",
    "f_tilde_cohomology",
    "ChainProblem",
    "ChainCertificate",
    "r1_chain_vanishing",
    "sweep_box",
]


# the bound on the coefficients of an open batch row that keeps the
# float64 arithmetic of _h0_rows exact (module docstring)
FLOAT_EXACT_LIMIT = 2**25

_ANTI_K = -K
_SIGNS = np.array([1, -1, -1, -1, -1], dtype=np.int64)


class FloatRangeError(ArithmeticError):
    """A batch row exceeds FLOAT_EXACT_LIMIT, past which float64 may round."""


class ReductionDivergenceError(RuntimeError):
    """A Zariski round failed to lower the measure A.D (an invariant check)."""


class CohomologyConsistencyError(RuntimeError):
    pass


class CannotConcludeError(RuntimeError):
    pass


@dataclass(frozen=True)
class NegativeCurveSet:
    """Irreducible negative curves of a surface type, in a fixed order."""

    minus_two: tuple[DivClass, ...]
    minus_one_irred: tuple[DivClass, ...]

    @property
    def all(self) -> tuple[DivClass, ...]:
        return self.minus_two + self.minus_one_irred


@lru_cache(maxsize=None)
def negative_curves(t: SurfaceType) -> NegativeCurveSet:
    """(-2)-curves of t plus the (-1)-classes staying irreducible on t.

    A (-1)-class decomposes exactly when it meets an effective (-2)-curve
    negatively (the total transform picks up that curve), so the
    irreducible ones are those with nonnegative degree on every Delta.
    """
    minus_two = tuple(sorted(t.minus_two_curves, key=lambda d: d.coeffs))
    minus_one = tuple(
        sorted(
            (
                l
                for l in minus_one_classes()
                if all(l.dot(c) >= 0 for c in minus_two)
            ),
            key=lambda d: d.coeffs,
        )
    )
    return NegativeCurveSet(minus_two, minus_one)


class _Support:
    """A negative definite support S: its curve indices, det(-M_S) and the
    integer matrices solve and step of a round on S (module docstring,
    support table), as tuples of their columns for the scalar form, and
    batch, their row-major float64 copies for the batch form (transposed
    views slow the matmuls)."""

    __slots__ = ("idx", "det", "solve", "step", "batch")

    def __init__(self, kern: "_Kernel", idx: list[int], adj, det: int):
        self.idx = idx
        self.det = det
        neg_n = kern.curve_cols[:, idx] @ np.array(adj, dtype=np.int64).T
        grow = det * kern.curve_cols + neg_n @ kern.gram_np[idx]
        solve = np.hstack([neg_n, grow])
        step = np.column_stack([kern.cmat[idx], kern.measure_np[idx]])
        self.solve, self.step = (tuple(map(tuple, x.T.tolist())) for x in (solve, step))
        self.batch = (solve.astype(np.float64), step.astype(np.float64))


def _solve_support(
    gram, idx: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], int] | None:
    """(adj(-M_S), det(-M_S)) for the curves idx, or None unless -M_S is
    positive definite.

    Bareiss's fraction-free Gauss-Jordan elimination (Math. Comp. 22, 1968)
    on [-M_S | I] without row exchanges: step k replaces every other row x
    by (p_k x - x_k r_k) / p_{k-1}, r_k the pivot row, and every division
    is exact.  The pivot p_k of step k is the k-th leading principal minor,
    so by Sylvester's criterion -M_S is positive definite iff every pivot is
    positive; the elimination then ends at [det I | adj].
    """
    n = len(idx)
    rows = [
        [-gram[i][j] for j in idx] + [int(r == c) for c in range(n)]
        for r, i in enumerate(idx)
    ]
    prev = 1
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            return None
        for r, row in enumerate(rows):
            if r != k:
                f = row[k]
                rows[r] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return tuple(tuple(row[n:]) for row in rows), prev


def _sign(perm: tuple[int, ...]) -> int:
    return (-1) ** sum(x > y for x, y in combinations(perm, 2))


# Laplace along the first three rows: det([x; r1; r2; r3; r4]) = x . v with
# v_j the sum, over the splits of the other four columns into pairs a and b,
# of sign(j, a, b) * (r1 ^ r2)_a * (r3 ^ r4)_b, where (r ^ s)_(c, d) is the
# 2 x 2 minor r_c s_d - r_d s_c; one row (a, b, sign) per term, j-major
_PAIRS = tuple(combinations(range(5), 2))
_PAIR_C, _PAIR_D = np.array(_PAIRS).T
_LAPLACE = np.array(
    [
        (_PAIRS.index(a), _PAIRS.index(b), _sign((j, *a, *b)))
        for j in range(5)
        for a in _PAIRS
        for b in _PAIRS
        if len({j, *a, *b}) == 5
    ]
).T


def _nef_rays(func: np.ndarray) -> tuple[DivClass, ...]:
    """The primitive integer generators of the extremal rays of the cone
    {D : func @ D >= 0}, for an integer matrix func of rank 5.

    Every extremal ray of a pointed polyhedral cone in rank 5 is cut out by
    four linearly independent facet functionals, and spans the kernel of
    those four rows.  For each four rows the vector v of signed 4 x 4
    minors, computed exactly in int64 by the Laplace expansion above, spans
    that kernel when the rows are independent and is zero otherwise; a
    nonzero v is kept, up to sign, when it is nonnegative on every row.
    """
    quads = func[np.array([*combinations(range(func.shape[0]), 4)], dtype=np.intp)]
    c, d = quads[..., _PAIR_C], quads[..., _PAIR_D]
    wedge = c[:, 0::2] * d[:, 1::2] - d[:, 0::2] * c[:, 1::2]  # r1 ^ r2 and r3 ^ r4
    a, b, sign = _LAPLACE
    v = (wedge[:, 0, a] * wedge[:, 1, b] * sign).reshape(-1, 5, 6).sum(axis=2)
    v = v[v.any(axis=1)]
    v //= np.gcd.reduce(v, axis=1)[:, None]
    degs = v @ func.T
    v = np.concatenate([v[(degs >= 0).all(axis=1)], -v[(degs <= 0).all(axis=1)]])
    return tuple(DivClass(r) for r in sorted(set(map(tuple, v.tolist()))))


class _Kernel:
    """Per-type data of the Zariski rounds, shared by the scalar and batch
    forms: the negative curves, the extremal rays of the nef cone (step 1),
    their sum A (the measure class of (d)) and the support table of the
    Zariski chambers."""

    def __init__(self, t: SurfaceType):
        nc = negative_curves(t)
        self.label = t.label
        self.curves = nc.all
        m = len(self.curves)
        self.gram = tuple(tuple(c.dot(e) for e in self.curves) for c in self.curves)
        self.cmat = np.array([c.coeffs for c in self.curves], dtype=np.int64).reshape(m, 5)
        self.curve_cols = (self.cmat * _SIGNS).T
        self.gram_np = np.array(self.gram, dtype=np.int64).reshape(m, m)
        self._table: dict[int, _Support] = {}
        # the -K pre-filter of h_all and _box rests on -K being nef
        for c in self.curves:
            if c.dot(_ANTI_K) < 0:
                raise CohomologyConsistencyError(
                    f"{t.label}: -K meets the negative curve {c.coeffs} negatively"
                )
        self.rays = _nef_rays(self.curve_cols.T)
        for ray in self.rays:
            if any(ray.dot(c) < 0 for c in self.curves):
                raise CohomologyConsistencyError(f"{t.label}: ray {ray.coeffs} is not nef")
        measure = sum(self.rays, ZERO)
        self.measure_np = np.array([measure.dot(c) for c in self.curves], dtype=np.int64)
        if (self.measure_np <= 0).any():
            raise CohomologyConsistencyError(f"{t.label}: measure class not positive on curves")
        k = len(self.rays)
        # row @ test_cols: the degrees on the curves, then on the rays; the
        # scalar form reads its integer columns
        ray_cols = (_SIGNS * r.coeffs for r in self.rays)
        tests = np.array([*self.curve_cols.T, *ray_cols], dtype=np.int64).T
        columns = tuple(map(tuple, tests.T.tolist()))
        self.curve_ints, self.ray_ints = columns[:m], columns[m:]
        self.test_cols = tests.astype(np.float64)
        # a negative degree sets bit i on curve i and weighs 2^m on a ray, so
        # a code >= 2^m means step 1 ends the row
        self.bits = np.minimum(2.0 ** np.arange(m + k), 2.0**m)
        self.code_dtype = np.min_scalar_type(((k + 1) << m) - 1)
        # the float64 carrier bound of the module docstring
        c = int(np.abs(self.cmat).max(initial=0))
        g = int(np.abs(self.gram_np).max(initial=0))
        alpha = 2 ** len(nc.minus_two)
        p = 5 * c * m * alpha
        factor = max(
            *(sum(map(abs, ray.coeffs)) for ray in self.rays),
            5 * c * alpha * (1 + g * m * m),
            1 + m * p * max(c, int(self.measure_np.max())),
        )
        if factor * FLOAT_EXACT_LIMIT >= 2**53:
            raise CohomologyConsistencyError(
                f"{t.label}: float64 carrier bound {factor} * FLOAT_EXACT_LIMIT reaches 2^53"
            )

    def support(self, mask: int) -> _Support:
        if mask not in self._table:
            idx = [i for i in range(len(self.curves)) if mask >> i & 1]
            solved = _solve_support(self.gram, idx)
            if solved is None:
                raise CohomologyConsistencyError(
                    f"{self.label}: support mask {mask:#x} is not negative definite"
                )
            self._table[mask] = _Support(self, idx, *solved)
        return self._table[mask]


@lru_cache(maxsize=None)
def _kernel(t: SurfaceType) -> _Kernel:
    return _Kernel(t)


def _h0(coeffs: tuple[int, ...], t: SurfaceType) -> tuple[int, DivClass]:
    """h^0 of the class coeffs on t by Zariski rounds, and the class the
    rounds end at."""
    kern = _kernel(t)
    a, b1, b2, b3, b4 = coeffs
    while True:
        for x, y1, y2, y3, y4 in kern.ray_ints:  # step 1
            if a * x + b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4 < 0:
                return 0, DivClass((a, b1, b2, b3, b4))
        mask, bit = 0, 1
        for x, y1, y2, y3, y4 in kern.curve_ints:
            if a * x + b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4 < 0:
                mask |= bit
            bit <<= 1
        if not mask:
            d = DivClass((a, b1, b2, b3, b4))
            return max(chi_line(d), 0), d
        while True:  # step 3
            sup = kern.support(mask)
            s = len(sup.idx)
            prod = [
                a * x + b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4 for x, y1, y2, y3, y4 in sup.solve
            ]
            grown, bit = mask, 1
            for x in prod[s:]:
                if x < 0:
                    grown |= bit
                bit <<= 1
            if grown == mask:
                break
            mask = grown
        neg_ceil = [x // sup.det for x in prod[:s]]
        da, db1, db2, db3, db4, drop = (sum(map(mul, neg_ceil, col)) for col in sup.step)
        if drop >= 0:
            raise ReductionDivergenceError(
                f"Zariski round did not lower A.D at {coeffs} on {t.label}"
            )
        a, b1, b2, b3, b4 = a + da, b1 + db1, b2 + db2, b3 + db3, b4 + db4


def h_all(d: DivClass, t: SurfaceType) -> tuple[int, int, int]:
    """Exact (h^0, h^1, h^2) of O(D) on the given surface type.

    The rounds run on one side only, by the -K pre-filter of the module
    docstring: on D when D.(-K) >= 0, on K - D when D.(-K) <= -5, and on
    neither in between.  A side they skip meets -K negatively, so some nef
    ray negatively, and has h^0 = 0.
    """
    anti_k = d.dot(_ANTI_K)
    h0 = h2 = 0
    if anti_k >= 0:
        h0 = _h0(d.coeffs, t)[0]
    elif anti_k <= -5:
        h2 = _h0((K - d).coeffs, t)[0]
    h1 = h0 + h2 - chi_line(d)
    if h1 < 0:
        raise CohomologyConsistencyError(
            f"negative h^1 = {h1} for {d!r} on {t.label}"
        )
    return h0, h1, h2


def f_tilde_cohomology(t: SurfaceType) -> tuple[int, int, int]:
    """Cohomology of the rank-2 extension of O(h) by O(-K-h).

    Both filtration pieces must have no higher cohomology, in which case
    the section spaces add up; the total is cross-checked against the
    Euler characteristic of the extension class.
    """
    lower = h_all(-K - H, t)
    upper = h_all(H, t)
    if lower[1:] != (0, 0) or upper[1:] != (0, 0):
        raise CannotConcludeError(
            f"{t.label}: filtration pieces have higher cohomology "
            f"{lower}, {upper}"
        )
    h0 = lower[0] + upper[0]
    cls = f_tilde_class()
    if euler_pair(structure_class(), cls) != h0 or hilbert_poly(cls)(0) != h0:
        raise CohomologyConsistencyError("extension class chi mismatch")
    if cls.c1 != -K:
        raise CohomologyConsistencyError("extension class determinant mismatch")
    return (h0, 0, 0)


# ---------------------------------------------------------------------------
# The R^1-vanishing certificate for a line bundle along an A_n chain of
# (-2)-curves.


@dataclass(frozen=True)
class ChainProblem:
    degrees: tuple[int, ...]  # one per curve of the chain, so n = len(degrees)
    l: int

    def __post_init__(self):
        if not 1 <= len(self.degrees) <= 4:
            raise ValueError("chain length must be 1..4")
        if not 1 <= self.l <= len(self.degrees):
            raise ValueError("distinguished index out of range")


@dataclass(frozen=True)
class ChainCertificate:
    certified: bool
    failing_step: tuple[int, int, int] | None = None  # (level, curve, degree)


def r1_chain_vanishing(p: ChainProblem) -> ChainCertificate:
    """Certify R^1 f_* O(D) = 0 along the chain E_1, ..., E_n from the
    degrees d_j = D.E_j: certified iff d_l >= -1 and d_j >= 0 for j != l.

    Proof.  Add curves to a cycle Z, from 0, in the schedule l, l+1, ..., n,
    l-1, ..., 1, one pass per level k = 1, 2, ..., so that level k ends at
    Z = k(E_1 + ... + E_n).  Adding E_j is the sequence
    0 -> O_{E_j}(D - Z) -> O_{Z+E_j}(D) -> O_Z(D) -> 0, and H^1(P^1, O(m))
    = 0 for m >= -1.  So if every step has (D - Z).E_j >= -1, every cycle
    has H^1(O_Z(D)) = 0, and by the theorem on formal functions so does
    R^1 f_* O(D): the k-th power of the maximal ideal of the rational double
    point pulls back to O(-k(E_1 + ... + E_n)) (Artin, Amer. J. Math. 88
    (1966); Lipman, Publ. IHES 36 (1969)).

    Level 1 decides.  At level k, the curves before E_j in the schedule
    have multiplicity k and the rest k - 1, so (D - Z).E_j is
    d_l + (k - 1)(2 - #neighbours of l) for j = l, d_j - 1 for an interior
    j != l, and d_j + k - 2 for an end j != l.  Each is at least its value
    at k = 1, which is d_l or d_j - 1.  So every level passes when level 1
    does, and otherwise the first j of the schedule whose level-1 degree is
    below -1 fails, with failing_step (1, j, d_j - [j != l]).
    """
    n, l = len(p.degrees), p.l
    for j in [*range(l, n + 1), *range(l - 1, 0, -1)]:
        deg = p.degrees[j - 1] - (j != l)
        if deg < -1:
            return ChainCertificate(False, (1, j, deg))
    return ChainCertificate(True)


# ---------------------------------------------------------------------------
# Vectorized exhaustive sweep over a coefficient box, used by the
# acceptance battery: the Zariski rounds of _h0 run on rows of integers,
# carried in float64, over the same support table; the caller can
# cross-check random rows against the scalar path.


def _chi_rows(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
    """chi = (D^2 - D.K)/2 + 1 of the rows at of an array of integers,
    narrow or float64, summed a column at a time; each column is widened to
    int64 before it is multiplied, since int8 squares wrap."""
    num = np.zeros(at.size, dtype=np.int64)
    for j, (sign, k) in enumerate(zip(_SIGNS.tolist(), K.coeffs)):
        col = rows[at, j].astype(np.int64)
        num += sign * col * (col - k)
    odd = (num & 1).astype(bool)
    if odd.any():
        bad = tuple(int(x) for x in rows[at[odd][0]])
        raise CohomologyConsistencyError(f"parity violation in chi at {bad}")
    return (num >> 1) + 1


def _check_float_range(rows: np.ndarray, kern: _Kernel) -> None:
    # compared with both limits, not negated: -(-128) wraps in int8
    if rows.size and (rows.max() > FLOAT_EXACT_LIMIT or rows.min() < -FLOAT_EXACT_LIMIT):
        bad = rows[((rows > FLOAT_EXACT_LIMIT) | (rows < -FLOAT_EXACT_LIMIT)).any(axis=1)][0]
        raise FloatRangeError(
            f"row {tuple(int(x) for x in bad)} on {kern.label} has a coefficient "
            f"beyond the float64-exact limit FLOAT_EXACT_LIMIT = {FLOAT_EXACT_LIMIT}"
        )


_CHUNK = 8192


def _round_codes(rows: np.ndarray, kern: _Kernel) -> np.ndarray:
    """Bit i of a row's code is set iff D.C_i < 0 for curve i, and the code
    is at least 2^m iff step 1 of a round ends the row (kern.bits).

    Built _CHUNK rows at a time, each promoted to float64 for its product,
    so that the float64 temporaries stay small.
    """
    codes = np.empty(rows.shape[0], dtype=kern.code_dtype)
    for lo in range(0, rows.shape[0], _CHUNK):
        chunk = rows[lo : lo + _CHUNK].astype(np.float64, copy=False)
        codes[lo : lo + _CHUNK] = (chunk @ kern.test_cols < 0) @ kern.bits
    return codes


def _h0_rows(rows: np.ndarray, kern: _Kernel) -> np.ndarray:
    """h^0 of every row of an array of integer coefficients, narrow or
    float64, by the rounds of _h0; rows is not modified.

    A row leaves when a round ends it; only the rows that end at a nef
    class are written, every other ending has h^0 = 0.  Each round gathers
    its open rows, sorted by support mask, into one new float64 array, and
    _step_round steps them there in place.
    """
    m = len(kern.curves)
    h0 = np.zeros(rows.shape[0], dtype=np.int64)
    cur, idx = rows, np.arange(rows.shape[0], dtype=_int_dtype(0, rows.shape[0]))
    while idx.size:
        _check_float_range(cur, kern)
        masks = _round_codes(cur, kern)
        nef = np.flatnonzero(masks == 0)
        h0[idx[nef]] = np.maximum(_chi_rows(cur, nef), 0)
        order = np.flatnonzero((masks != 0) & (masks < 1 << m))
        order = order[np.argsort(masks[order], kind="stable")]
        cur, idx, masks = cur[order].astype(np.float64, copy=False), idx[order], masks[order]
        del nef, order  # else both live through the round
        _step_round(cur, masks, kern, rows, idx)
    return h0


def _step_round(
    cur: np.ndarray, masks: np.ndarray, kern: _Kernel, rows: np.ndarray, idx: np.ndarray
) -> None:
    """Step every row of cur by one round, in place; cur is sorted by masks,
    the support masks of its rows, and rows[idx] are the classes they came
    from.

    todo holds the positions of the rows whose support is still growing,
    sorted by mask and, within a mask, by position, so that a group is a
    slice of cur when its positions are consecutive, as they all are on
    the first pass.  A group is taken _CHUNK rows at a time, so that no
    temporary outgrows a chunk, and a chunk on other positions is
    gathered.  The rows whose support grows join todo and wait for the
    next pass; the others are stepped, and the grown rows with them, by a
    delta of zero.
    """
    m = len(kern.curves)
    todo = np.arange(cur.shape[0])
    todo_masks = masks
    while todo.size:
        starts = np.flatnonzero(np.r_[True, todo_masks[1:] != todo_masks[:-1]])
        grew = np.zeros(todo.size, dtype=bool)
        for start, end in zip(starts, np.r_[starts[1:], todo.size]):
            mask = int(todo_masks[start])
            sup = kern.support(mask)
            s = len(sup.idx)
            solve, step = sup.batch
            for lo in range(start, end, _CHUNK):
                at = todo[lo : min(lo + _CHUNK, end)]
                in_place = at[-1] - at[0] == at.size - 1
                block = cur[at[0] : at[-1] + 1] if in_place else cur[at]
                prod = block @ solve
                grown = mask | ((prod[:, s:] < 0) @ kern.bits[:m]).astype(masks.dtype)
                stay = grown == mask
                if not stay.all():
                    masks[at], grew[lo : lo + at.size] = grown, ~stay
                    if not stay.any():
                        continue
                # -ceil(N), exactly (module docstring, float64 carrier)
                delta = np.floor(prod[:, :s] / sup.det) @ step
                delta[~stay] = 0
                stuck = (delta[:, 5] >= 0) & stay
                if stuck.any():
                    raise ReductionDivergenceError(
                        "Zariski round did not lower A.D at "
                        f"{tuple(int(c) for c in rows[idx[at[stuck][0]]])} on {kern.label}"
                    )
                if in_place:
                    block += delta[:, :5]
                else:
                    cur[at] = block + delta[:, :5]
        todo = todo[grew]
        todo = todo[np.lexsort((todo, masks[todo]))]
        todo_masks = masks[todo]


def _int_dtype(lo: int, hi: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every integer of [lo, hi]:
    a signed dtype holds hi exactly when it holds -hi - 1."""
    dtype = np.min_scalar_type(min(lo, -hi - 1))
    if dtype.kind != "i":
        raise OverflowError(f"no signed integer dtype holds [{lo}, {hi}]")
    return dtype


def _on_grid(terms: np.ndarray) -> np.ndarray:
    """terms[0, i_0] + ... + terms[4, i_4] at every point (i_0, ..., i_4) of
    the grid {0, ..., s - 1}^5, s = terms.shape[1], flattened in C order.

    The sum is built one axis at a time, by broadcasting, in the narrowest
    signed dtype that holds every term and every partial sum, so that no
    step wraps: the partial sums over the first j axes range exactly over
    the sums of the first j row minima and maxima."""
    s = terms.shape[1]
    lows, highs = np.cumsum(terms.min(axis=1)), np.cumsum(terms.max(axis=1))
    dtype = _int_dtype(
        min(0, int(terms.min()), int(lows.min())), max(0, int(terms.max()), int(highs.max()))
    )
    out = np.zeros((s,) * 5, dtype=dtype)
    for j, row in enumerate(terms.astype(dtype)):
        out += row.reshape((s,) + (1,) * (4 - j))
    return out.reshape(-1)


class _BoxData(NamedTuple):
    box: np.ndarray  # the classes D, one per row, in the narrowest dtype holding +-bound
    chi: np.ndarray  # chi(D), in the narrowest dtype holding its range on the box
    anti_k: np.ndarray  # D.(-K), likewise
    rows: np.ndarray  # the kernel's input, each needed class once, in the narrowest dtype
    h0_at: np.ndarray  # the row of D, for each D with D.(-K) >= 0
    h2_at: np.ndarray  # the row of K - D, for each D with D.(-K) <= -5


@lru_cache(maxsize=1)
def _box(bound: int) -> _BoxData:
    """The type-independent data of a sweep at bound, shared read-only by
    every type: rows holds each of the D with D.(-K) >= 0 and the K - D with
    D.(-K) <= -5 once (module docstring, the -K pre-filter), in the order of
    their codes in the grid that holds both the box and K - box.  The
    integer arrays take the narrowest signed dtypes that hold them (module
    docstring, memory); h0_at and h2_at the narrowest that holds the row
    count."""
    s = 2 * bound + 1
    r = np.arange(-bound, bound + 1)
    k = np.array(K.coeffs)[:, None]
    box = np.empty((s**5, 5), dtype=_int_dtype(-bound, bound))
    grid = box.reshape((s,) * 5 + (5,))
    for j in range(5):
        grid[..., j] = r.reshape((s,) + (1,) * (4 - j))
    anti_k = _on_grid((_SIGNS * _ANTI_K.coeffs)[:, None] * r)
    # D^2 - D.K = sum_j sign_j d_j (d_j - k_j); every k_j is odd, so each
    # term is even, and chi = 1 + the sum of the halved terms
    num = _SIGNS[:, None] * r * (r - k)
    if (num & 1).any():
        raise CohomologyConsistencyError(f"parity violation in chi at bound {bound}")
    half = num >> 1
    half[0] += 1
    chi = _on_grid(half)
    # the codes of D and of K - D in the grid that holds both the box and K - box
    corner = np.minimum(-bound, k - bound)
    sides = tuple((s + np.abs(k)).ravel().tolist())
    strides = np.cumprod((1, *sides[:0:-1]))[::-1, None]
    h0_codes = _on_grid((r - corner) * strides)[anti_k >= 0]
    h2_codes = _on_grid((k - r - corner) * strides)[anti_k <= -5]
    marked = np.zeros(sides, dtype=bool)
    flat = marked.reshape(-1)
    flat[h0_codes] = flat[h2_codes] = True
    # every axis of that grid runs from its corner up to bound
    rows = np.empty((np.count_nonzero(flat), 5), dtype=_int_dtype(int(corner.min()), bound))
    rank = np.cumsum(flat, dtype=_int_dtype(-1, rows.shape[0]))
    rank -= 1
    for j, side in enumerate(sides):
        coord = np.arange(side) + corner[j]
        rows[:, j] = np.broadcast_to(coord.reshape((side,) + (1,) * (4 - j)), sides)[marked]
    data = _BoxData(box, chi, anti_k, rows, rank[h0_codes], rank[h2_codes])
    for a in data:
        a.setflags(write=False)
    return data


def sweep_box(t: SurfaceType, bound: int = 4, return_arrays: bool = False) -> dict:
    """h_all on every class with |coefficients| <= bound, with consistency
    checks (h^1 >= 0, parity of chi, the drop of A.D) built in.

    The box and chi in the returned arrays are shared with later sweeps at
    the same bound and are read-only, in the narrow dtypes of _box; h0, h1
    and h2 take the narrowest signed dtype that holds their range."""
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise ValueError(f"sweep bound must be an int >= 0, not {bound!r}")
    box, chi, anti_k, rows, h0_at, h2_at = _box(bound)
    n = box.shape[0]
    h0 = _h0_rows(rows, _kernel(t))
    # h^1 = h^0 + h^2 - chi lies in [-max chi, 2 max h^0 - min chi], and
    # numpy setitem wraps silently, so the dtype comes from that range; one
    # block for the three answers: fewer, larger allocations also keep glibc
    # from returning and re-faulting the pages on every sweep
    top = int(h0.max(initial=0))
    dtype = _int_dtype(min(0, -int(chi.max())), 2 * top - min(0, int(chi.min())))
    h0_d, h1_d, h2_d = np.zeros((3, n), dtype=dtype)
    h0_d[anti_k >= 0] = h0[h0_at]
    h2_d[anti_k <= -5] = h0[h2_at]
    del h0
    np.add(h0_d, h2_d, out=h1_d)
    h1_d -= chi
    if h1_d.min() < 0:
        bad = box[np.argmax(h1_d < 0)]
        raise CohomologyConsistencyError(f"negative h^1 at {tuple(bad.tolist())} on {t.label}")

    info = {
        "type": t.label,
        "bound": bound,
        "classes": int(n),
        "effective": int(np.count_nonzero(h0_d)),
        "h1_positive": int(np.count_nonzero(h1_d)),
        "max_h0": int(h0_d.max()),
    }
    if return_arrays:
        info["arrays"] = {"box": box, "h0": h0_d, "h1": h1_d, "h2": h2_d, "chi": chi}
    return info
