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

Sweep pre-filter.  sweep_box needs h^0(D) and h^2(D) = h^0(K - D) on every
class D of a box.  -K is nef: by adjunction -K.C = C^2 + 2, which is 0 on
a (-2)-curve and 1 on a (-1)-curve.  So D.(-K) < 0 gives h^0(D) = 0.
Since K^2 = 5, (K - D).(-K) = -5 - D.(-K), so at most one of D and K - D
meets -K nonnegatively, and neither does when -5 < D.(-K) < 0.  The box,
chi and D.(-K) do not depend on the type, and are computed once per
bound; the batch rounds then run only on the D with D.(-K) >= 0 and the
K - D with D.(-K) <= -5, and solve each such class once, though a class
can be needed both as D and as K - D (0.690 and 0.672 of the box size at
bounds 4 and 5, against twice the box size).  Every other row has h^0 = 0
because -K is nef.

Float64 carrier.  The batch form keeps its rows in float64 and runs every
product there, used only to carry integers: a sum of integer products is
computed exactly, in whatever order BLAS adds, when the absolute values of
its terms add up to less than 2^53.  Let X bound the absolute coefficients
of the open rows at the start of a round; each round checks
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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import add, mul
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
_KVEC = np.array(K.coeffs, dtype=np.float64)


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
    kern = _kernel(t)
    d = DivClass(coeffs)
    while True:
        a, b1, b2, b3, b4 = d.coeffs
        for x, y1, y2, y3, y4 in kern.ray_ints:  # step 1
            if a * x + b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4 < 0:
                return 0, d
        mask = sum(
            1 << i
            for i, (x, y1, y2, y3, y4) in enumerate(kern.curve_ints)
            if a * x + b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4 < 0
        )
        if not mask:
            return max(chi_line(d), 0), d
        while True:  # step 3
            sup = kern.support(mask)
            s = len(sup.idx)
            prod = [
                a * x + b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4 for x, y1, y2, y3, y4 in sup.solve
            ]
            grown = mask | sum(1 << i for i, x in enumerate(prod[s:]) if x < 0)
            if grown == mask:
                break
            mask = grown
        neg_ceil = [x // sup.det for x in prod[:s]]
        *change, measure_change = (sum(map(mul, neg_ceil, col)) for col in sup.step)
        if measure_change >= 0:
            raise ReductionDivergenceError(
                f"Zariski round did not lower A.D at {coeffs} on {t.label}"
            )
        d = DivClass(tuple(map(add, d.coeffs, change)))


def h_all(d: DivClass, t: SurfaceType) -> tuple[int, int, int]:
    """Exact (h^0, h^1, h^2) of O(D) on the given surface type."""
    h0 = _h0(d.coeffs, t)[0]
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
# (-2)-curves, by simulating the formal-neighbourhood induction: curves are
# added one at a time in the order E_l, ..., E_n, E_{l-1}, ..., E_1, one
# full round per multiplicity level, and every added curve must have degree
# >= -1 on the remaining twist.


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
    """Certify R^1 f_* O(D) = 0 along the chain from the degree data.

    Simulates multiplicity levels m = 1 .. n+2; per-step degrees are
    checked to be >= -1 and to stabilize (non-decreasing beyond the first
    level, since a full round of the chain has nonpositive degree on each
    curve).
    """
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


# ---------------------------------------------------------------------------
# Vectorized exhaustive sweep over a coefficient box, used by the
# acceptance battery: the Zariski rounds of _h0 run on float64 rows of
# integers over the same support table; the caller can cross-check random
# rows against the scalar path.



def _chi_rows(rows: np.ndarray) -> np.ndarray:
    """chi = (D^2 - D.K)/2 + 1 of every row of a float64 array of integers."""
    num = ((rows * (rows - _KVEC)) @ _SIGNS.astype(np.float64)).astype(np.int64)
    odd = (num & 1).astype(bool)
    if odd.any():
        bad = tuple(int(x) for x in rows[odd][0])
        raise CohomologyConsistencyError(f"parity violation in chi at {bad}")
    return (num >> 1) + 1


def _check_float_range(rows: np.ndarray, kern: _Kernel) -> None:
    if rows.size and max(rows.max(), -rows.min()) > FLOAT_EXACT_LIMIT:
        bad = rows[(np.abs(rows) > FLOAT_EXACT_LIMIT).any(axis=1)][0]
        raise FloatRangeError(
            f"row {tuple(int(x) for x in bad)} on {kern.label} has a coefficient "
            f"beyond the float64-exact limit FLOAT_EXACT_LIMIT = {FLOAT_EXACT_LIMIT}"
        )


_CHUNK = 8192


def _round_codes(rows: np.ndarray, kern: _Kernel) -> np.ndarray:
    """Bit i of a row's code is set iff D.C_i < 0 for curve i, and the code
    is at least 2^m iff step 1 of a round ends the row (kern.bits).

    Built _CHUNK rows at a time, so that the float64 temporaries stay small.
    """
    codes = np.empty(rows.shape[0], dtype=kern.code_dtype)
    for lo in range(0, rows.shape[0], _CHUNK):
        codes[lo : lo + _CHUNK] = (rows[lo : lo + _CHUNK] @ kern.test_cols < 0) @ kern.bits
    return codes


def _h0_rows(rows: np.ndarray, kern: _Kernel) -> np.ndarray:
    """h^0 of every row of a float64 array of integer coefficients, by the
    rounds of _h0; rows is not modified.

    The open rows of a round are kept contiguous and sorted together with
    their support masks, so that each support group is a slice.  A row
    leaves when a round ends it; only the rows that end at a nef class are
    written, every other ending has h^0 = 0.  Every open row is stepped
    once per round, into a buffer preallocated for the round's open rows.
    """
    m = len(kern.curves)
    h0 = np.zeros(rows.shape[0], dtype=np.int64)
    idx = np.arange(rows.shape[0])
    cur = rows
    while idx.size:
        _check_float_range(cur, kern)
        masks = _round_codes(cur, kern)
        nef = masks == 0
        if nef.all():
            h0[idx] = np.maximum(_chi_rows(cur), 0)
            break
        h0[idx[nef]] = np.maximum(_chi_rows(cur[nef]), 0)
        keep = ~nef & (masks < 1 << m)
        cur, idx, masks = (np.compress(keep, a, axis=0) for a in (cur, idx, masks))
        next_cur, next_idx, filled = np.empty_like(cur), np.empty_like(idx), 0
        while idx.size:
            order = np.argsort(masks, kind="stable")
            cur, idx, masks = (np.take(a, order, axis=0) for a in (cur, idx, masks))
            starts = np.flatnonzero(np.r_[True, masks[1:] != masks[:-1]])
            grew = np.zeros(idx.size, dtype=bool)
            for lo, hi in zip(starts, np.r_[starts[1:], idx.size]):
                mask = int(masks[lo])
                sup = kern.support(mask)
                s = len(sup.idx)
                solve, step = sup.batch
                prod = cur[lo:hi] @ solve
                grown = mask | ((prod[:, s:] < 0) @ kern.bits[:m]).astype(masks.dtype)
                stay = grown == mask
                if stay.all():
                    x, start, at = prod[:, :s], cur[lo:hi], idx[lo:hi]
                elif stay.any():
                    masks[lo:hi], grew[lo:hi] = grown, ~stay
                    x, start, at = prod[stay, :s], cur[lo:hi][stay], idx[lo:hi][stay]
                else:
                    masks[lo:hi], grew[lo:hi] = grown, True
                    continue
                # -ceil(N), exactly (module docstring, float64 carrier)
                delta = np.floor(x / sup.det) @ step
                stuck = delta[:, 5] >= 0
                if stuck.any():
                    raise ReductionDivergenceError(
                        "Zariski round did not lower A.D at "
                        f"{tuple(int(c) for c in rows[at[stuck][0]])} on {kern.label}"
                    )
                np.add(start, delta[:, :5], out=next_cur[filled : filled + at.size])
                next_idx[filled : filled + at.size] = at
                filled += at.size
            cur, idx, masks = (np.compress(grew, a, axis=0) for a in (cur, idx, masks))
        cur, idx = next_cur[:filled], next_idx[:filled]
    return h0


class _BoxData(NamedTuple):
    box: np.ndarray  # the classes D, int64, one per row
    chi: np.ndarray  # chi(D)
    anti_k: np.ndarray  # D.(-K)
    rows: np.ndarray  # the kernel's input: float64, each needed class once
    h0_at: np.ndarray  # the row of D, for each D with D.(-K) >= 0
    h2_at: np.ndarray  # the row of K - D, for each D with D.(-K) <= -5


@lru_cache(maxsize=1)
def _box(bound: int) -> _BoxData:
    """The type-independent data of a sweep at bound, shared read-only by
    every type: rows holds each of the D with D.(-K) >= 0 and the K - D with
    D.(-K) <= -5 once (module docstring, sweep pre-filter), in the order of
    their codes in the grid that holds both the box and K - box."""
    box = np.indices((2 * bound + 1,) * 5, dtype=np.int64).reshape(5, -1).T - bound
    anti_k = box @ (_SIGNS * _ANTI_K.coeffs)
    k = np.array(K.coeffs)
    corner, sides = np.minimum(-bound, k - bound), 2 * bound + 1 + np.abs(k)
    h0_codes = np.ravel_multi_index((box[anti_k >= 0] - corner).T, sides)
    h2_codes = np.ravel_multi_index((k - box[anti_k <= -5] - corner).T, sides)
    marked = np.zeros(np.prod(sides), dtype=bool)
    marked[h0_codes] = marked[h2_codes] = True
    codes = np.flatnonzero(marked)
    rows = np.stack(np.unravel_index(codes, sides), axis=1) + corner
    data = _BoxData(
        box,
        _chi_rows(box.astype(np.float64)),
        anti_k,
        rows.astype(np.float64),
        np.searchsorted(codes, h0_codes),
        np.searchsorted(codes, h2_codes),
    )
    for a in data:
        a.setflags(write=False)
    return data


@lru_cache(maxsize=1)
def _serre_mirror(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows D of _box(bound).box whose Serre mirror K - D lies
    in the box, and the row of that mirror."""
    mirror = np.array(K.coeffs) - _box(bound).box
    inside = (np.abs(mirror) <= bound).all(axis=1)
    index = np.ravel_multi_index((mirror[inside] + bound).T, (2 * bound + 1,) * 5)
    return inside, index


def sweep_box(t: SurfaceType, bound: int = 4, return_arrays: bool = False) -> dict:
    """h_all on every class with |coefficients| <= bound, with consistency
    checks (h^1 >= 0, parity of chi, the drop of A.D) built in.

    The box and chi in the returned arrays are shared with later sweeps at
    the same bound and are read-only."""
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise ValueError(f"sweep bound must be an int >= 0, not {bound!r}")
    box, chi, anti_k, rows, h0_at, h2_at = _box(bound)
    n = box.shape[0]
    h0 = _h0_rows(rows, _kernel(t))
    h0_d = np.zeros(n, dtype=np.int64)
    h2_d = np.zeros(n, dtype=np.int64)
    h0_d[anti_k >= 0] = h0[h0_at]
    h2_d[anti_k <= -5] = h0[h2_at]
    h1_d = h0_d + h2_d - chi
    if (h1_d < 0).any():
        bad = box[h1_d < 0][0]
        raise CohomologyConsistencyError(f"negative h^1 at {tuple(bad)} on {t.label}")

    info = {
        "type": t.label,
        "bound": bound,
        "classes": int(n),
        "effective": int((h0_d > 0).sum()),
        "h1_positive": int((h1_d > 0).sum()),
        "max_h0": int(h0_d.max()),
    }
    if return_arrays:
        info["arrays"] = {"box": box, "h0": h0_d, "h1": h1_d, "h2": h2_d, "chi": chi}
    return info
