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

    D @ solve = (-det * N on S, det * (D - N).C on the curves outside S meeting S),
    -ceil(N) @ step = (the change of D, minus the drop of A.D),

with -ceil(N) = floor(-det * N / det).  The columns of solve after the
first |S| are the growth test of step 3 (grow holds their mask bits), and
the last column of step is the drop check of (d).  A curve C outside S is
outside the first S of the round, so D.C >= 0, and if C meets no curve of
S, (D - N).C = D.C: the test leaves out only such curves.  If det = 1, N
is integral, and D - N meets S in 0, the tested curves nonnegatively and
the others in D.C >= 0: it is nef, and the rounds end there.  adj(-M_S)
and det come from Bareiss's fraction-free elimination, then solve and
step from integer products.  The table serves the scalar rounds of h_all
alone, which apply it to one class in Python integers; sweep_box needs no
support (quintic.sweep).  Scalar h^0 on the kernel rows of the twelve
bound-4 sweeps fills the tables with exactly the 532 nonempty Zariski
chambers.

The dominant-chamber pre-filter.  h_all and sweep_box both need h^0(D)
and h^2(D) = h^0(K - D), and compute h^0 of one of the two classes at
most.  An effective class meets a nef class P nonnegatively, so X.P < 0
gives h^0(X) = 0, and skipping the work on X changes no answer.  -K is nef:
-K.C = C^2 + 2 by adjunction, and each kernel checks -K.C >= 0.  Since
K^2 = 5, (K - D).(-K) = -5 - D.(-K): at most one of D and K - D meets -K
nonnegatively, and neither does when -5 < D.(-K) < 0.  Scalar h_all reads
D.(-K) = 3a - b1 - b2 - b3 - b4 and runs the rounds on D when it is >= 0,
on K - D when it is <= -5, and not at all in between.  sweep_box tests
the rays of the dominant Weyl chamber {D : D.r >= 0 on the simple roots
r, D.e4 >= 0}, h, h - e1, 2h - e1 - e2, 3h - e1 - e2 - e3 and -K, that
its kernel checks nef on its curves: all five on the twelve types, not
h - e1 on a type with the (-2)-curve e2 - e1.  So the twelve types share
the box, chi and the rows of a bound, and sweep_box computes h^0 only on
the D and the K - D that meet every kept ray nonnegatively, each once
(0.438 and 0.432 of the box size at bounds 4 and 5, against twice it).

sweep_box computes h^0 on these rows without rounds: quintic.sweep steps
each row down by one fixed component at a time, and its docstring proves
the walk and accounts for its memory.  It shares with the rounds only the
curves and the rays, so the two forms are independent derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul
from typing import Sequence

from .euler import chi_line, euler_pair, f_tilde_class, hilbert_poly, structure_class
from .lattice import E, H, K, ZERO, DivClass, minus_one_classes, simple_roots
from .surfaces import SurfaceType

__all__ = [
    "NegativeCurveSet",
    "ReductionDivergenceError",
    "CohomologyConsistencyError",
    "CannotConcludeError",
    "negative_curves",
    "h_all",
    "f_tilde_cohomology",
    "ChainProblem",
    "ChainCertificate",
    "r1_chain_vanishing",
    "sweep_box",
]


_ANTI_K = -K
# D @ (signs * C.coeffs) = D.C
_SIGNS = (1, -1, -1, -1, -1)


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
    """A negative definite support S: its curve indices, det(-M_S), the
    integer matrices solve and step of a round on S (module docstring,
    support table) as tuples of their columns, and grow, the mask bits of
    the curves outside S that meet S, which solve tests."""

    __slots__ = ("idx", "det", "solve", "step", "grow")

    def __init__(self, kern: "_Kernel", idx: list[int], adj, det: int):
        self.idx = idx
        self.det = det
        neg_n = [_combine(row, [kern.curve_ints[i] for i in idx]) for row in adj]
        near = [j for j, g in enumerate(kern.gram) if j not in idx and max(g[i] for i in idx) > 0]
        self.grow = tuple(1 << j for j in near)
        grow = (
            _combine((det, *(kern.gram[i][j] for i in idx)), (kern.curve_ints[j], *neg_n))
            for j in near
        )
        self.solve = (*neg_n, *grow)
        self.step = tuple(zip(*(kern.curves[i].coeffs + (kern.measure[i],) for i in idx)))


def _combine(weights: Sequence[int], vectors: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The integer combination sum_i weights[i] * vectors[i]."""
    return tuple(sum(map(mul, weights, xs)) for xs in zip(*vectors))


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
# 2 x 2 minor r_c s_d - r_d s_c; the six terms (a, b, sign) of each v_j
_PAIRS = tuple(combinations(range(5), 2))
_LAPLACE = tuple(
    tuple(
        (_PAIRS.index(a), _PAIRS.index(b), _sign((j, *a, *b)))
        for a in _PAIRS
        for b in _PAIRS
        if len({j, *a, *b}) == 5
    )
    for j in range(5)
)


def _nef_rays(func: Sequence[tuple[int, ...]]) -> tuple[DivClass, ...]:
    """The primitive integer generators of the extremal rays of the cone
    {D : row @ D >= 0 for every row of func}, for integer rows of rank 5.

    Every extremal ray of a pointed polyhedral cone in rank 5 is cut out by
    four linearly independent facet functionals, and spans the kernel of
    those four rows.  For each four rows the vector v of signed 4 x 4
    minors, computed by the Laplace expansion above, spans that kernel when
    the rows are independent and is zero otherwise.  Up to sign, v is kept
    when it is nonnegative on every row and positive on one (a zero v is not).
    """
    rays = set()
    for quad in combinations(func, 4):
        w12, w34 = ([r[c] * s[d] - r[d] * s[c] for c, d in _PAIRS] for r, s in (quad[:2], quad[2:]))
        v = [sum(sign * w12[a] * w34[b] for a, b, sign in terms) for terms in _LAPLACE]
        degs = [sum(map(mul, v, row)) for row in func]
        sign = (min(degs) >= 0) - (max(degs) <= 0)
        if sign:
            rays.add(tuple(sign * x // gcd(*v) for x in v))
    return tuple(DivClass(r) for r in sorted(rays))


# h, h - e1, 2h - e1 - e2, 3h - e1 - e2 - e3 and -K (module docstring, pre-filter)
_CHAMBER_RAYS = _nef_rays([tuple(map(mul, _SIGNS, r.coeffs)) for r in (*simple_roots(), E[4])])


class _Kernel:
    """Per-type data of h^0: the negative curves, the extremal rays of the
    nef cone (step 1), their sum A (the measure class of (d)) and the
    prefilter of sweep_box, which h_all and sweep_box both read, and the
    support table of the Zariski chambers, which only the scalar rounds
    read (module docstring)."""

    def __init__(self, t: SurfaceType):
        self.label = t.label
        self.curves = negative_curves(t).all
        self.gram = tuple(tuple(c.dot(e) for e in self.curves) for c in self.curves)
        self._table: dict[int, _Support] = {}
        # the -K pre-filter of h_all and sweep_box rests on -K being nef
        for c in self.curves:
            if c.dot(_ANTI_K) < 0:
                raise CohomologyConsistencyError(
                    f"{t.label}: -K meets the negative curve {c.coeffs} negatively"
                )
        # the degrees D.C_i = D @ curve_ints[i] and D.P_j = D @ ray_ints[j]
        self.curve_ints = tuple(tuple(map(mul, _SIGNS, c.coeffs)) for c in self.curves)
        self.rays = _nef_rays(self.curve_ints)
        for ray in self.rays:
            if any(ray.dot(c) < 0 for c in self.curves):
                raise CohomologyConsistencyError(f"{t.label}: ray {ray.coeffs} is not nef")
        self.ray_ints = tuple(tuple(map(mul, _SIGNS, r.coeffs)) for r in self.rays)
        self.prefilter = tuple(p for p in _CHAMBER_RAYS if all(p.dot(c) >= 0 for c in self.curves))
        measure = sum(self.rays, ZERO)
        self.measure = tuple(measure.dot(c) for c in self.curves)
        if min(self.measure) <= 0:
            raise CohomologyConsistencyError(f"{t.label}: measure class not positive on curves")

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
            break
        while True:  # step 3
            sup = kern.support(mask)
            s = len(sup.idx)
            prod = [
                a * x + b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4 for x, y1, y2, y3, y4 in sup.solve
            ]
            grown = mask
            for x, bit in zip(prod[s:], sup.grow):
                if x < 0:
                    grown |= bit
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
        if sup.det == 1:  # D - N is nef (module docstring, support table)
            break
    d = DivClass((a, b1, b2, b3, b4))
    return max(chi_line(d), 0), d


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
# The exhaustive sweep over a coefficient box, behind the cohomology suite.


def sweep_box(t: SurfaceType, bound: int = 4, return_arrays: bool = False) -> dict:
    """h_all on every class with |coefficients| <= bound, with consistency
    checks (h^1 >= 0, parity of chi, every step of the walk landing on a
    row, the cap on its pointer jumping) built in."""
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise ValueError(f"sweep bound must be an int >= 0, not {bound!r}")
    from .sweep import run  # the first call loads quintic.sweep and numpy
    return run(_kernel(t), bound, return_arrays)
