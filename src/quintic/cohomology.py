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

One round on a class D, with A the measure class described below:

1. If D.(-K) < 0 or D.A < 0, then h^0(D) = 0.
2. If D.C >= 0 for every negative curve C, then h^0(D) = max(chi(D), 0).
3. Otherwise let S = {C : D.C < 0} and solve (D - N).C = 0 for C in S, with
   N a rational combination of the curves of S.  Add to S every negative
   curve C with (D - N).C < 0 and solve again, until no curve is added.
   If the intersection matrix of S is not negative definite, h^0(D) = 0.
4. Otherwise replace D by D - ceil(N) and start the next round.

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
(c) If S is not negative definite, D is not pseudo-effective, so
    h^0(D) = 0.  A pseudo-effective D has a Zariski decomposition
    D = P + N_Z with P nef and supp N_Z negative definite (Zariski; Fujita
    for pseudo-effective classes).  Bauer's lemma:
    every S of step 3 lies in supp N_Z.  A first curve has
    N_Z.C = D.C - P.C < 0, so it is a component of N_Z.  If S lies in supp
    N_Z and is therefore negative definite, split N_Z = N_S + N' along S;
    for C in S, (N_S - N).C = -P.C - N'.C <= 0, so N_Z >= N by (*).  A curve
    added next has (D - N).C = P.C + (N_Z - N).C < 0 with P.C >= 0, so it is
    a component of the effective N_Z - N.  Subsets of a negative definite
    set are negative definite.
(d) The rounds terminate.  A = m(-K) - Z, where Z is the combination of
    the (-2)-curves with Z.C = -det(-M) on each of them (the adjugate of
    -M applied to the all-ones vector) and m exceeds Z.L on every
    irreducible (-1)-class L.  So A.C > 0 for every negative curve C, and A
    is nef; step 1 is then sound.  By (a), ceil(N) is a nonzero effective
    combination of negative curves, so A.D drops by at least 1 per round,
    and step 1 ends the rounds once A.D < 0: at most A.D + 1 rounds.  The
    drop is checked on every round; ReductionDivergenceError reports a
    failed check and is not a size cap.

Support table.  Each type has one table keyed by the bitmask of S over
negative_curves(t).all.  An entry is None (S not negative definite) or
the indices of S with the adjugate and the determinant of -M_S, so that
det * N = adj * (-b), b = (D.C) on S, is integral and ceil(N) is a floor
division.  Entries are filled on first use, by Bareiss's fraction-free
elimination.  The scalar h_all and the batch sweep_box run the same rounds
over the same table; the batch groups its open rows by support mask at
every growth step.

Sweep pre-filter.  sweep_box needs h^0(D) and h^2(D) = h^0(K - D) on every
class D of a box.  Since K^2 = 5, (K - D).(-K) = -5 - D.(-K), so at most
one of D and K - D passes the -K test of step 1, and neither does when
-5 < D.(-K) < 0.  The box, chi and D.(-K) do not depend on the type, and
are computed once per bound; the batch rounds then run only on the D with
D.(-K) >= 0 and the K - D with D.(-K) <= -5 (0.854 and 0.880 of the box
size at bounds 4 and 5, against twice the box size).  Every other row has
h^0 = 0 by the test its first round would apply.

Float64 carrier.  The batch form keeps its rows in float64 and runs every
product there, used only to carry integers: a sum of integer products is
computed exactly, in whatever order BLAS adds, when the absolute values of
its terms add up to less than 2^53.  Let X bound the absolute coefficients
of the open rows at the start of a round; each round checks
X <= FLOAT_EXACT_LIMIT = 2^25 and raises FloatRangeError otherwise.  Let m
be the number of curves, r the number of (-2)-curves, c the largest
absolute curve coefficient and g the largest |C.C'|.  -M_S is positive
definite with diagonal entries 2 and 1, so by Hadamard's inequality its
determinant and its principal minors are at most 2^r; adj(-M_S) is
positive definite too, so every |adj_ij| is at most 2^r.  A round on S
computes, per row, det * N = -row @ neg_n, det * (D - N).C = row @ grow,
-ceil(N) = floor(x / det) with x = -det * N, and the change of -ceil(N) to
the row and to A.D.  With p = 5 c m 2^r the terms add up to at most X * F,
where

    F = max(7, |A|_1, 5 c 2^r (1 + g m^2), 1 + m p max(c, A.C)),

the numerator D^2 - D.K of the Euler characteristic adds up to at most
5 X (X + 3), and the products that pack sign tests into support masks
stay below 2^(m + 2).  Each kernel checks F * 2^25 < 2^53 (F is at most
14401 on the twelve types, whose tables have det <= 6, |adj| <= 6,
g <= 2 and c = 1), and 5 * 2^25 * (2^25 + 3) < 2^53.  So every value is
an exact integer.

The floor of the float quotient is exact too.  IEEE division is correctly
rounded, so the computed quotient of integers x and det >= 1 is q = x/det
rounded to nearest, with error at most |x/det| * 2^-53.  If det divides x,
x/det is an integer below 2^53 and q equals it.  Otherwise x/det = k + f
with k = floor(x/det) and 1/det <= f <= 1 - 1/det; for |x| < 2^53 the error
is below 1/det, so k < q < k + 1 and floor(q) = k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    """A negative definite support S: its curve indices, adj(-M_S) and
    det(-M_S); the float64 matrices of a batch round on S are built on the
    first batch round that reaches S."""

    __slots__ = ("idx", "adj", "det", "_batch")

    def __init__(self, idx: tuple[int, ...], adj, det: int):
        self.idx = idx
        self.adj = adj
        self.det = det
        self._batch = None

    def batch(self, kern: "_Kernel") -> tuple[np.ndarray, np.ndarray]:
        """(solve, step): row @ solve = (-det * N, det * (D - N).C on every
        curve), and -ceil(N) @ step = (the change of the row, minus the drop
        of A.D)."""
        if self._batch is None:
            sel = list(self.idx)
            neg_n = kern.curve_cols[:, sel] @ np.array(self.adj, dtype=np.int64).T
            grow = self.det * kern.curve_cols + neg_n @ kern.gram_np[sel]
            step = np.column_stack([kern.cmat[sel], kern.measure_np[sel]])
            self._batch = (
                np.hstack([neg_n, grow]).astype(np.float64),
                step.astype(np.float64),
            )
        return self._batch


def _solve_support(
    gram, idx: tuple[int, ...]
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


class _Kernel:
    """Per-type data of the Zariski rounds, shared by the scalar and batch forms."""

    def __init__(self, t: SurfaceType):
        nc = negative_curves(t)
        self.label = t.label
        self.curves = nc.all
        m = len(self.curves)
        self.gram = tuple(tuple(c.dot(e) for e in self.curves) for c in self.curves)
        self.cmat = np.array([c.coeffs for c in self.curves], dtype=np.int64).reshape(m, 5)
        self.curve_cols = (self.cmat * _SIGNS).T
        self.gram_np = np.array(self.gram, dtype=np.int64).reshape(m, m)
        self._table: dict[int, _Support | None] = {}
        z = ZERO
        if nc.minus_two:
            solved = _solve_support(self.gram, tuple(range(len(nc.minus_two))))
            if solved is None:
                raise CohomologyConsistencyError(f"{t.label}: (-2)-curves not negative definite")
            for row, c in zip(solved[0], nc.minus_two):
                z = z + sum(row) * c
        m_a = 1 + max((z.dot(l) for l in nc.minus_one_irred), default=0)
        self.measure = m_a * -K - z
        self.measure_degs = tuple(self.measure.dot(c) for c in self.curves)
        if any(x <= 0 for x in self.measure_degs):
            raise CohomologyConsistencyError(f"{t.label}: measure class not positive on curves")
        self.measure_np = np.array(self.measure_degs, dtype=np.int64)
        # row @ test_cols: the degrees on the curves, on -K and on A
        tests = [*self.curve_cols.T, _SIGNS * _ANTI_K.coeffs, _SIGNS * self.measure.coeffs]
        self.test_cols = np.array(tests, dtype=np.float64).T
        self.bits = 2.0 ** np.arange(m + 2)
        self.code_dtype = np.min_scalar_type((1 << (m + 2)) - 1)
        # the float64 carrier bound of the module docstring
        c = int(np.abs(self.cmat).max(initial=0))
        g = int(np.abs(self.gram_np).max(initial=0))
        alpha = 2 ** len(nc.minus_two)
        p = 5 * c * m * alpha
        factor = max(
            7,
            sum(map(abs, self.measure.coeffs)),
            5 * c * alpha * (1 + g * m * m),
            1 + m * p * max(c, *self.measure_degs, 1),
        )
        if factor * FLOAT_EXACT_LIMIT >= 2**53:
            raise CohomologyConsistencyError(
                f"{t.label}: float64 carrier bound {factor} * FLOAT_EXACT_LIMIT reaches 2^53"
            )

    def support(self, mask: int) -> _Support | None:
        if mask not in self._table:
            idx = tuple(i for i in range(len(self.curves)) if mask >> i & 1)
            solved = _solve_support(self.gram, idx)
            self._table[mask] = None if solved is None else _Support(idx, *solved)
        return self._table[mask]

    def negative_part(self, degs: list[int], mask: int) -> tuple[_Support | None, list[int]]:
        """Step 3 from the curves in mask: the final support and det * N on it.

        degs are the degrees D.C on all curves; the support is None when it
        is not negative definite.
        """
        while True:
            sup = self.support(mask)
            if sup is None:
                return None, []
            num = [-sum(a * degs[j] for a, j in zip(row, sup.idx)) for row in sup.adj]
            grown = mask
            for i, row in enumerate(self.gram):
                if not mask >> i & 1 and sup.det * degs[i] < sum(
                    x * row[j] for x, j in zip(num, sup.idx)
                ):
                    grown |= 1 << i
            if grown == mask:
                return sup, num
            mask = grown


@lru_cache(maxsize=None)
def _kernel(t: SurfaceType) -> _Kernel:
    return _Kernel(t)



@lru_cache(maxsize=None)
def _h0(coeffs: tuple[int, ...], t: SurfaceType) -> tuple[int, DivClass]:
    kern = _kernel(t)
    d = DivClass(coeffs)
    measure = d.dot(kern.measure)
    while True:
        if d.dot(_ANTI_K) < 0 or measure < 0:
            return 0, d
        degs = [d.dot(c) for c in kern.curves]
        mask = sum(1 << i for i, x in enumerate(degs) if x < 0)
        if not mask:
            return max(chi_line(d), 0), d
        sup, num = kern.negative_part(degs, mask)
        if sup is None:
            return 0, d
        for i, x in zip(sup.idx, num):
            d = d - (-(-x // sup.det)) * kern.curves[i]
        drop = measure - d.dot(kern.measure)
        if drop <= 0:
            raise ReductionDivergenceError(
                f"Zariski round did not lower A.D at {coeffs} on {t.label}"
            )
        measure -= drop


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
    n: int
    degrees: tuple[int, ...]
    l: int

    def __post_init__(self):
        if not 1 <= self.n <= 4:
            raise ValueError("chain length must be 1..4")
        if len(self.degrees) != self.n:
            raise ValueError("need one degree per curve")
        if not 1 <= self.l <= self.n:
            raise ValueError("distinguished index out of range")


@dataclass(frozen=True)
class ChainCertificate:
    certified: bool
    failing_step: tuple[int, int, int] | None = None  # (level, curve, degree)

    def __bool__(self) -> bool:
        return self.certified


def r1_chain_vanishing(p: ChainProblem, levels: int | None = None) -> ChainCertificate:
    """Certify R^1 f_* O(D) = 0 along the chain from the degree data.

    Simulates multiplicity levels m = 1 .. n+2; per-step degrees are
    checked to be >= -1 and to stabilize (non-decreasing beyond the first
    level, since a full round of the chain has nonpositive degree on each
    curve).
    """
    n, l = p.n, p.l
    schedule = list(range(l, n + 1)) + list(range(l - 1, 0, -1))
    if levels is None:
        levels = n + 2
    w = [0] * (n + 2)  # 1-based multiplicities with zero padding
    previous: dict[int, int] = {}
    for level in range(1, levels + 1):
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
    odd = (num % 2).astype(bool)
    if odd.any():
        bad = tuple(int(x) for x in rows[odd][0])
        raise CohomologyConsistencyError(f"parity violation in chi at {bad}")
    return num // 2 + 1


def _check_float_range(rows: np.ndarray, kern: _Kernel) -> None:
    if rows.size and max(rows.max(), -rows.min()) > FLOAT_EXACT_LIMIT:
        bad = rows[(np.abs(rows) > FLOAT_EXACT_LIMIT).any(axis=1)][0]
        raise FloatRangeError(
            f"row {tuple(int(x) for x in bad)} on {kern.label} has a coefficient "
            f"beyond the float64-exact limit FLOAT_EXACT_LIMIT = {FLOAT_EXACT_LIMIT}"
        )


_CHUNK = 8192


def _round_codes(rows: np.ndarray, kern: _Kernel) -> np.ndarray:
    """Bit i of a row's code is set iff D.C_i < 0 for curve i; bits m and
    m + 1 iff D.(-K) < 0 and iff D.A < 0 (step 1 of a round).

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
    written, every other ending has h^0 = 0.
    """
    m = len(kern.curves)
    h0 = np.zeros(rows.shape[0], dtype=np.int64)
    idx = np.arange(rows.shape[0])
    cur = rows
    while idx.size:
        _check_float_range(cur, kern)
        masks = _round_codes(cur, kern)
        nef = masks == 0
        h0[idx[nef]] = np.maximum(_chi_rows(cur[nef]), 0)
        keep = ~nef & (masks < 1 << m)
        cur, idx, masks = (np.compress(keep, a, axis=0) for a in (cur, idx, masks))
        next_cur, next_idx = [], []
        while idx.size:
            order = np.argsort(masks, kind="stable")
            cur, idx, masks = (np.take(a, order, axis=0) for a in (cur, idx, masks))
            starts = np.flatnonzero(np.r_[True, masks[1:] != masks[:-1]])
            grew = np.zeros(idx.size, dtype=bool)
            for lo, hi in zip(starts, np.r_[starts[1:], idx.size]):
                mask = int(masks[lo])
                sup = kern.support(mask)
                if sup is None:
                    continue
                s = len(sup.idx)
                solve, step = sup.batch(kern)
                prod = cur[lo:hi] @ solve
                grown = mask | ((prod[:, s:] < 0) @ kern.bits[:m]).astype(masks.dtype)
                masks[lo:hi] = grown
                stay = grown == mask
                grew[lo:hi] = ~stay
                if stay.any():
                    # -ceil(N), exactly (module docstring, float64 carrier)
                    delta = np.floor(prod[stay, :s] / sup.det) @ step
                    if (delta[:, 5] >= 0).any():
                        raise ReductionDivergenceError(
                            f"Zariski round did not lower A.D in sweep on {kern.label}"
                        )
                    next_cur.append(cur[lo:hi][stay] + delta[:, :5])
                    next_idx.append(idx[lo:hi][stay])
            cur, idx, masks = (np.compress(grew, a, axis=0) for a in (cur, idx, masks))
        if next_idx:
            cur, idx = np.concatenate(next_cur), np.concatenate(next_idx)
    return h0


class _BoxData(NamedTuple):
    box: np.ndarray  # the classes D, int64, one per row
    chi: np.ndarray  # chi(D)
    anti_k: np.ndarray  # D.(-K)
    rows: np.ndarray  # the kernel's input: float64, D then K - D rows


@lru_cache(maxsize=1)
def _box(bound: int) -> _BoxData:
    """The type-independent data of a sweep at bound, shared read-only by
    every type; rows holds the D with D.(-K) >= 0, then K - D for the D with
    D.(-K) <= -5 (module docstring, sweep pre-filter)."""
    box = np.indices((2 * bound + 1,) * 5, dtype=np.int64).reshape(5, -1).T - bound
    anti_k = box @ (_SIGNS * _ANTI_K.coeffs)
    rows = np.concatenate([box[anti_k >= 0], _KVEC - box[anti_k <= -5]], dtype=np.float64)
    data = _BoxData(box, _chi_rows(box.astype(np.float64)), anti_k, rows)
    for a in data:
        a.setflags(write=False)
    return data


def sweep_box(
    t: SurfaceType,
    bound: int = 4,
    spot_checks: int = 0,
    seed: int = 0,
    return_arrays: bool = False,
) -> dict:
    """h_all on every class with |coefficients| <= bound, with consistency
    checks (h^1 >= 0, parity of chi, the drop of A.D) built in.

    The box and chi in the returned arrays are shared with later sweeps at
    the same bound and are read-only."""
    box, chi, anti_k, rows = _box(bound)
    n = box.shape[0]
    h0 = _h0_rows(rows, _kernel(t))
    h0_d = np.zeros(n, dtype=np.int64)
    h2_d = np.zeros(n, dtype=np.int64)
    d_rows = anti_k >= 0
    split = np.count_nonzero(d_rows)
    h0_d[d_rows] = h0[:split]
    h2_d[anti_k <= -5] = h0[split:]
    h1_d = h0_d + h2_d - chi
    if (h1_d < 0).any():
        bad = box[h1_d < 0][0]
        raise CohomologyConsistencyError(f"negative h^1 at {tuple(bad)} on {t.label}")

    if spot_checks:
        rng = np.random.default_rng(seed)
        for idx in rng.integers(0, n, size=spot_checks):
            d = DivClass(tuple(int(x) for x in box[idx]))
            if h_all(d, t) != (int(h0_d[idx]), int(h1_d[idx]), int(h2_d[idx])):
                raise CohomologyConsistencyError(
                    f"sweep disagrees with scalar path at {d!r} on {t.label}"
                )

    info = {
        "type": t.label,
        "bound": bound,
        "classes": int(n),
        "effective": int((h0_d > 0).sum()),
        "h1_positive": int((h1_d > 0).sum()),
        "max_h0": int(h0_d.max()),
        "spot_checks": spot_checks,
    }
    if return_arrays:
        info["arrays"] = {"box": box, "h0": h0_d, "h1": h1_d, "h2": h2_d, "chi": chi}
    return info
