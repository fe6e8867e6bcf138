"""Characteristic-zero cohomology of homogeneous bundles on Gr(r, n).

A weight alpha of length n is processed by the dotted Weyl action: add
rho = (n-1, ..., 0); a repeated entry kills all cohomology, otherwise the
sorting permutation w gives cohomology in the single degree length(w) with
value the irreducible of highest weight sort(alpha + rho) - rho.

Bundles on Gr(2, 5) are stored as Z-linear combinations of irreducible
blocks L^gamma R* (x) L^beta Rperp with gamma, beta dominant; a block is
normalized so that beta ends in 0 (det Rperp = O(-1) folds the rest into
gamma).  Tensor products decompose blockwise, the GL(2) and GL(3)
factors alike, by the Brauer-Klimyk rule (Klimyk 1968): shift the highest
weight of one factor by each weight of the other and straighten the sum
with the same dotted Weyl action, so `bott` is the one straightening
algorithm here.

Everything here implements characteristic-zero semantics.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from operator import add, lt, sub
from typing import NamedTuple, Sequence

from .mutations import ExcCollection, assert_unitriangular, run_walk

__all__ = [
    "DimensionError",
    "weyl_dim",
    "bott",
    "BottResult",
    "CohProfile",
    "ChiOnly",
    "HomBundle",
    "o",
    "rstar",
    "sym_rstar",
    "rperp",
    "dual",
    "twist",
    "tensor_decompose",
    "rhom",
    "rhom_chi",
    "chi_vector",
    "lefschetz_objects",
    "verify_lefschetz",
    "kapranov_collection",
    "GR25_LEFSCHETZ",
    "verify_appendix_identities",
    "pnr_criterion",
    "lr_coefficients",
]


class DimensionError(ArithmeticError):
    """A dimension identity of GL(n) representations fails."""


@lru_cache(maxsize=None)
def _superfactorial(n: int) -> int:
    """0! 1! ... (n-1)!, the product of j - i over 0 <= i < j < n."""
    return prod(map(factorial, range(n)))


def _weyl_product(v: tuple[int, ...]) -> int:
    """Weyl's dimension formula on v = lam + rho, strictly decreasing: the
    product of v_i - v_j over i < j, which is lam_i - lam_j + j - i, divided
    by the superfactorial 0! 1! ... (n-1)!."""
    num = prod(itertools.starmap(sub, itertools.combinations(v, 2)))
    den = _superfactorial(len(v))
    if num % den:
        raise DimensionError(f"Weyl product for lam + rho = {v} is not divisible by {den}")
    return num // den


def weyl_dim(lam: Sequence[int]) -> int:
    """Dimension of the irreducible GL(n) module of highest weight lam,
    n = len(lam)."""
    lam = tuple(lam)
    if any(map(lt, lam, lam[1:])):
        raise ValueError(f"{lam} is not dominant")
    return _weyl_product(tuple(map(add, lam, range(len(lam) - 1, -1, -1))))


class BottResult(NamedTuple):
    degree: int
    weight: tuple[int, ...]
    dim: int


# maxsize=0 stores nothing but keeps the __wrapped__ and cache_info() that perfbench reads
@lru_cache(maxsize=0)
def bott(alpha: Sequence[int], n: int) -> BottResult | None:
    """Cohomology of the weight alpha on the flag quotient with n = dim V.

    Returns None when all cohomology vanishes (alpha + rho has a repeat),
    otherwise the unique (degree, dominant weight, dimension).  One pass
    over v = alpha + rho inserts each entry into the sorted list of the
    entries before it: the entries it lands above are its inversions, so the
    degree is their total, and the list ends as sort(v), on which Weyl's
    formula reads the dimension directly.
    """
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise ValueError(f"weight length {len(alpha)} != {n}")
    rho = range(n - 1, -1, -1)
    v = tuple(map(add, alpha, rho))
    if len(set(v)) < n:
        return None
    ascending: list[int] = []
    inversions = 0
    for x in v:
        i = bisect(ascending, x)
        inversions += i
        ascending.insert(i, x)
    v_sorted = tuple(ascending[::-1])
    lam = tuple(map(sub, v_sorted, rho))
    return BottResult(inversions, lam, _weyl_product(v_sorted))


# ---------------------------------------------------------------------------
# Tensor decompositions.


def _gt_weights(row: tuple[int, ...]):
    """Yield the weights of L^row, one per Gelfand-Tsetlin pattern.

    A pattern is a sequence of rows, each one entry shorter than the row
    above and interlacing it (row[i] >= below[i] >= row[i+1]); a row's
    weight entry is its sum minus the sum of the row below.
    """
    if not row:
        yield ()
        return
    for below in itertools.product(
        *(range(row[i + 1], row[i] + 1) for i in range(len(row) - 1))
    ):
        for w in _gt_weights(below):
            yield w + (sum(row) - sum(below),)


@lru_cache(maxsize=None)
def lr_coefficients(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple:
    """Expansion of L^lam (x) L^mu for dominant GL(n) weights of length n.

    Brauer-Klimyk (Racah-Speiser) rule, Klimyk (1968): the product is the
    sum over the weights w of L^mu, with multiplicity, of (-1)^l L^nu where
    bott(lam + w, n) = (l, nu); weights on which bott vanishes drop out.
    Returns ((nu, coefficient), ...) with nonzero coefficients, nu
    decreasing.
    """
    n = len(lam)
    if len(mu) != n:
        raise ValueError(f"weights {lam} and {mu} differ in length")
    # weyl_dim raises ValueError on a non-dominant weight
    dims = weyl_dim(lam) * weyl_dim(mu)
    out = Counter()
    for w in _gt_weights(mu):
        res = bott(tuple(a + b for a, b in zip(lam, w)), n)
        if res is not None:
            out[res.weight] += (-1) ** res.degree
    terms = tuple(sorted(((nu, c) for nu, c in out.items() if c), reverse=True))
    total = sum(c * weyl_dim(nu) for nu, c in terms)
    if total != dims:
        raise DimensionError(f"L^{lam} (x) L^{mu}: summands have dimension {total}")
    return terms


# ---------------------------------------------------------------------------
# Formal sums of irreducible homogeneous bundles on Gr(2, 5).

Block = tuple[tuple[int, int], tuple[int, int, int]]


def _normalize_block(gamma, beta) -> Block:
    gamma = tuple(gamma)
    beta = tuple(beta)
    if len(gamma) != 2 or len(beta) != 3:
        raise ValueError("block needs a 2-part and a 3-part weight")
    if gamma[0] < gamma[1] or beta[0] < beta[1] or beta[1] < beta[2]:
        raise ValueError(f"block ({gamma}, {beta}) is not dominant")
    # det Rperp = O(-1): move beta_3 copies of it into the gamma block
    shift = beta[2]
    return (
        (gamma[0] - shift, gamma[1] - shift),
        (beta[0] - shift, beta[1] - shift, 0),
    )


@dataclass(frozen=True)
class HomBundle:
    """Signed formal sum of blocks L^gamma R* (x) L^beta Rperp."""

    summands: tuple[tuple[Block, int], ...]

    @classmethod
    def from_counter(cls, counts: Counter) -> "HomBundle":
        items = tuple(
            sorted((blk, m) for blk, m in counts.items() if m != 0)
        )
        return cls(items)

    @classmethod
    def block(cls, gamma, beta=(0, 0, 0)) -> "HomBundle":
        return cls.from_counter(Counter({_normalize_block(gamma, beta): 1}))

    def counts(self) -> Counter:
        return Counter(dict(self.summands))

    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.summands)

    def __add__(self, other: "HomBundle") -> "HomBundle":
        c = self.counts()
        c.update(other.counts())
        return HomBundle.from_counter(c)

    def __sub__(self, other: "HomBundle") -> "HomBundle":
        return self + -other

    def __neg__(self) -> "HomBundle":
        return -1 * self

    def __mul__(self, k: int) -> "HomBundle":
        return HomBundle.from_counter(Counter({blk: k * m for blk, m in self.summands}))

    __rmul__ = __mul__


def o(k: int = 0) -> HomBundle:
    return HomBundle.block((k, k))


def rstar(k: int = 0) -> HomBundle:
    return HomBundle.block((k + 1, k))


def sym_rstar(m: int, k: int = 0) -> HomBundle:
    return HomBundle.block((m + k, k))


def rperp(k: int = 0) -> HomBundle:
    return HomBundle.block((k, k), (1, 0, 0))


def twist(x: HomBundle, k: int) -> HomBundle:
    return tensor_decompose(x, o(k))


def dual(x: HomBundle) -> HomBundle:
    c = Counter()
    for (g, b), m in x.summands:
        c[_normalize_block((-g[1], -g[0]), (-b[2], -b[1], -b[0]))] += m
    return HomBundle.from_counter(c)


def tensor_decompose(a: HomBundle, b: HomBundle) -> HomBundle:
    """Blockwise product, bilinear over multiplicities: lr_coefficients
    expands the GL(2) factors gamma and the GL(3) factors beta."""
    out = Counter()
    for (g1, b1), m1 in a.summands:
        for (g2, b2), m2 in b.summands:
            for g, cg in lr_coefficients(g1, g2):
                for bb, cb in lr_coefficients(b1, b2):
                    out[_normalize_block(g, bb)] += m1 * m2 * cg * cb
    return HomBundle.from_counter(out)


# ---------------------------------------------------------------------------
# RHom via Bott.


@dataclass(frozen=True)
class CohProfile:
    """Exact cohomology dimensions per degree (zero degrees omitted)."""

    degrees: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, data: dict[int, int]) -> "CohProfile":
        return cls(tuple(sorted((d, v) for d, v in data.items() if v != 0)))

    def euler(self) -> int:
        return sum((-1) ** d * v for d, v in self.degrees)

    def to_json(self) -> dict:
        return {"degrees": {str(d): v for d, v in self.degrees}}


@dataclass(frozen=True)
class ChiOnly:
    """Euler characteristic when exact per-degree dimensions are not
    determined by the block decomposition alone."""

    chi: int

    def euler(self) -> int:
        return self.chi

    def to_json(self) -> dict:
        return {"chi": self.chi}


@lru_cache(maxsize=None)
def rhom(a: HomBundle, b: HomBundle) -> CohProfile | ChiOnly:
    """RHom(a, b) = cohomology of dual(a) (x) b, tallied per Bott degree.

    For effective inputs the block decomposition is an actual direct sum,
    so per-degree dimensions are exact.  A virtual class (some negative
    multiplicity) is trusted only when every contribution lands in one
    common degree with a total that is not negative: the Euler
    characteristic then pins the dimension there, which matches the
    sheaf-level answer whenever the defining presentation has cohomology
    concentrated in that degree.  Anything else degrades to the Euler
    characteristic.
    """
    product = tensor_decompose(dual(a), b)
    tally: Counter = Counter()
    for (gamma, beta), mult in product.summands:
        res = bott(gamma + beta, 5)
        if res is not None:
            tally[res.degree] += mult * res.dim
    # a degree whose contributions cancel stays in the tally and still counts
    if product.is_effective() or (len(tally) <= 1 and min(tally.values(), default=0) >= 0):
        return CohProfile.of(tally)
    return ChiOnly(sum((-1) ** deg * val for deg, val in tally.items()))


def rhom_chi(a: HomBundle, b: HomBundle) -> int:
    """Euler pairing chi(a, b), read off the memoised rhom."""
    return rhom(a, b).euler()


@lru_cache(maxsize=None)
def lefschetz_objects() -> tuple[tuple[str, HomBundle], ...]:
    """The ten objects O, R*, O(1), R*(1), ..., O(4), R*(4)."""
    out = []
    for k in range(5):
        suffix = f"({k})" if k else ""
        out.append((f"O{suffix}", o(k)))
        out.append((f"R*{suffix}", rstar(k)))
    return tuple(out)


def chi_vector(x: HomBundle) -> tuple[int, ...]:
    """Pairings against the ten Lefschetz objects.

    The collection is full with unimodular Gram matrix, so this vector is a
    complete invariant of the numerical K-theory class.
    """
    return tuple(rhom_chi(e, x) for _, e in lefschetz_objects())


def verify_lefschetz() -> dict:
    """RHom(E_i, E_j) = 0 for i > j and RHom(E_i, E_i) = k on the ten-object
    collection; lists each pair that fails with its profile."""
    objects = lefschetz_objects()
    violations = []
    for i, (label_i, x) in enumerate(objects):
        for j, (label_j, y) in enumerate(objects[: i + 1]):
            profile = rhom(x, y)
            expected = CohProfile.of({0: 1}) if i == j else CohProfile(())
            if profile != expected:
                violations.append((label_i, label_j, profile.to_json()))
    return {"ok": not violations, "violations": violations}


def kapranov_collection() -> ExcCollection:
    """Ten-object starting collection on Gr(2,5), as a mutable collection."""
    objects = (
        ("O", o(0)),
        ("R*", rstar(0)),
        ("O(1)", o(1)),
        ("Sym2R*", sym_rstar(2)),
        ("R*(1)", rstar(1)),
        ("Sym3R*", sym_rstar(3)),
        ("O(2)", o(2)),
        ("Sym2R*(1)", sym_rstar(2, 1)),
        ("R*(2)", rstar(2)),
        ("O(3)", o(3)),
    )
    return ExcCollection(objects, rhom_chi)


# From the Kapranov collection to the rectangular two-block collection
# lefschetz_objects(): Sym^3 R* travels to the end (becoming O(4)),
# Sym^2 R* moves five slots right (becoming R*(3)), Sym^2 R*(1) travels to
# the end (becoming R*(4)).
GR25_LEFSCHETZ: tuple[dict, ...] = (
    {"kind": "transpose-to-end", "index": 5},
    {"kind": "right", "index": 3},
    {"kind": "right", "index": 4},
    {"kind": "right", "index": 5},
    {"kind": "right", "index": 6},
    {"kind": "right", "index": 7},
    {"kind": "transpose-to-end", "index": 5},
)


def verify_appendix_identities() -> dict:
    """Class identities and orthogonality used by the mutation walk on
    Gr(2,5), plus the walk itself.

    The kernels are taken from their defining presentations:
    N = Lambda^2 V* . O - O(1), M = Lambda^2 V . O - Rperp(1),
    K1 = V . Sym^2 R*(1) - Sym^3 R*, K2 = Lambda^2 V . R*(2) - K1,
    L = V . R*(1) - Sym^2 R*.
    """
    n_cls = 10 * o(0) - o(1)
    m_cls = 10 * o(0) - rperp(1)
    k1 = 5 * sym_rstar(2, 1) - sym_rstar(3)
    k2 = 10 * rstar(2) - k1
    l_cls = 5 * rstar(1) - sym_rstar(2)

    checks = {
        "K2 = N(3)": chi_vector(k2) == chi_vector(twist(n_cls, 3)),
        "L = M(2)": chi_vector(l_cls) == chi_vector(twist(m_cls, 2)),
        "RHom(Sym3R*, Sym2R*(1)) = V*": rhom(sym_rstar(3), sym_rstar(2, 1))
        == CohProfile.of({0: 5}),
        "RHom(Sym3R*, O(2)) = 0": rhom(sym_rstar(3), o(2)) == CohProfile(()),
        "RHom(K1, R*(2)) = wedge2 V*": rhom(k1, rstar(2)) == CohProfile.of({0: 10}),
        "RHom(Rperp(3), Sym2R*(1)) = 0": rhom(rperp(3), sym_rstar(2, 1))
        == CohProfile(()),
        "RHom(Rperp(3), R*(2)) = 0": rhom(rperp(3), rstar(2)) == CohProfile(()),
    }

    target = ExcCollection(lefschetz_objects(), rhom_chi)
    slots = run_walk(
        kapranov_collection(), GR25_LEFSCHETZ, target, chi_vector, assert_unitriangular
    )
    checks["mutation endpoint O(4)"] = slots[8]
    checks["mutation endpoint R*(3)"] = slots[7]
    checks["mutation endpoint R*(4)"] = slots[9]
    checks["mutation walk matches collection"] = all(slots)
    return {"ok": all(checks.values()), "checks": checks}


def pnr_criterion(gamma_r: int, beta: Sequence[int]) -> bool:
    """Sufficient vanishing test on the projective space P^(n-r).

    On Gr(r, n), beta has length n - r.  The bundle O(gamma_r) (x) L^beta N
    on P^(n-r), with N the twisted cotangent bundle, is the weight
    (gamma_r, beta) on Gr(1, n-r+1); if all its cohomology vanishes, so
    does every H^i of L^gamma R* (x) L^beta Rperp on Gr(r, n), in any
    characteristic.  The test is one-directional: a False verdict decides
    nothing.
    """
    beta = tuple(beta)
    if any(beta[i] < beta[i + 1] for i in range(len(beta) - 1)):
        raise ValueError(f"{beta} is not dominant")
    return bott((gamma_r,) + beta, len(beta) + 1) is None
