"""Characteristic-zero cohomology of homogeneous bundles on Gr(r, n).

A weight alpha of length n is processed by the dotted Weyl action: add
rho = (n-1, ..., 0); a repeated entry kills all cohomology, otherwise the
sorting permutation w gives cohomology in the single degree length(w) with
value the irreducible of highest weight sort(alpha + rho) - rho.

Bundles on Gr(2, 5) are stored as Z-linear combinations of irreducible
blocks L^gamma R* (x) L^beta Rperp with gamma, beta dominant; a block is
normalized so that beta ends in 0 (det Rperp = O(-1) folds the rest into
gamma).  Tensor products decompose blockwise: rank-2 blocks by the
Clebsch-Gordan rule, rank-3 blocks by Littlewood-Richardson counting.

Everything here implements characteristic-zero semantics.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
    "verify_appendix_identities",
    "pnr_criterion",
    "clebsch_gordan",
    "lr_coefficients",
]


class DimensionError(ArithmeticError):
    """A dimension identity of GL(n) representations fails."""


def weyl_dim(lam: Sequence[int], n: int) -> int:
    """Dimension of the irreducible GL(n) module of highest weight lam."""
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError(f"weight length {len(lam)} != {n}")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise ValueError(f"{lam} is not dominant")
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    if num % den:
        raise DimensionError(f"Weyl product for {lam} is not divisible by {den}")
    return num // den


@dataclass(frozen=True)
class BottResult:
    degree: int
    weight: tuple[int, ...]
    dim: int


@lru_cache(maxsize=None)
def bott(alpha: tuple[int, ...], n: int) -> BottResult | None:
    """Cohomology of the weight alpha on the flag quotient with n = dim V.

    Returns None when all cohomology vanishes (alpha + rho has a repeat),
    otherwise the unique (degree, dominant weight, dimension).
    """
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise ValueError(f"weight length {len(alpha)} != {n}")
    rho = tuple(range(n - 1, -1, -1))
    v = tuple(a + r for a, r in zip(alpha, rho))
    if len(set(v)) < n:
        return None
    inversions = sum(
        1 for i, j in itertools.combinations(range(n), 2) if v[i] < v[j]
    )
    lam = tuple(x - r for x, r in zip(sorted(v, reverse=True), rho))
    return BottResult(inversions, lam, weyl_dim(lam, n))


# ---------------------------------------------------------------------------
# Tensor decompositions.


def clebsch_gordan(a: tuple[int, int], b: tuple[int, int]) -> Counter:
    """L^a (x) L^b for GL(2): one summand per k = 0 .. min of the widths."""
    if a[0] < a[1] or b[0] < b[1]:
        raise ValueError("blocks must be dominant")
    out = Counter()
    for k in range(min(a[0] - a[1], b[0] - b[1]) + 1):
        out[(a[0] + b[0] - k, a[1] + b[1] + k)] += 1
    return out


def _candidate_shapes(lam, mu, rows):
    total = sum(lam) + sum(mu)
    bound = lam[0] + mu[0]

    def rec(prefix, remaining):
        i = len(prefix)
        if i == rows:
            if remaining == 0:
                yield tuple(prefix)
            return
        hi = min(bound, prefix[-1] if prefix else bound, remaining)
        lo = max(lam[i], 0)
        for v in range(hi, lo - 1, -1):
            if sum(lam[i + 1 :]) <= remaining - v:
                yield from rec(prefix + [v], remaining - v)

    yield from rec([], total)


def _lr_tableau_count(lam, mu, nu) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu.

    Cells are filled in reading-word order (each row right to left, rows
    top to bottom) so the ballot condition can be checked prefix by prefix;
    rows must weakly increase, columns strictly increase.
    """
    rows = len(nu)
    if any(nu[i] < lam[i] for i in range(rows)):
        return 0
    cells = [(i, j) for i in range(rows) for j in range(nu[i] - 1, lam[i] - 1, -1)]
    k = len(mu)
    remaining = list(mu)
    grid: dict[tuple[int, int], int] = {}
    count = 0

    def rec(idx, counts):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        i, j = cells[idx]
        right = grid.get((i, j + 1))
        above = grid.get((i - 1, j))
        for entry in range(k):
            if remaining[entry] == 0:
                continue
            if right is not None and entry > right:
                continue
            if above is not None and entry <= above:
                continue
            if entry > 0 and counts[entry - 1] <= counts[entry]:
                continue
            grid[(i, j)] = entry
            remaining[entry] -= 1
            counts[entry] += 1
            rec(idx + 1, counts)
            counts[entry] -= 1
            remaining[entry] += 1
            del grid[(i, j)]

    rec(0, [0] * k)
    return count


@lru_cache(maxsize=None)
def lr_coefficients(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple:
    """Littlewood-Richardson expansion of L^lam (x) L^mu for partitions.

    Both inputs are partitions padded to the same number of rows; returns
    ((nu, coefficient), ...) over shapes with at most that many rows.
    """
    rows = len(lam)
    if len(mu) != rows:
        raise ValueError("partitions must be padded to equal length")
    for part in (lam, mu):
        if any(part[i] < part[i + 1] for i in range(rows - 1)) or part[-1] < 0:
            raise ValueError(f"{part} is not a partition")
    out = []
    for nu in _candidate_shapes(lam, mu, rows):
        c = _lr_tableau_count(lam, mu, nu)
        if c:
            out.append((nu, c))
    total = sum(c * weyl_dim(nu, rows) for nu, c in out)
    if total != weyl_dim(lam, rows) * weyl_dim(mu, rows):
        raise DimensionError(f"L^{lam} (x) L^{mu}: summands have dimension {total}")
    return tuple(out)


def _tensor_rank3(a: tuple[int, int, int], b: tuple[int, int, int]) -> Counter:
    """L^a (x) L^b for GL(3) dominant weights, via a det shift to partitions."""
    shift_a = min(a[2], 0)
    shift_b = min(b[2], 0)
    lam = tuple(x - shift_a for x in a)
    mu = tuple(x - shift_b for x in b)
    back = shift_a + shift_b
    out = Counter()
    for nu, c in lr_coefficients(lam, mu):
        out[tuple(x + back for x in nu)] += c
    return out


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
    def block(cls, gamma, beta=(0, 0, 0), mult: int = 1) -> "HomBundle":
        return cls.from_counter(Counter({_normalize_block(gamma, beta): mult}))

    def counts(self) -> Counter:
        return Counter(dict(self.summands))

    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.summands)

    def __add__(self, other: "HomBundle") -> "HomBundle":
        c = self.counts()
        c.update(other.counts())
        return HomBundle.from_counter(c)

    def __sub__(self, other: "HomBundle") -> "HomBundle":
        c = self.counts()
        c.subtract(other.counts())
        return HomBundle.from_counter(c)

    def __neg__(self) -> "HomBundle":
        return HomBundle(tuple((blk, -m) for blk, m in self.summands))

    def __mul__(self, k: int) -> "HomBundle":
        if k == 0:
            return HomBundle(())
        return HomBundle(tuple((blk, k * m) for blk, m in self.summands))

    __rmul__ = __mul__

    def to_json(self) -> list:
        return [
            {"gamma": list(g), "beta": list(b), "mult": m}
            for (g, b), m in self.summands
        ]


def o(k: int = 0) -> HomBundle:
    return HomBundle.block((k, k))


def rstar(k: int = 0) -> HomBundle:
    return HomBundle.block((k + 1, k))


def sym_rstar(m: int, k: int = 0) -> HomBundle:
    return HomBundle.block((m + k, k))


def rperp(k: int = 0) -> HomBundle:
    return HomBundle.block((k, k), (1, 0, 0))


def twist(x: HomBundle, k: int) -> HomBundle:
    return HomBundle.from_counter(
        Counter(
            {
                _normalize_block((g[0] + k, g[1] + k), b): m
                for (g, b), m in x.summands
            }
        )
    )


def dual(x: HomBundle) -> HomBundle:
    c = Counter()
    for (g, b), m in x.summands:
        c[_normalize_block((-g[1], -g[0]), (-b[2], -b[1], -b[0]))] += m
    return HomBundle.from_counter(c)


def tensor_decompose(a: HomBundle, b: HomBundle) -> HomBundle:
    """Blockwise Littlewood-Richardson product, bilinear over multiplicities."""
    out = Counter()
    for (g1, b1), m1 in a.summands:
        for (g2, b2), m2 in b.summands:
            gammas = clebsch_gordan(g1, g2)
            betas = _tensor_rank3(b1, b2)
            for g, cg in gammas.items():
                for bb, cb in betas.items():
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

    def is_zero(self) -> bool:
        return not self.degrees

    def dim(self, degree: int) -> int:
        return dict(self.degrees).get(degree, 0)

    def euler(self) -> int:
        return sum((-1) ** d * v for d, v in self.degrees)

    def to_json(self) -> dict:
        return {"degrees": {str(d): v for d, v in self.degrees}}


@dataclass(frozen=True)
class ChiOnly:
    """Euler characteristic when exact per-degree dimensions are not
    determined by the block decomposition alone."""

    chi: int

    def to_json(self) -> dict:
        return {"chi": self.chi}


def _block_weight(block: Block) -> tuple[int, ...]:
    return block[0] + block[1]


def _bott_terms(product: HomBundle):
    """Yield (degree, signed dimension) for each block of product whose
    cohomology does not vanish."""
    for blk, mult in product.summands:
        res = bott(_block_weight(blk), 5)
        if res is not None:
            yield res.degree, mult * res.dim


def rhom(a: HomBundle, b: HomBundle) -> CohProfile | ChiOnly:
    """RHom(a, b) = cohomology of dual(a) (x) b.

    For effective inputs the block decomposition is an actual direct sum,
    so per-degree dimensions are exact.  A virtual class (some negative
    multiplicity) is trusted only when every contribution lands in one
    common degree: the Euler characteristic then pins the dimension there,
    which matches the sheaf-level answer whenever the defining presentation
    has cohomology concentrated in that degree.  Anything else degrades to
    the Euler characteristic.
    """
    product = tensor_decompose(dual(a), b)
    contributions = list(_bott_terms(product))
    if not contributions:
        return CohProfile(())
    if product.is_effective():
        acc: Counter = Counter()
        for deg, val in contributions:
            acc[deg] += val
        return CohProfile.of(acc)
    degrees = {deg for deg, _ in contributions}
    if len(degrees) == 1:
        total = sum(val for _, val in contributions)
        if total >= 0:
            (deg,) = degrees
            return CohProfile.of({deg: total})
    return ChiOnly(sum((-1) ** deg * val for deg, val in contributions))


def rhom_chi(a: HomBundle, b: HomBundle) -> int:
    """Euler pairing chi(a, b): alternating Bott sum, cancellation-free."""
    terms = _bott_terms(tensor_decompose(dual(a), b))
    return sum((-1) ** deg * val for deg, val in terms)


def lefschetz_objects() -> tuple[tuple[str, HomBundle], ...]:
    """The ten objects O, R*, O(1), R*(1), ..., O(4), R*(4)."""
    out = []
    for k in range(5):
        suffix = f"({k})" if k else ""
        out.append((f"O{suffix}", o(k)))
        out.append((f"R*{suffix}", rstar(k)))
    return tuple(out)


@lru_cache(maxsize=None)
def _lefschetz_classes() -> tuple[HomBundle, ...]:
    return tuple(cls for _, cls in lefschetz_objects())


def chi_vector(x: HomBundle) -> tuple[int, ...]:
    """Pairings against the ten Lefschetz objects.

    The collection is full with unimodular Gram matrix, so this vector is a
    complete invariant of the numerical K-theory class.
    """
    return tuple(rhom_chi(e, x) for e in _lefschetz_classes())


def verify_lefschetz() -> dict:
    """Pairwise RHom for the ten-object collection.

    Checks RHom(E_i, E_j) = 0 for i > j and RHom(E_i, E_i) = k; returns the
    full table of profiles.
    """
    objects = lefschetz_objects()
    table = []
    violations = []
    for i, (label_i, x) in enumerate(objects):
        row = []
        for j, (label_j, y) in enumerate(objects):
            profile = rhom(x, y)
            row.append(profile.to_json())
            if i > j and not (isinstance(profile, CohProfile) and profile.is_zero()):
                violations.append((label_i, label_j, profile.to_json()))
            if i == j and profile != CohProfile.of({0: 1}):
                violations.append((label_i, label_j, profile.to_json()))
        table.append(row)
    return {
        "ok": not violations,
        "violations": violations,
        "labels": [label for label, _ in objects],
        "table": table,
    }


def kapranov_collection():
    """Ten-object starting collection on Gr(2,5), as a mutable collection."""
    from .mutations import ExcCollection

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


def _same_chi_vector_up_to_sign(x: HomBundle, y: HomBundle) -> bool:
    vx, vy = chi_vector(x), chi_vector(y)
    return vx == vy or vx == tuple(-v for v in vy)


def verify_appendix_identities() -> dict:
    """Class identities and orthogonality used by the mutation walk on
    Gr(2,5), plus the walk itself.

    The kernels are taken from their defining presentations:
    N = Lambda^2 V* . O - O(1), M = Lambda^2 V . O - Rperp(1),
    K1 = V . Sym^2 R*(1) - Sym^3 R*, K2 = Lambda^2 V . R*(2) - K1,
    L = V . R*(1) - Sym^2 R*.
    """
    from .mutations import GR25_LEFSCHETZ, assert_unitriangular, replay

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

    start = kapranov_collection()
    assert_unitriangular(start)
    final = replay(start, GR25_LEFSCHETZ, check=assert_unitriangular)
    target = lefschetz_objects()
    slots = {}
    for i, ((label, expected), got) in enumerate(zip(target, final.classes())):
        slots[i] = _same_chi_vector_up_to_sign(got, expected)
    checks["mutation endpoint O(4)"] = slots[8]
    checks["mutation endpoint R*(3)"] = slots[7]
    checks["mutation endpoint R*(4)"] = slots[9]
    checks["mutation walk matches collection"] = all(slots.values())
    return {"ok": all(checks.values()), "checks": checks}


def pnr_criterion(gamma_r: int, beta: Sequence[int], n: int, r: int) -> bool:
    """Sufficient vanishing test on the projective space P^(n-r).

    The bundle O(gamma_r) (x) L^beta N on P^(n-r), with N the twisted
    cotangent bundle, is the weight (gamma_r, beta) on Gr(1, n-r+1); if all
    its cohomology vanishes, so does every H^i of L^gamma R* (x) L^beta
    Rperp on Gr(r, n), in any characteristic.  The test is one-directional:
    a False verdict decides nothing.
    """
    beta = tuple(beta)
    if len(beta) != n - r:
        raise ValueError("beta must have length n - r")
    if any(beta[i] < beta[i + 1] for i in range(len(beta) - 1)):
        raise ValueError(f"{beta} is not dominant")
    return bott((gamma_r,) + beta, n - r + 1) is None
