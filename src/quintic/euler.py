"""Riemann-Roch and the Euler pairing on numerical K-classes.

A numerical class is a triple (rank, c1, ch2) where c1 lives in the Picard
lattice and ch2 is a half-integer multiple of the point class, held as the
integer 2 ch2.  With the Todd class 1 - K/2 + pt (forced by chi(O) = 1 and
K^2 = 5) the pairing

    chi(x, y) = integral of ch(x)^dual . ch(y) . Td

is an exact integer for all classes handled here.  Hilbert polynomials are
taken with respect to -K; all arithmetic is integer, never floating point,
and the Euler pairing is computed in integers as 2 chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lattice import H, K, ZERO, DivClass
from .surfaces import a3_block_classes

__all__ = [
    "IntegralityError",
    "KClass",
    "HILBERT_POINTS",
    "line_bundle_class",
    "structure_class",
    "point_class",
    "f_tilde_class",
    "p_class",
    "chi_line",
    "euler_pair",
    "twist",
    "hilbert_values",
    "verify_chi_identities",
    "normal_bundle_cherns",
]


class IntegralityError(ArithmeticError):
    """A quantity that is an integer on every class of an object is not."""


@dataclass(frozen=True)
class KClass:
    """Numerical K-theory class (rank, c1, ch2), holding 2*ch2 as an integer.

    The group is generated by line-bundle classes (1, D, D^2/2) and the
    point class (0, 0, 1), so 2*ch2 and c1^2 always have the same parity;
    the constructor rejects triples outside that lattice.
    """

    rank: int
    c1: DivClass
    twice_ch2: int

    def __post_init__(self):
        if (self.twice_ch2 - self.c1.square()) % 2:
            raise ValueError(
                f"({self.rank}, {self.c1!r}, ch2 = {self.twice_ch2}/2) "
                "is not a class of an object"
            )

    def __add__(self, other: "KClass") -> "KClass":
        return KClass(
            self.rank + other.rank, self.c1 + other.c1, self.twice_ch2 + other.twice_ch2
        )

    def __sub__(self, other: "KClass") -> "KClass":
        return KClass(
            self.rank - other.rank, self.c1 - other.c1, self.twice_ch2 - other.twice_ch2
        )

    def __neg__(self) -> "KClass":
        return KClass(-self.rank, -self.c1, -self.twice_ch2)

    def __mul__(self, n: int) -> "KClass":
        return KClass(n * self.rank, n * self.c1, n * self.twice_ch2)

    __rmul__ = __mul__

    def c2(self) -> int:
        """Second Chern class (c1^2 - 2 ch2)/2, exact by the parity rule."""
        return (self.c1.square() - self.twice_ch2) // 2

    def int_vector(self) -> tuple[int, ...]:
        """(rank, c1 coefficients, 2*ch2) as a 7-tuple of integers."""
        return (self.rank, *self.c1.coeffs, self.twice_ch2)

    def to_json(self) -> dict:
        """ch2 goes out as the reduced pair [numerator, denominator]."""
        t = self.twice_ch2
        ch2 = [t // 2, 1] if t % 2 == 0 else [t, 2]
        return {"rank": self.rank, "c1": self.c1.to_json(), "ch2": ch2}

    @classmethod
    def from_json(cls, data: dict) -> "KClass":
        """Inverse of to_json; ValueError on any malformed record."""
        if not isinstance(data, dict):
            raise ValueError(f"expected a {{rank, c1, ch2}} record, got {data!r}")
        rank, ch2 = data.get("rank"), data.get("ch2")
        if type(rank) is not int:
            raise ValueError(f"rank must be an integer, got {rank!r}")
        if not (
            isinstance(ch2, (list, tuple))
            and len(ch2) == 2
            and all(type(x) is int for x in ch2)
            and ch2[1] != 0
        ):
            raise ValueError(
                f"ch2 must be [numerator, nonzero denominator], got {ch2!r}"
            )
        num, den = ch2
        if (2 * num) % den:
            raise ValueError(f"ch2 must be a half-integer, got {num}/{den}")
        return cls(rank, DivClass.from_json(data.get("c1")), 2 * num // den)


def line_bundle_class(d: DivClass) -> KClass:
    """Class of O(D): (1, D, D^2/2)."""
    return KClass(1, d, d.square())


def structure_class() -> KClass:
    return line_bundle_class(ZERO)


def point_class() -> KClass:
    """Class of the structure sheaf of a point."""
    return KClass(0, ZERO, 2)


@lru_cache(maxsize=None)
def f_tilde_class() -> KClass:
    """Class of the rank-2 extension of O(h) by O(-K-h): (2, -K, 1/2)."""
    return line_bundle_class(-K - H) + line_bundle_class(H)


@lru_cache(maxsize=None)
def p_class() -> KClass:
    """Class of the rank-5 bundle, the sum of O(D) over the five block
    classes: (5, -3K, 5/2)."""
    return sum((line_bundle_class(d) for d in a3_block_classes()), KClass(0, ZERO, 0))


def chi_line(d: DivClass) -> int:
    """Euler characteristic of O(D): (D^2 - D.K)/2 + 1."""
    num = d.square() - d.dot(K)
    if num % 2 != 0:
        raise IntegralityError(f"parity violation in chi({d!r})")
    return num // 2 + 1


def euler_pair(x: KClass, y: KClass) -> int:
    """Euler pairing chi(x, y) by Hirzebruch-Riemann-Roch.

    Expanding ch(x)^dual . ch(y) . (1 - K/2 + pt) in degrees gives

        rk(x) ch2(y) + rk(y) ch2(x) - c1(x).c1(y)
        - (rk(x) c1(y) - rk(y) c1(x)).K/2 + rk(x) rk(y),

    which is evaluated as an integer 2 chi from 2 ch2 and then halved.
    """
    rx, ry = x.rank, y.rank
    twice = (
        rx * y.twice_ch2
        + ry * x.twice_ch2
        - 2 * x.c1.dot(y.c1)
        - rx * y.c1.dot(K)
        + ry * x.c1.dot(K)
        + 2 * rx * ry
    )
    if twice % 2:
        raise IntegralityError(f"chi({x!r}, {y!r}) = {twice}/2 is not an integer")
    return twice // 2


def twist(x: KClass, d: DivClass) -> KClass:
    """Tensor by O(D): multiply Chern characters."""
    return KClass(
        x.rank,
        x.c1 + x.rank * d,
        x.twice_ch2 + 2 * x.c1.dot(d) + x.rank * d.square(),
    )


# A Hilbert polynomial on a surface has degree at most 2, so its values at
# three points determine it.
HILBERT_POINTS = (-1, 0, 1)


def hilbert_values(c: KClass) -> tuple[int, ...]:
    """The Hilbert polynomial t -> chi(c twisted by -tK) at HILBERT_POINTS."""
    o = structure_class()
    return tuple(euler_pair(o, twist(c, -t * K)) for t in HILBERT_POINTS)


def verify_chi_identities(g: KClass) -> bool:
    """Both pairing identities expressing chi(F,-) and chi(P,-) through
    chi(O,-), chi(O,-(K)) and the point class."""
    o = structure_class()
    pt = point_class()
    g_k = twist(g, K)
    lhs_f = euler_pair(f_tilde_class(), g)
    rhs_f = euler_pair(o, g) + euler_pair(o, g_k) - 2 * euler_pair(pt, g)
    lhs_p = euler_pair(p_class(), g)
    rhs_p = 2 * euler_pair(o, g) + 3 * euler_pair(o, g_k) - 5 * euler_pair(pt, g)
    return lhs_f == rhs_f and lhs_p == rhs_p


def normal_bundle_cherns() -> tuple[KClass, KClass, KClass]:
    """K-classes of T_X, of the normal bundle N of X in P^5 and of the
    rank-2 cokernel F' of N(-2) -> O^5, for the anticanonical embedding
    O(1) = O(-K).

    [T_P5|X] = 6[O(1)] - [O] by the Euler sequence; T_X has rank 2,
    c1 = -K and c2 = 12 chi(O) - K^2 by Noether; [N] = [T_P5|X] - [T_X]
    and [F'] = 5[O] - [N(-2)], where O(-2) = O(2K).
    """
    o = structure_class()
    c2_tx = 12 * euler_pair(o, o) - K.square()
    tx = KClass(2, -K, K.square() - 2 * c2_tx)
    normal = 6 * line_bundle_class(-K) - o - tx
    return tx, normal, 5 * o - twist(normal, 2 * K)
