"""Picard lattice of the plane blown up in four points.

The lattice is Z*h + Z*e1 + ... + Z*e4 with h^2 = 1, ei^2 = -1 and all
mixed products zero.  A divisor class ``a*h - b1*e1 - ... - b4*e4`` is
stored (and serialized) as the coefficient vector ``[a, b1, b2, b3, b4]``,
so ``b_i`` is the multiplicity at the i-th blown-up point.  The canonical
class -3h + e1 + e2 + e3 + e4 is therefore stored as ``[-3, -1, -1, -1, -1]``.

The sublattice orthogonal to the canonical class carries the root system
A4 (20 roots); its Weyl group is S5, generated by the four reflections in
the simple roots e1-e2, e2-e3, e3-e4 and h-e1-e2-e3.

The finite sets of classes are Weyl orbits, not searches.  The roots of an
irreducible simply-laced root system form a single Weyl orbit, so the 20
roots are the orbit of e1-e2.  The ten (-1)-classes of a del Pezzo surface
of degree 5 form a single W(A4) orbit (Manin, *Cubic Forms*, section 23),
so they are the orbit of e1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

__all__ = [
    "DivClass",
    "H",
    "E",
    "ZERO",
    "K",
    "line_through",
    "delta",
    "simple_roots",
    "enumerate_roots",
    "is_root",
    "weyl_orbit",
    "is_weyl_stable",
    "weyl_group_elements",
    "minus_one_classes",
]

@dataclass(frozen=True, slots=True)
class DivClass:
    """Divisor class a*h - b1*e1 - ... - b4*e4, stored as (a, b1..b4)."""

    coeffs: tuple[int, int, int, int, int]

    def __post_init__(self):
        if len(self.coeffs) != 5:
            raise ValueError("DivClass needs exactly 5 coefficients")

    def __add__(self, other: "DivClass") -> "DivClass":
        return DivClass(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        return DivClass(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivClass":
        return DivClass(tuple(-x for x in self.coeffs))

    def __mul__(self, n: int) -> "DivClass":
        return DivClass(tuple(n * x for x in self.coeffs))

    __rmul__ = __mul__

    def dot(self, other: "DivClass") -> int:
        a = self.coeffs
        b = other.coeffs
        return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3] - a[4] * b[4]

    def square(self) -> int:
        return self.dot(self)

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    @classmethod
    def from_json(cls, data: list[int]) -> "DivClass":
        if not (
            isinstance(data, (list, tuple))
            and len(data) == 5
            and all(type(x) is int for x in data)
        ):
            raise ValueError(f"expected 5 integers, got {data!r}")
        return cls(tuple(data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DivClass{self.coeffs}"


H = DivClass((1, 0, 0, 0, 0))
ZERO = DivClass((0, 0, 0, 0, 0))

# e_i = 0*h - (-1)*e_i, i.e. multiplicity -1 at the i-th point.
E = {i: DivClass(tuple(-1 if j == i else 0 for j in range(5))) for i in (1, 2, 3, 4)}

K = DivClass((-3, -1, -1, -1, -1))


def line_through(*points: int) -> DivClass:
    """Class of a line with multiplicity one at each listed point.

    ``line_through()`` is h, ``line_through(i)`` is h - e_i (the pencil of
    lines through x_i), ``line_through(i, j)`` is h - e_i - e_j.
    """
    d = H
    for i in points:
        d = d - E[i]
    return d


def delta(*indices: int) -> DivClass:
    """Root classes written Delta in the singular-type table.

    ``delta(i, j)`` is e_i - e_j and ``delta(i, j, l)`` is h - e_i - e_j - e_l.
    """
    if len(indices) == 2:
        i, j = indices
        return E[i] - E[j]
    if len(indices) == 3:
        i, j, l = indices
        return H - E[i] - E[j] - E[l]
    raise ValueError("delta takes two or three point indices")


def is_root(d: DivClass) -> bool:
    return d.square() == -2 and d.dot(K) == 0


def simple_roots() -> tuple[DivClass, DivClass, DivClass, DivClass]:
    """Simple roots e1-e2, e2-e3, e3-e4, h-e1-e2-e3 of the A4 system."""
    return (delta(1, 2), delta(2, 3), delta(3, 4), delta(1, 2, 3))


def _reflect(d: DivClass, root: DivClass) -> DivClass:
    """Reflection of d in the hyperplane orthogonal to a (-2)-root.

    Since root^2 = -2 the reflection formula collapses to d + (d.root)*root;
    it is an involution, preserves the intersection form and fixes K.
    """
    return d + d.dot(root) * root


def _closure(seed: Iterable, step) -> frozenset:
    """Smallest set containing seed and closed under x -> step(x, r) for
    each simple root r."""
    gens = simple_roots()
    seen = set(seed)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for r in gens:
            image = step(x, r)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return frozenset(seen)


@lru_cache(maxsize=None)
def enumerate_roots() -> frozenset[DivClass]:
    """All 20 roots: classes D with D^2 = -2 and D.K = 0 (computed once)."""
    return weyl_orbit([delta(1, 2)])


@lru_cache(maxsize=None)
def minus_one_classes() -> frozenset[DivClass]:
    """The 10 classes with D^2 = D.K = -1: the e_i and the h - e_i - e_j
    (computed once)."""
    return weyl_orbit([E[1]])


def weyl_orbit(seed: Iterable[DivClass]) -> frozenset[DivClass]:
    """Closure of a set of classes under the four simple reflections."""
    return _closure(seed, _reflect)


def is_weyl_stable(classes: Iterable[DivClass]) -> bool:
    """True iff every simple reflection permutes the given set of classes."""
    s = frozenset(classes)
    return all(frozenset(_reflect(d, r) for d in s) == s for r in simple_roots())


def weyl_group_elements() -> frozenset[tuple[DivClass, ...]]:
    """All distinct Weyl actions on Pic, each given by its images of the
    basis h, e1, ..., e4.

    Closure of the identity under composition with the simple reflections:
    a step reflects the five images, so no word is ever replayed.  The
    result has 120 elements (the symmetric group S5).
    """
    basis = (H, E[1], E[2], E[3], E[4])
    return _closure([basis], lambda w, r: tuple(_reflect(d, r) for d in w))
