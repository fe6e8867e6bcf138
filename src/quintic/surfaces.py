"""The twelve singular types of a quintic del Pezzo surface.

Each type records the set of effective (-2)-classes on the minimal
resolution.  The intersection graph of such a set (an edge whenever two
classes meet once) is a disjoint union of chains A_p; a chain of length p
contributes a length-(p+1) subscheme to the degree-5 scheme attached to
the nontrivial piece of the derived category.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .lattice import H, DivClass, delta, is_root, weyl_orbit

__all__ = [
    "SurfaceType",
    "ChainStructureError",
    "InconsistentTypeError",
    "catalog",
    "surface_type",
    "ade_type",
    "z_scheme",
    "a3_block_classes",
    "a3_chains",
]


class ChainStructureError(ValueError):
    """Curve set whose intersection graph is not a disjoint union of chains."""


class InconsistentTypeError(ValueError):
    """Surface type whose difference graph fails to decompose into chains."""


@dataclass(frozen=True)
class SurfaceType:
    label: str
    minus_two_curves: frozenset[DivClass]
    ade: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "curves": sorted(c.to_json() for c in self.minus_two_curves),
            "ade": list(self.ade),
        }


def _surface(label: str, curves: Iterable[DivClass]) -> SurfaceType:
    curves = frozenset(curves)
    return SurfaceType(label, curves, ade_type(curves))


_CATALOG: tuple[SurfaceType, ...] | None = None


def catalog() -> tuple[SurfaceType, ...]:
    """The twelve types (I.1)-(V.2) with their effective (-2)-classes."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = (
            _surface("I.1", []),
            _surface("I.2", [delta(1, 2, 3)]),
            _surface("II.1", [delta(1, 2)]),
            _surface("II.2", [delta(1, 2), delta(1, 2, 3)]),
            _surface("II.3", [delta(1, 2), delta(1, 3, 4)]),
            _surface("III.1", [delta(1, 2), delta(3, 4)]),
            _surface("III.2", [delta(1, 2), delta(3, 4), delta(1, 2, 3)]),
            _surface("IV.1", [delta(1, 2), delta(2, 3)]),
            _surface("IV.2", [delta(1, 2, 3), delta(1, 2), delta(2, 3)]),
            _surface("IV.3", [delta(1, 2), delta(2, 3), delta(1, 2, 4)]),
            _surface("V.1", [delta(1, 2), delta(2, 3), delta(3, 4)]),
            _surface("V.2", [delta(1, 2), delta(2, 3), delta(3, 4), delta(1, 2, 3)]),
        )
    return _CATALOG


def surface_type(label: str) -> SurfaceType:
    for t in catalog():
        if t.label == label:
            return t
    raise KeyError(label)


def ade_type(curves: Iterable[DivClass]) -> tuple[int, ...]:
    """Chain lengths of the intersection graph, sorted increasingly.

    Raises ChainStructureError unless every connected component of the
    graph with an edge for each pair meeting once is a simple path.
    """
    curves = sorted(set(curves), key=lambda d: d.coeffs)
    for c in curves:
        if not is_root(c):
            raise ChainStructureError(f"{c!r} is not a (-2)-class")
    n = len(curves)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = curves[i].dot(curves[j])
            if m not in (0, 1):
                raise ChainStructureError(
                    f"not simply-laced-chain: {curves[i]!r}.{curves[j]!r} = {m}"
                )
            if m == 1:
                adj[i].append(j)
                adj[j].append(i)
    for i, nbrs in enumerate(adj):
        if len(nbrs) >= 3:
            raise ChainStructureError(
                f"not simply-laced-chain: {curves[i]!r} meets {len(nbrs)} curves"
            )
    lengths = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
                    frontier.append(w)
        edges = sum(len(adj[v]) for v in component) // 2
        if edges != len(component) - 1:
            raise ChainStructureError("not simply-laced-chain: component has a cycle")
        lengths.append(len(component))
    return tuple(sorted(lengths))


def z_scheme(ade: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted local lengths of the degree-5 scheme of a surface whose
    (-2)-curves form the A_p chains in ade: p+1 per chain, padded by 1s."""
    parts = [p + 1 for p in ade]
    parts += [1] * (5 - sum(parts))
    return tuple(sorted(parts))


@lru_cache(maxsize=None)
def a3_block_classes() -> tuple[DivClass, ...]:
    """The five classes h, e4-K-h, e3-K-h, e2-K-h, e1-K-h of the big block.

    They are the Weyl orbit of h, which is the set of classes with D^2 = 1
    and D.(-K) = 3.  The order matters: the block is exceptional in this
    order, and the mutation target lists its line bundles in it.  Sorting
    by the reversed coefficients (b4, b3, b2, b1, a) gives it: h has every
    b_j = 0, and e_i-K-h = 2h - (sum of e_j, j != i) has its one zero at b_i.
    """
    return tuple(sorted(weyl_orbit([H]), key=lambda d: d.coeffs[::-1]))


def a3_chains(t: SurfaceType) -> tuple[tuple[DivClass, ...], ...]:
    """Chain decomposition of the five block classes for the given type.

    Draws an edge D -> D' whenever D' - D is an effective (-2)-class of t
    and splits the resulting graph into maximal chains, each started at its
    unique source.  The sorted chain lengths must reproduce z_scheme(t.ade);
    InconsistentTypeError otherwise.
    """
    nodes = a3_block_classes()
    nxt: dict[DivClass, DivClass] = {}
    prev: dict[DivClass, DivClass] = {}
    for d in nodes:
        for d2 in nodes:
            if d2 is d:
                continue
            if d2 - d in t.minus_two_curves:
                if d in nxt or d2 in prev:
                    raise InconsistentTypeError(
                        f"{t.label}: difference graph branches at {d!r}"
                    )
                nxt[d] = d2
                prev[d2] = d
    chains = []
    for d in nodes:
        if d in prev:
            continue
        chain = [d]
        while chain[-1] in nxt:
            chain.append(nxt[chain[-1]])
        chains.append(tuple(chain))
    if sum(len(c) for c in chains) != len(nodes):
        raise InconsistentTypeError(f"{t.label}: difference graph has a cycle")
    lengths = tuple(sorted(len(c) for c in chains))
    if lengths != z_scheme(t.ade):
        raise InconsistentTypeError(
            f"{t.label}: chain lengths {lengths} differ from the z-scheme"
        )
    return tuple(sorted(chains, key=lambda c: (len(c), c[0].coeffs)))
