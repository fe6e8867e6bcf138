"""Numerical mutation of exceptional collections.

Objects are opaque classes supporting +, -, unary minus and integer
scaling; a collection bundles an ordered list of labeled classes with an
Euler pairing.  Mutating the pair (E, F) one slot to the right replaces it
by (F, chi(E,F)*F - E); the categorical mutation involves shifts, so class
comparisons downstream are made up to a global sign per slot.

Unitriangularity of the Gram matrix is the numerical shadow of
semiorthogonality: necessary, not sufficient.  The Ext-level check for a
pair of line bundles O(D), O(D') is ``cohomology.h_all(D' - D, t)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .euler import KClass, euler_pair, f_tilde_class, line_bundle_class, structure_class
from .lattice import E, H, K, ZERO, DivClass
from .surfaces import SurfaceType, a3_block_classes, a3_chains

__all__ = [
    "ExcCollection",
    "MutationError",
    "UnmatchedCurveError",
    "right_mutate",
    "left_mutate",
    "gram",
    "assert_unitriangular",
    "is_unitriangular",
    "replay",
    "run_walk",
    "SODWDP_DERIVATION",
    "sodwdp_start_collection",
    "sodwdp_target_collection",
    "run_sodwdp_derivation",
    "contraction_compatibility",
    "hermite_normal_form",
]


class MutationError(ValueError):
    pass


class UnmatchedCurveError(ValueError):
    """A (-2)-curve of the surface type that no step of its chains realizes."""


@dataclass(frozen=True, eq=False)
class ExcCollection:
    """Ordered list of (label, class) with an Euler pairing."""

    objects: tuple[tuple[str, object], ...]
    pairing: Callable[[object, object], int]

    def __len__(self) -> int:
        return len(self.objects)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.objects)

    def classes(self) -> tuple[object, ...]:
        return tuple(cls for _, cls in self.objects)

    def replaced(self, objects) -> "ExcCollection":
        return ExcCollection(tuple(objects), self.pairing)


def gram(c: ExcCollection) -> list[list[int]]:
    classes = c.classes()
    return [[c.pairing(x, y) for y in classes] for x in classes]


def _triangle_break(c: ExcCollection) -> str | None:
    """Name the first entry on or below the diagonal, row by row, that differs
    from the identity matrix's; no pairing above the diagonal is computed."""
    classes, labels = c.classes(), c.labels()
    for i, x in enumerate(classes):
        for j in range(i + 1):
            value = c.pairing(x, classes[j])
            if value != int(i == j):
                return f"chi({labels[i]}, {labels[j]}) = {value} at ({i}, {j})"
    return None


def is_unitriangular(c: ExcCollection) -> bool:
    return _triangle_break(c) is None


def assert_unitriangular(c: ExcCollection) -> bool:
    broken = _triangle_break(c)
    if broken is not None:
        raise MutationError(f"Gram matrix not unitriangular for {c.labels()}: {broken}")
    return True


def right_mutate(c: ExcCollection, i: int) -> ExcCollection:
    """Replace the pair (E, F) at (i, i+1) by (F, chi(E,F)*F - E)."""
    if not 0 <= i < len(c) - 1:
        raise MutationError(f"index {i} out of range for length {len(c)}")
    objects = list(c.objects)
    (label_e, e), (label_f, f) = objects[i], objects[i + 1]
    chi = c.pairing(e, f)
    objects[i] = (label_f, f)
    objects[i + 1] = (f"R({label_e})", chi * f - e)
    return c.replaced(objects)


def left_mutate(c: ExcCollection, i: int) -> ExcCollection:
    """Replace the pair (E, F) at (i, i+1) by (chi(E,F)*E - F, E)."""
    if not 0 <= i < len(c) - 1:
        raise MutationError(f"index {i} out of range for length {len(c)}")
    objects = list(c.objects)
    (label_e, e), (label_f, f) = objects[i], objects[i + 1]
    chi = c.pairing(e, f)
    objects[i] = (f"L({label_f})", chi * e - f)
    objects[i + 1] = (label_e, e)
    return c.replaced(objects)


def replay(c: ExcCollection, script: Sequence[dict], check) -> ExcCollection:
    """Apply a list of {kind, index} steps.

    kind is one of "right", "left", "transpose-to-end"; the last is the
    macro moving the object at the index to the final slot by successive
    right mutations.  ``check`` is called on the collection after every
    atomic mutation.
    """
    for step in script:
        kind, index = step["kind"], step["index"]
        if kind == "right":
            c = right_mutate(c, index)
            check(c)
        elif kind == "left":
            c = left_mutate(c, index)
            check(c)
        elif kind == "transpose-to-end":
            for j in range(index, len(c) - 1):
                c = right_mutate(c, j)
                check(c)
        else:
            raise MutationError(f"unknown step kind {kind!r}")
    return c


def run_walk(
    start: ExcCollection,
    script: Sequence[dict],
    target: ExcCollection,
    key: Callable[[object], tuple[int, ...]],
    check: Callable[[ExcCollection], object],
) -> tuple[bool, ...]:
    """Replay script from start and compare the end with target slot by slot.

    ``check`` is called on start and after every atomic mutation.  A slot is
    True when ``key`` of the end class is ``key`` of the target class or its
    negative: the categorical mutation shifts objects, so classes match up
    to a sign per slot.
    """
    if len(start) != len(target):
        raise MutationError(f"walk of length {len(start)} to a target of {len(target)}")
    check(start)
    end = replay(start, script, check)
    slots = []
    for x, y in zip(end.classes(), target.classes()):
        kx, ky = key(x), key(y)
        slots.append(kx == ky or kx == tuple(-v for v in ky))
    return tuple(slots)


# ---------------------------------------------------------------------------
# Integer row span, for checking that mutation preserves the generated
# sublattice of the numerical Grothendieck group.


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form over Z (nonzero rows only)."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        best = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                if best is None or abs(mat[r][col]) < abs(mat[best][col]):
                    best = r
        if best is None:
            continue
        mat[pivot_row], mat[best] = mat[best], mat[pivot_row]
        while True:
            reduced = False
            for r in range(pivot_row + 1, len(mat)):
                if mat[r][col] != 0:
                    q = mat[r][col] // mat[pivot_row][col]
                    for k in range(ncols):
                        mat[r][k] -= q * mat[pivot_row][k]
                    if mat[r][col] != 0:
                        mat[pivot_row], mat[r] = mat[r], mat[pivot_row]
                        reduced = True
            if not reduced:
                break
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-x for x in mat[pivot_row]]
        for r in range(pivot_row):
            q = mat[r][col] // mat[pivot_row][col]
            for k in range(ncols):
                mat[r][k] -= q * mat[pivot_row][k]
        pivot_row += 1
    return tuple(tuple(r) for r in mat[:pivot_row])


# ---------------------------------------------------------------------------
# The derivation of the three-block decomposition on the blown-up plane.

# Move O(-h) to the end (it becomes O(-K-h)), then each O(e_i - h) for
# i = 4..1 (each becomes O(e_i - K - h)), then absorb O(-K-h) into the
# rank-2 extension class by one left mutation.
SODWDP_DERIVATION: tuple[dict, ...] = (
    {"kind": "transpose-to-end", "index": 0},
    {"kind": "transpose-to-end", "index": 0},
    {"kind": "transpose-to-end", "index": 0},
    {"kind": "transpose-to-end", "index": 0},
    {"kind": "transpose-to-end", "index": 0},
    {"kind": "left", "index": 1},
)


def _line(label: str, d: DivClass) -> tuple[str, KClass]:
    return (label, line_bundle_class(d))


def sodwdp_start_collection() -> ExcCollection:
    """Seven line bundles O(-h), O(e4-h), ..., O(e1-h), O, O(h)."""
    objects = [_line("O(-h)", -H)]
    objects += [_line(f"O(e{i}-h)", E[i] - H) for i in (4, 3, 2, 1)]
    objects += [_line("O", ZERO), _line("O(h)", H)]
    return ExcCollection(tuple(objects), euler_pair)


def sodwdp_target_collection() -> ExcCollection:
    """O, the rank-2 extension class, then the five-object big block."""
    labels = ["O(h)"] + [f"O(e{i}-K-h)" for i in (4, 3, 2, 1)]
    objects = [_line("O", ZERO), ("F", f_tilde_class())]
    objects += [_line(label, d) for label, d in zip(labels, a3_block_classes())]
    return ExcCollection(tuple(objects), euler_pair)


def run_sodwdp_derivation() -> dict:
    """Walk SODWDP_DERIVATION from the start to the target collection.

    ``slots`` holds one bool per slot: the end class equals the target class
    up to sign.  Every atomic mutation must keep the Gram matrix
    unitriangular (else MutationError); ``preserves_span`` reports whether
    each also kept the integer span of the classes.
    """

    def span(c: ExcCollection):
        return hermite_normal_form([x.int_vector() for x in c.classes()])

    start = sodwdp_start_collection()
    start_span = span(start)
    preserves_span = True

    def check(c: ExcCollection) -> None:
        nonlocal preserves_span
        assert_unitriangular(c)
        preserves_span &= span(c) == start_span

    target = sodwdp_target_collection()
    slots = run_walk(start, SODWDP_DERIVATION, target, KClass.int_vector, check)
    return {"slots": slots, "preserves_span": preserves_span}


# ---------------------------------------------------------------------------
# Compatibility with the contraction: every effective (-2)-curve is a step
# D' - D between consecutive members of a chain of the big block, and
# [O(D')] - [O(D)] is the class of O_C(-1) on that curve.


def contraction_compatibility(t: SurfaceType) -> bool:
    """Check that each (-2)-curve of t is a step of the chains a3_chains(t).

    For each curve C there must be consecutive chain members D, D' with
    D' - D = C; the class [O(D')] - [O(D)] then has restriction degree
    D'.C = -1 and satisfies the numerical kernel conditions of the
    contraction (rank 0, c1.K = 0, chi(O, -) = chi(-, O) = 0).
    """
    steps = {d2 - d: (d, d2) for chain in a3_chains(t) for d, d2 in zip(chain, chain[1:])}
    o = structure_class()
    for curve in sorted(t.minus_two_curves, key=lambda c: c.coeffs):
        name = f"{t.label}: {curve.to_json()}"
        if curve not in steps:
            raise UnmatchedCurveError(f"{name} is no step of the block's chains")
        d, d2 = steps[curve]
        cls = line_bundle_class(d2) - line_bundle_class(d)
        if d2.dot(curve) != -1:
            raise UnmatchedCurveError(f"{name} has the wrong twist")
        if cls.rank != 0 or cls.c1.dot(K) != 0:
            raise UnmatchedCurveError(f"{name} is not in K-perp")
        if euler_pair(o, cls) != 0 or euler_pair(cls, o) != 0:
            raise UnmatchedCurveError(f"{name} is visible to the pushforward")
    return True
