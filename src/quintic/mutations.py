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
from .surfaces import SurfaceType, a3_block_classes

__all__ = [
    "ExcCollection",
    "MutationError",
    "UnmatchedCurveError",
    "right_mutate",
    "left_mutate",
    "move_to_end",
    "gram",
    "assert_unitriangular",
    "is_unitriangular",
    "replay",
    "same_up_to_sign",
    "SODWDP_DERIVATION",
    "GR25_LEFSCHETZ",
    "sodwdp_start_collection",
    "sodwdp_target_collection",
    "run_sodwdp_derivation",
    "contraction_compatibility",
    "hermite_normal_form",
    "span_signature",
]


class MutationError(ValueError):
    pass


class UnmatchedCurveError(ValueError):
    """A (-2)-curve of the surface type matched by no pair in the block."""


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


def is_unitriangular(c: ExcCollection) -> bool:
    g = gram(c)
    n = len(g)
    for i in range(n):
        if g[i][i] != 1:
            return False
        for j in range(i):
            if g[i][j] != 0:
                return False
    return True


def assert_unitriangular(c: ExcCollection) -> bool:
    if not is_unitriangular(c):
        raise MutationError(f"Gram matrix not unitriangular for {c.labels()}")
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


def move_to_end(c: ExcCollection, i: int, check=None) -> ExcCollection:
    """Right-mutate the object at position i past everything after it."""
    for j in range(i, len(c) - 1):
        c = right_mutate(c, j)
        if check is not None:
            check(c)
    return c


def replay(c: ExcCollection, script: Sequence[dict], check=None) -> ExcCollection:
    """Apply a list of {kind, index} steps.

    kind is one of "right", "left", "transpose-to-end"; the last is the
    macro moving the object at the index to the final slot by successive
    right mutations.  When given, ``check`` is called on the collection
    after every atomic mutation.
    """
    for step in script:
        kind, index = step["kind"], step["index"]
        if kind == "right":
            c = right_mutate(c, index)
            if check is not None:
                check(c)
        elif kind == "left":
            c = left_mutate(c, index)
            if check is not None:
                check(c)
        elif kind == "transpose-to-end":
            c = move_to_end(c, index, check=check)
        else:
            raise MutationError(f"unknown step kind {kind!r}")
    return c


def same_up_to_sign(x, y) -> bool:
    return x == y or x == -y


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


def span_signature(c: ExcCollection, vectorize: Callable[[object], Sequence[int]]):
    return hermite_normal_form([vectorize(cls) for cls in c.classes()])


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

# On Gr(2,5): from the Kapranov-style ten-object collection to the
# rectangular two-block collection.  Sym^3 R* travels to the end (becoming
# O(4)), Sym^2 R* moves five slots right (becoming R*(3)), Sym^2 R*(1)
# travels to the end (becoming R*(4)).
GR25_LEFSCHETZ: tuple[dict, ...] = (
    {"kind": "transpose-to-end", "index": 5},
    {"kind": "right", "index": 3},
    {"kind": "right", "index": 4},
    {"kind": "right", "index": 5},
    {"kind": "right", "index": 6},
    {"kind": "right", "index": 7},
    {"kind": "transpose-to-end", "index": 5},
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
    """Replay SODWDP_DERIVATION and compare against the target, slot by
    slot and up to sign; raises MutationError on any mismatch.

    Every atomic mutation must keep the Gram matrix unitriangular (else
    MutationError) and is checked to keep the integer span of the classes;
    ``preserves_span`` reports the latter.
    """
    start = sodwdp_start_collection()
    assert_unitriangular(start)
    signature = span_signature(start, KClass.int_vector)
    preserves_span = True

    def check(c: ExcCollection) -> None:
        nonlocal preserves_span
        assert_unitriangular(c)
        preserves_span &= span_signature(c, KClass.int_vector) == signature

    final = replay(start, SODWDP_DERIVATION, check=check)
    target = sodwdp_target_collection()
    mismatches = [
        {"slot": i, "got": x.to_json(), "expected": y.to_json()}
        for i, (x, y) in enumerate(zip(final.classes(), target.classes()))
        if not same_up_to_sign(x, y)
    ]
    if mismatches:
        raise MutationError(f"derivation mismatch: {mismatches}")
    return {
        "steps": len(SODWDP_DERIVATION),
        "final_labels": final.labels(),
        "matches_target": True,
        "preserves_span": preserves_span,
    }


# ---------------------------------------------------------------------------
# Compatibility with the contraction: every effective (-2)-curve is the
# difference of two members of the big block, and the difference class is
# the class of O_C(-1) on that curve.


def _o_curve_minus_one(curve: DivClass, d: DivClass) -> KClass:
    """Class [O(D)] - [O(D - C)], the sheaf O_C(D.C) pushed to the surface."""
    return line_bundle_class(d) - line_bundle_class(d - curve)


def contraction_compatibility(t: SurfaceType) -> bool:
    """Check that each (-2)-curve of t is matched inside the big block.

    For each curve C there must be members D, D' of the five-object block
    with D - D' = C; the class [O(D)] - [O(D')] then has restriction degree
    D.C = -1 and satisfies the numerical kernel conditions of the
    contraction (rank 0, c1.K = 0, chi(O, -) = chi(-, O) = 0).
    """
    block = a3_block_classes()
    o = structure_class()
    for curve in sorted(t.minus_two_curves, key=lambda c: c.coeffs):
        pair = next(
            ((d, d2) for d in block for d2 in block if d - d2 == curve), None
        )
        if pair is None:
            raise UnmatchedCurveError(f"{t.label}: no pair realizes {curve!r}")
        d, d2 = pair
        cls = _o_curve_minus_one(curve, d)
        if cls != line_bundle_class(d) - line_bundle_class(d2):
            raise UnmatchedCurveError(f"{t.label}: class mismatch at {curve!r}")
        if d.dot(curve) != -1:
            raise UnmatchedCurveError(f"{t.label}: wrong twist on {curve!r}")
        if cls.rank != 0 or cls.c1.dot(K) != 0:
            raise UnmatchedCurveError(f"{t.label}: {curve!r} not in K-perp")
        if euler_pair(o, cls) != 0 or euler_pair(cls, o) != 0:
            raise UnmatchedCurveError(f"{t.label}: {curve!r} visible to pushforward")
    return True
