"""Seeded inputs for the benchmark workloads.

Inputs are plain tuples, so the stream can be generated, compared and
tabulated without importing quintic.  The same seed always gives the same
stream.
"""

from __future__ import annotations

import math
import random

KINDS = ("h_all", "bott", "rhom")
# quintic.surfaces.catalog() labels, in catalog order.
TYPE_LABELS = (
    "I.1", "I.2", "II.1", "II.2", "II.3", "III.1",
    "III.2", "IV.1", "IV.2", "IV.3", "V.1", "V.2",
)
# Box bounds of sweep_box: the report sweeps at 4, the sweep workload at 5
# (1.93M classes over the 12 types).
REPORT_SWEEP_BOUND = 4
SWEEP_BOUND = 5

# Coefficient magnitudes of h_all classes are log-uniform on 0..H0_MAX_COEFF:
# most classes are small, a tail is large enough to reach the peeling cap.
H0_MAX_COEFF = 64
BOTT_MIN_LEN, BOTT_MAX_LEN, BOTT_MAX_ENTRY = 2, 8, 20

# The rhom pool: twists k in RHOM_TWISTS of these homogeneous bundles on Gr(2,5).
RHOM_TWISTS = range(-2, 3)
RHOM_SHAPES = ("O", "R*", "Sym2R*", "Sym3R*", "Rperp")


def rhom_pool():
    """The pool as (label, HomBundle) pairs; a query names two pool indices."""
    from quintic.grassmannian import o, rperp, rstar, sym_rstar

    build = {
        "O": o,
        "R*": rstar,
        "Sym2R*": lambda k: sym_rstar(2, k),
        "Sym3R*": lambda k: sym_rstar(3, k),
        "Rperp": rperp,
    }
    return tuple(
        (f"{shape}({k})", build[shape](k)) for k in RHOM_TWISTS for shape in RHOM_SHAPES
    )


def _log_uniform_coeff(rng: random.Random) -> int:
    magnitude = int(math.exp(rng.uniform(0.0, math.log(H0_MAX_COEFF + 1)))) - 1
    return magnitude if rng.random() < 0.5 else -magnitude


def query_stream(seed: int):
    """Endless stream of point queries, each one of:

    ("h_all", coeffs, type_index)  -- h^0,h^1,h^2 of O(D) on catalog()[type_index]
    ("bott", weight)               -- bott(weight, len(weight))
    ("rhom", i, j)                 -- rhom(pool[i], pool[j])
    """
    rng = random.Random(seed)
    pool_size = len(RHOM_SHAPES) * len(RHOM_TWISTS)
    while True:
        kind = KINDS[rng.randrange(len(KINDS))]
        if kind == "h_all":
            coeffs = tuple(_log_uniform_coeff(rng) for _ in range(5))
            yield ("h_all", coeffs, rng.randrange(len(TYPE_LABELS)))
        elif kind == "bott":
            n = rng.randint(BOTT_MIN_LEN, BOTT_MAX_LEN)
            yield ("bott", tuple(rng.randint(-BOTT_MAX_ENTRY, BOTT_MAX_ENTRY) for _ in range(n)))
        else:
            yield ("rhom", rng.randrange(pool_size), rng.randrange(pool_size))


def spot_rows(seed: int, sweep_index: int, n_classes: int, count: int) -> list[int]:
    """Row indices of one sweep_box result to check against the scalar path."""
    rng = random.Random(seed * 1_000_003 + sweep_index)
    return [rng.randrange(n_classes) for _ in range(count)]


def repeat_share(seed: int, count: int) -> dict[str, float]:
    """Per kind, the share of the first count queries whose input occurred
    earlier in the stream."""
    seen = {kind: set() for kind in KINDS}
    issued = dict.fromkeys(KINDS, 0)
    repeats = dict.fromkeys(KINDS, 0)
    stream = query_stream(seed)
    for _ in range(count):
        query = next(stream)
        kind, key = query[0], query[1:]
        issued[kind] += 1
        if key in seen[kind]:
            repeats[kind] += 1
        else:
            seen[kind].add(key)
    return {kind: repeats[kind] / max(1, issued[kind]) for kind in KINDS}
