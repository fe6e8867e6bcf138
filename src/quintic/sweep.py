"""The batch Zariski rounds of cohomology.sweep_box, the one module that
imports numpy.  The rounds and the support table are those of
quintic.cohomology, applied to rows of classes as float64 copies of the
kernel's integer tables (_batch, and the test columns of _h0_rows).

Float64 carrier.  The batch form runs every product in float64, used only
to carry integers, and keeps in float64 only the rows that a round steps;
its input rows and its other arrays are integers, and promoting an integer
below 2^53 to float64 is exact.  A sum of integer products is computed
exactly, in whatever order BLAS adds, when the absolute values of its
terms add up to less than 2^53.  Let X bound the absolute coefficients of
the open rows at the start of a round; each round checks
X <= FLOAT_EXACT_LIMIT = 2^25 and raises FloatRangeError otherwise.  Let m
be the number of curves, r the number of (-2)-curves, k the number of nef
rays, c the largest absolute curve coefficient and g the largest |C.C'|.
-M_S is positive definite with diagonal entries 2 and 1, so by Hadamard's
inequality its determinant and its principal minors are at most 2^r;
adj(-M_S) is positive definite too, so every |adj_ij| is at most 2^r.  A
round computes, per row, its degrees on the curves and the rays, then
on S row @ solve, -ceil(N) = floor(x / det) with x = -det * N, and
-ceil(N) @ step, on the float64 copies of the two integer matrices of the
support table.  With p = 5 c m 2^r the terms add up to at most X * F,
where

    F = max(max_j |P_j|_1, 5 c 2^r (1 + g m^2), 1 + m p max(c, A.C))

(max_j |P_j|_1 is at most 10, on III.2), the numerator D^2 - D.K of the
Euler characteristic adds up to at most 5 X (X + 3), and the products
that pack sign tests into codes, weight 2^i on curve i and 2^m on each
ray, stay below 2^m (k + 1).  Each kernel checks F * 2^25 < 2^53 (F is at
most 5761 on the twelve types, whose tables have det <= 6, |adj| <= 6,
g <= 2 and c = 1), and 5 * 2^25 * (2^25 + 3) < 2^53.  So every value is
an exact integer.

The floor of the float quotient is exact too.  IEEE division is correctly
rounded, so the computed quotient of integers x and det >= 1 is q = x/det
rounded to nearest, with error at most |x/det| * 2^-53.  If det divides x,
x/det is an integer below 2^53 and q equals it.  Otherwise x/det = n + f
with n = floor(x/det) and 1/det <= f <= 1 - 1/det; for |x| < 2^53 the error
is below 1/det, so n < q < n + 1 and floor(q) = n.

Memory.  Of the sweep's arrays only the rows that a round steps and the
products need float64; the rest are kept narrow, and the kernel keeps one
copy of its open rows.  _box holds the box, chi and the kernel rows in the
narrowest signed dtype that holds their values on the box, chosen from
the bound, so that no bound wraps (under NEP 50, int8 + 3 stays int8 and
wraps silently), and the pre-filter's masks as bools.  The kernel rows are
points of the grid that holds both the box and K - box, which runs from
its corner to bound on every axis.  chi and each D.P are sums of one term
per coefficient (for chi half of sign_j d_j (d_j - k_j), an integer as
every k_j is odd), so their least and greatest values over the box, and
over each partial sum, are sums of per-coefficient extremes, and _on_grid
adds the terms one axis at a time, by broadcasting into an array of that
dtype, with no n x 5 temporary.  Up to bound 6 all are int8.  Arithmetic
that can leave that range runs wider: the grid codes of D and K - D in the
dtype of their own range (int32 at bound 5), chi of a row in int64 (int8
squares wrap), and h^0 in int64.  h0_at, h2_at and the kernel's row index
take the narrowest dtype that holds the row count, and the returned h0, h1
and h2 the narrowest that holds h^1 = h^0 + h^2 - chi, which lies between
-max chi and 2 max h^0 - min chi.  The float64 rows and products, and chi,
are chunked as _round_codes, _chi_rows, _h0_rows and _step_round describe.
Under tracemalloc, at bound 5, _box holds 1.9 MiB (12.3 bytes per class of
the box), a warm sweep on V.2 peaks 5.9 MiB (38.2 bytes per class) above
it, and twelve sweeps peak at 7.8 MiB with _box.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cohomology import _SIGNS, FLOAT_EXACT_LIMIT, CohomologyConsistencyError, FloatRangeError
from .cohomology import ReductionDivergenceError, _Kernel, _Support
from .lattice import K, DivClass


def _batch(sup: _Support) -> tuple[np.ndarray, np.ndarray]:
    """sup.solve and sup.step as row-major float64 matrices, kept in
    sup.batch (transposed views slow the matmuls)."""
    if sup.batch is None:
        sup.batch = tuple(np.array([*zip(*x)], dtype=np.float64) for x in (sup.solve, sup.step))
    return sup.batch


_CHUNK = 8192


def _chi_rows(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
    """chi = (D^2 - D.K)/2 + 1 of the rows at of an array of integers,
    narrow or float64, _CHUNK rows at a time, each column widened to int64
    before it is multiplied, since int8 squares wrap."""
    chi = np.empty(at.size, dtype=np.int64)
    for lo in range(0, at.size, _CHUNK):
        part = rows.take(at[lo : lo + _CHUNK], axis=0)
        num = np.zeros(part.shape[0], dtype=np.int64)
        for col, sign, k in zip(part.T, _SIGNS, K.coeffs):
            col = col.astype(np.int64)
            num += sign * col * (col - k)
        odd = np.flatnonzero(num & 1)
        if odd.size:
            bad = tuple(int(x) for x in part[odd[0]])
            raise CohomologyConsistencyError(f"parity violation in chi at {bad}")
        chi[lo : lo + _CHUNK] = (num >> 1) + 1
    return chi


def _check_float_range(rows: np.ndarray, kern: _Kernel) -> None:
    # compared with both limits, not negated: -(-128) wraps in int8
    if rows.size and (rows.max() > FLOAT_EXACT_LIMIT or rows.min() < -FLOAT_EXACT_LIMIT):
        bad = rows[((rows > FLOAT_EXACT_LIMIT) | (rows < -FLOAT_EXACT_LIMIT)).any(axis=1)][0]
        raise FloatRangeError(
            f"row {tuple(int(x) for x in bad)} on {kern.label} has a coefficient "
            f"beyond the float64-exact limit FLOAT_EXACT_LIMIT = {FLOAT_EXACT_LIMIT}"
        )


def _round_codes(rows: np.ndarray, tests: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """row @ tests holds the degrees of a row on the m curves, then on the
    rays, and bits weighs a negative degree 2^i on curve i and 2^m on a ray:
    so bit i of a row's code is set iff D.C_i < 0, and the code is at least
    2^m iff step 1 of a round ends the row.

    Built _CHUNK rows at a time, each promoted to float64 for its product,
    so that the float64 temporaries stay small.
    """
    codes = np.empty(rows.shape[0], dtype=np.min_scalar_type(int(bits.sum())))
    for lo in range(0, rows.shape[0], _CHUNK):
        chunk = rows[lo : lo + _CHUNK].astype(np.float64, copy=False)
        codes[lo : lo + _CHUNK] = (chunk @ tests < 0) @ bits
    return codes


def _h0_rows(rows: np.ndarray, kern: _Kernel) -> np.ndarray:
    """h^0 of every row of an array of integer coefficients, narrow or
    float64, by the rounds of cohomology._h0; rows is not modified.

    A row leaves when a round ends it; only the rows that end at a nef
    class are written, every other ending has h^0 = 0.  Each round takes
    its open rows, sorted by support mask, into one new float64 array
    (take gathers rows several times faster than fancy indexing), and
    _step_round steps them there in place and ends those on a det-1 support.
    """
    m, k = len(kern.curve_ints), len(kern.ray_ints)
    tests = np.array([*zip(*kern.curve_ints, *kern.ray_ints)], dtype=np.float64)
    bits = np.minimum(2.0 ** np.arange(m + k), 2.0**m)
    h0 = np.zeros(rows.shape[0], dtype=np.int64)
    cur, idx = rows, np.arange(rows.shape[0], dtype=_int_dtype(0, rows.shape[0]))
    _check_float_range(cur, kern)
    while idx.size:
        masks = _round_codes(cur, tests, bits)
        nef = np.flatnonzero(masks == 0)
        h0[idx[nef]] = np.maximum(_chi_rows(cur, nef), 0)
        order = np.flatnonzero((masks != 0) & (masks < 1 << m))
        order = order[np.argsort(masks[order], kind="stable")]
        cur = cur.take(order, axis=0).astype(np.float64, copy=False)
        idx, masks = idx[order], masks[order]
        del nef, order  # else both live through the round
        ended = _step_round(cur, masks, kern, rows, idx)
        _check_float_range(cur, kern)
        h0[idx[ended]] = np.maximum(_chi_rows(cur, np.flatnonzero(ended)), 0)
        cur, idx = cur.take(np.flatnonzero(~ended), axis=0), idx[~ended]
    return h0


def _step_round(
    cur: np.ndarray, masks: np.ndarray, kern: _Kernel, rows: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Step every row of cur by one round, in place; cur is sorted by masks,
    the support masks of its rows, and rows[idx] are the classes they came
    from.  Returns the rows that end, those stepped on a support with det 1.

    todo holds the positions of the rows whose support is still growing,
    sorted by mask and, within a mask, by position, so that a group is a
    slice of cur when its positions are consecutive, as they all are on
    the first pass.  A group is taken _CHUNK rows at a time, so that no
    temporary outgrows a chunk, and a chunk on other positions is
    gathered.  The rows whose support grows join todo for the next pass;
    the others step, and the grown rows with them, by a delta of zero.
    Their own delta would change no answer: the solve is linear, so
    re-solving on the grown S' from D - ceil(N_S) ends at D - ceil(N_S'(D))
    either way.  The zero keeps every row at its class of the round start
    until its support stops growing, so that every product of a round runs
    on rows bounded by the X of the float64 carrier proof.
    """
    bits = 2.0 ** np.arange(len(kern.curves))
    ended = np.zeros(cur.shape[0], dtype=bool)
    todo = np.arange(cur.shape[0])
    todo_masks = masks
    while todo.size:
        starts = np.flatnonzero(np.r_[True, todo_masks[1:] != todo_masks[:-1]])
        grew = np.zeros(todo.size, dtype=bool)
        for start, end in zip(starts, np.r_[starts[1:], todo.size]):
            mask = int(todo_masks[start])
            sup = kern.support(mask)
            s = len(sup.idx)
            solve, step = _batch(sup)
            for lo in range(start, end, _CHUNK):
                at = todo[lo : min(lo + _CHUNK, end)]
                in_place = at[-1] - at[0] == at.size - 1
                block = cur[at[0] : at[-1] + 1] if in_place else cur.take(at, axis=0)
                prod = block @ solve
                grown = mask | ((prod[:, s:] < 0) @ bits).astype(masks.dtype)
                stay = grown == mask
                if not stay.all():
                    masks[at], grew[lo : lo + at.size] = grown, ~stay
                    if not stay.any():
                        continue
                # -ceil(N), exactly (module docstring, float64 carrier)
                delta = np.floor(prod[:, :s] / sup.det) @ step
                delta[~stay] = 0
                stuck = (delta[:, 5] >= 0) & stay
                if stuck.any():
                    raise ReductionDivergenceError(
                        "Zariski round did not lower A.D at "
                        f"{tuple(int(c) for c in rows[idx[at[stuck][0]]])} on {kern.label}"
                    )
                if in_place:
                    block += delta[:, :5]
                else:
                    cur[at] = block + delta[:, :5]
                ended[at] = stay & (sup.det == 1)  # D - N is nef (cohomology, support table)
        todo = todo[grew]
        todo = todo[np.lexsort((todo, masks[todo]))]
        todo_masks = masks[todo]
    return ended


def _int_dtype(lo: int, hi: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every integer of [lo, hi]:
    a signed dtype holds hi exactly when it holds -hi - 1."""
    dtype = np.min_scalar_type(min(lo, -hi - 1))
    if dtype.kind != "i":
        raise OverflowError(f"no signed integer dtype holds [{lo}, {hi}]")
    return dtype


def _on_grid(terms: np.ndarray) -> np.ndarray:
    """terms[0, i_0] + ... + terms[4, i_4] at every point (i_0, ..., i_4) of
    the grid {0, ..., s - 1}^5, s = terms.shape[1], flattened in C order.

    The sum is built one axis at a time, by broadcasting, in the narrowest
    signed dtype that holds every term and every partial sum, so that no
    step wraps: the partial sums over the first j axes range exactly over
    the sums of the first j row minima and maxima."""
    s = terms.shape[1]
    lows, highs = np.cumsum(terms.min(axis=1)), np.cumsum(terms.max(axis=1))
    dtype = _int_dtype(
        min(0, int(terms.min()), int(lows.min())), max(0, int(terms.max()), int(highs.max()))
    )
    out = np.zeros((s,) * 5, dtype=dtype)
    for j, row in enumerate(terms.astype(dtype)):
        out += row.reshape((s,) + (1,) * (4 - j))
    return out.reshape(-1)


class _BoxData(NamedTuple):
    box: np.ndarray  # the classes D, one per row, in the narrowest dtype holding +-bound
    chi: np.ndarray  # chi(D), in the narrowest dtype holding its range on the box
    h0_mask: np.ndarray  # the D that pass the pre-filter
    h2_mask: np.ndarray  # the D whose K - D passes it
    rows: np.ndarray  # the kernel's input, each needed class once, in the narrowest dtype
    h0_at: np.ndarray  # the row of D, for each D of h0_mask
    h2_at: np.ndarray  # the row of K - D, for each D of h2_mask


@lru_cache(maxsize=1)
def _box(bound: int, rays: tuple[DivClass, ...]) -> _BoxData:
    """The data of a sweep at bound, shared read-only by every type that
    keeps the same pre-filter rays: rows holds once each of the D with
    D.P >= 0 and the K - D with (K - D).P >= 0 for every P of rays (the
    pre-filter of quintic.cohomology), in the order of their codes in the
    grid that holds both the box and K - box.  The integer arrays take the
    narrowest signed dtypes that hold them (module docstring, memory);
    h0_at and h2_at the narrowest that holds the row count."""
    s = 2 * bound + 1
    r = np.arange(-bound, bound + 1)
    k, signs = np.array(K.coeffs)[:, None], np.array(_SIGNS)[:, None]
    box = np.empty((s**5, 5), dtype=_int_dtype(-bound, bound))
    grid = box.reshape((s,) * 5 + (5,))
    for j in range(5):
        grid[..., j] = r.reshape((s,) + (1,) * (4 - j))
    h0_mask, h2_mask = np.ones((2, s**5), dtype=bool)
    for p in rays:  # (K - D).P = K.P - D.P
        deg = _on_grid(signs * np.array(p.coeffs)[:, None] * r)
        h0_mask &= deg >= 0
        h2_mask &= deg <= K.dot(p)
    # D^2 - D.K = sum_j sign_j d_j (d_j - k_j); every k_j is odd, so each
    # term is even, and chi = 1 + the sum of the halved terms
    num = signs * r * (r - k)
    if (num & 1).any():
        raise CohomologyConsistencyError(f"parity violation in chi at bound {bound}")
    half = num >> 1
    half[0] += 1
    chi = _on_grid(half)
    # the codes of D and of K - D in the grid that holds both the box and K - box
    corner = np.minimum(-bound, k - bound)
    sides = tuple((s + np.abs(k)).ravel().tolist())
    strides = np.cumprod((1, *sides[:0:-1]))[::-1, None]
    h0_codes = _on_grid((r - corner) * strides)[h0_mask]
    h2_codes = _on_grid((k - r - corner) * strides)[h2_mask]
    marked = np.zeros(sides, dtype=bool)
    flat = marked.reshape(-1)
    flat[h0_codes] = flat[h2_codes] = True
    # every axis of that grid runs from its corner up to bound
    rows = np.empty((np.count_nonzero(flat), 5), dtype=_int_dtype(int(corner.min()), bound))
    rank = np.cumsum(flat, dtype=_int_dtype(-1, rows.shape[0]))
    rank -= 1
    for j, side in enumerate(sides):
        coord = np.arange(side) + corner[j]
        rows[:, j] = np.broadcast_to(coord.reshape((side,) + (1,) * (4 - j)), sides)[marked]
    data = _BoxData(box, chi, h0_mask, h2_mask, rows, rank[h0_codes], rank[h2_codes])
    for a in data:
        a.setflags(write=False)
    return data


def run(kern: _Kernel, bound: int, return_arrays: bool) -> dict:
    """cohomology.sweep_box at a checked bound, on the kernel of its type:
    box and chi are _box's arrays, shared and read-only, and h0, h1 and h2
    take the narrowest signed dtype that holds their range."""
    box, chi, h0_mask, h2_mask, rows, h0_at, h2_at = _box(bound, kern.prefilter)
    n = box.shape[0]
    h0 = _h0_rows(rows, kern)
    # h^1 = h^0 + h^2 - chi lies in [-max chi, 2 max h^0 - min chi], and
    # numpy setitem wraps silently, so the dtype comes from that range; one
    # block for the three answers: fewer, larger allocations also keep glibc
    # from returning and re-faulting the pages on every sweep
    top = int(h0.max(initial=0))
    dtype = _int_dtype(min(0, -int(chi.max())), 2 * top - min(0, int(chi.min())))
    h0_d, h1_d, h2_d = np.zeros((3, n), dtype=dtype)
    h0_d[h0_mask] = h0[h0_at]
    h2_d[h2_mask] = h0[h2_at]
    del h0
    np.add(h0_d, h2_d, out=h1_d)
    h1_d -= chi
    if h1_d.min() < 0:
        bad = box[np.argmax(h1_d < 0)]
        raise CohomologyConsistencyError(f"negative h^1 at {tuple(bad.tolist())} on {kern.label}")

    info = {
        "type": kern.label,
        "bound": bound,
        "classes": int(n),
        "effective": int(np.count_nonzero(h0_d)),
        "h1_positive": int(np.count_nonzero(h1_d)),
        "max_h0": int(h0_d.max()),
    }
    if return_arrays:
        info["arrays"] = {"box": box, "h0": h0_d, "h1": h1_d, "h2": h2_d, "chi": chi}
    return info
