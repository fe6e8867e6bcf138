"""h^0 on a box of classes by fixed components, behind
cohomology.sweep_box; the one module that imports numpy.

The lemma (Zariski, Ann. Math. 76, 1962).  Let C be an irreducible curve
and D a class with D.C < 0.  An effective E in |D| is aC + E' with C not
in E', and E'.C >= 0, so E.C < 0 forces a >= 1: C is a fixed component
of |D|, and multiplying by the equation of C identifies the sections of
O(D - C) with those of O(D).  That multiplication is injective, so if |D|
is empty, h^0(D - C) <= h^0(D) = 0.  Either way h^0(D) = h^0(D - C).

The walk.  _h0_rows gives each kernel row D a sign code (_sign_codes):
bit i set iff D.C_i < 0, over the curves of negative_curves(t).all, and
2^m for each nef ray P with D.P < 0.  A code of 0 makes D nef, with
h^0 = max(chi, 0); a code of at least 2^m ends at a ray, with h^0 = 0
(quintic.cohomology, (e)).  Any other row points at the row of D - C, C
its first negative curve, the lowest set bit of its code, and by the
lemma has the h^0 of that row.  _jump follows every pointer to the end of
its chain, a row of the first two kinds, whose h^0 the whole chain takes.
No support, solve or round is involved: the walk shares only the curves
and the rays with the scalar rounds of h_all, so the two derive h^0
independently.

Termination.  A, the sum of the rays, has A.C >= 1 on every negative
curve, which each kernel checks.  A row that points passes every ray, so
A.D >= 0, and A.(D - C) <= A.D - 1: A.D falls along every chain, no row
repeats, and a chain of n rows has fewer than n steps.  Each pass of
_jump doubles the steps every pointer has taken, so n.bit_length()
passes end every chain; a pointer that has not reached an end after them
raises CohomologyConsistencyError.  Chains take up to 60 steps at bound 5 and 90
at bound 8, and end after 6 and 7 passes.

Closure.  The rows are sorted by their codes in a grid that holds every
row with a margin of _PAD = 1 on each side of each axis.  No negative
curve has a coefficient beyond 1 in absolute value (_h0_rows checks it),
so D - C lies in that grid, its code is code(D) - C @ strides, and equal
codes are equal classes.  _h0_rows finds the row of each target through
one table over the rows' code span, codes[0] to codes[-1], holding each
row's index at its code and -1 between rows.  That is its only lookup: a
box's rows fill their span densely, 1.0, 15.8, 8.2, 5.1, 3.9, 3.2, 2.8,
2.6 and 2.4 codes per row at bounds 0-8, so the table is at most 16
entries per row.  A target past an end of the span is clipped to the end
row, and the row found is checked to carry the target's code, so a
clipped or -1 entry is a miss.  That D - C is a row at all, inside the
box or K - box and past the pre-filter, is not proved: a miss raises
CohomologyConsistencyError naming the row, the curve and the type.
Measured on the twelve types: none of the 10,656,975 rows that point at
bounds 0-8 misses.  The order of the curves matters.  Stepping by any
negative curve of D instead of the first, 37 of the 1,457,367 steps at
bound 5 leave the rows, each by a (-2)-curve that is not the first, while
no (-1)-curve step does; so a proof would have to use the order, in
which the (-2)-curves come first.

Degrees.  The only products are the degrees of the rows on the curves and
the rays, tests @ cols, and the codes, bits @ (degrees < 0), both in
float32, which carries integers below 2^24 exactly: a sum of integer
terms whose absolute values add up to less than 2^24 comes out exact in
any order of summation.  Row coefficients lie in [-bound - 3, bound], and
the curve and ray functionals have coefficients of at most 4 in absolute
value (|P|_1 <= 10 on the twelve types), so |D.P| <= 5 * 4 (bound + 3):
exact below bound 838,000, far past any box that fits in memory, with
(2 bound + 1)^5 classes.  A code is below 2^m (k + 1) <= 2^14.

Memory.  _box holds the box, chi and the kernel rows in the narrowest
signed dtype that holds their values on the box, chosen from the bound so
that none wraps (under NEP 50, int8 + 3 stays int8 and wraps silently),
and the pre-filter's masks as bools.  The kernel rows are points of the
grid that holds both the box and K - box, which runs from its corner to
bound on every axis.  chi and each D.P are sums of one term per
coefficient (for chi half of sign_j d_j (d_j - k_j), an integer as every
k_j is odd), so their extremes over the box, and over each partial sum,
are sums of per-coefficient extremes, and _on_grid adds the terms one
axis at a time, by broadcasting into an array of that dtype.  Up to bound
6 all are int8.  The grid codes take the dtype of their own range (int32
at bound 5), and so do the rows' codes in the padded grid; each row's
chi, scattered from the box's since chi(K - D) = chi(D), and its h^0
keep chi's dtype.  h0_at and h2_at take the narrowest dtype that holds
the row count, and the returned h0, h1 and h2 the narrowest that holds
h^1 = h^0 + h^2 - chi, in [-max chi, 2 max h^0 - min chi].  The float32
degrees, and the steps' targets, lookups and miss checks, are built
_CHUNK rows at a time.  The lookup table takes the narrowest signed dtype
that holds -1 and the row count and is freed before _jump: at bound 5 it
is 224,581 int32 entries, 0.9 MB (5.6 bytes per class of the box), and at
bound 4 99,906 int16 entries, 0.2 MB.  Under tracemalloc, at bound 5,
_box holds 2.2 MiB (14.5 bytes per class of the box), and a warm sweep
on V.2 peaks 1.8 MiB (11.7 bytes per class) above it, in _jump; up to
_jump it peaks at 10.8 bytes per class, the table included.  Twelve
sweeps peak at 4.6 MiB with _box.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import NamedTuple

import numpy as np

from .cohomology import _SIGNS, CohomologyConsistencyError, _Kernel
from .lattice import K, DivClass

_CHUNK = 8192

# the margin of the code grid on every side of the rows: the largest
# |coefficient| of a negative curve (module docstring, closure)
_PAD = 1


def _sign_codes(cols: np.ndarray, tests: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """tests @ cols holds the degrees of each class on the m curves, then on
    the rays, and bits weighs a negative degree 2^i on curve i and 2^m on a
    ray: so bit i of a class's code is set iff D.C_i < 0, and the code is at
    least 2^m iff D meets a ray negatively.  Built _CHUNK columns at a time
    in the dtype of tests and bits, float32 (module docstring, degrees), so
    that the temporaries stay small."""
    codes = np.empty(cols.shape[1], dtype=np.min_scalar_type(int(bits.sum())))
    for lo in range(0, cols.shape[1], _CHUNK):
        deg = tests @ cols[:, lo : lo + _CHUNK].astype(tests.dtype)
        codes[lo : lo + _CHUNK] = bits @ np.less(deg, 0, out=deg)
    return codes


def _jump(ptr: np.ndarray, rows: np.ndarray, label: str) -> np.ndarray:
    """Every pointer of ptr followed to its end, a row that points at
    itself, by pointer jumping: each pass replaces ptr by ptr[ptr], which
    doubles the steps each pointer has taken.  A chain of rows without a
    cycle has fewer than ptr.size steps, so ptr.size.bit_length() passes
    end it; a pointer that has not reached an end after them raises,
    naming the first of rows whose chain did not end.  (A pointer on a
    cycle can come back to its own row, so the test is against the ends,
    not against ptr[ptr] == ptr.)"""
    end = ptr == np.arange(ptr.size)
    for _ in range(ptr.size.bit_length() + 1):
        if end.take(ptr).all():
            return ptr
        ptr = ptr.take(ptr)
    first = rows[int(np.argmin(end.take(ptr)))]
    raise CohomologyConsistencyError(
        f"pointer jumping from {tuple(first.tolist())} on {label} "
        f"did not end within {ptr.size.bit_length()} passes"
    )


def _h0_rows(data: _BoxData, kern: _Kernel) -> np.ndarray:
    """h^0 of every kernel row of data on the type of kern, in the dtype of
    the rows' chi, by the walk of the module docstring: one sign code per
    row, a pointer from each row to the row of its step, found by code
    through a table over the rows' code span, and _jump to the end of every
    chain."""
    if max(abs(x) for c in kern.curves for x in c.coeffs) > _PAD:
        raise CohomologyConsistencyError(f"{kern.label}: a curve leaves the margin of the codes")
    rows, codes = data.rows, data.codes
    m, k = len(kern.curve_ints), len(kern.ray_ints)
    tests = np.array([*kern.curve_ints, *kern.ray_ints], dtype=np.float32)
    bits = np.minimum(2 ** np.arange(m + k), 2**m).astype(np.float32)
    sign = _sign_codes(rows.T, tests, bits)
    # the change of code of a row's step, by its sign code: C @ strides for
    # the curve C of the lowest set bit below 2^m (written last), 0 on 0
    # and from 2^m on
    strides = data.strides.tolist()
    step = np.zeros(int(bits.sum()) + 1, dtype=codes.dtype)
    sub = np.arange(1 << m)
    for i in reversed(range(m)):
        step[: 1 << m][sub >> i & 1 == 1] = sum(map(mul, kern.curves[i].coeffs, strides))
    # the row of each code of the rows' span, -1 between rows (module
    # docstring, closure)
    n, first = codes.size, int(codes[0])
    where = np.full(int(codes[-1]) - first + 1, -1, dtype=_int_dtype(-1, n))
    where[codes - first] = np.arange(n, dtype=where.dtype)
    ptr = np.empty(n, dtype=np.intp)
    for lo in range(0, n, _CHUNK):
        target = codes[lo : lo + _CHUNK] - step.take(sign[lo : lo + _CHUNK])
        at = where.take(target - first, mode="clip")
        missed = codes.take(at, mode="clip") != target
        if missed.any():
            i = lo + int(np.argmax(missed))
            curve = kern.curves[(int(sign[i]) & -int(sign[i])).bit_length() - 1]
            raise CohomologyConsistencyError(
                f"the step from {tuple(rows[i].tolist())} by the curve {curve.coeffs} "
                f"on {kern.label} leaves the kernel rows"
            )
        ptr[lo : lo + _CHUNK] = at
    del where, target, at, missed
    h0 = np.maximum(data.row_chi, 0)
    h0[sign != 0] = 0
    return h0.take(_jump(ptr, rows, kern.label))


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
    codes: np.ndarray  # the code of each row in the padded grid, ascending
    row_chi: np.ndarray  # chi of each row, in the dtype of chi
    h0_at: np.ndarray  # the row of D, for each D of h0_mask
    h2_at: np.ndarray  # the row of K - D, for each D of h2_mask
    strides: np.ndarray  # the padded grid's strides: a step by C changes a code by C @ strides


@lru_cache(maxsize=1)
def _box(bound: int, rays: tuple[DivClass, ...]) -> _BoxData:
    """The data of a sweep at bound, shared read-only by every type that
    keeps the same pre-filter rays: rows holds once each of the D with
    D.P >= 0 and the K - D with (K - D).P >= 0 for every P of rays (the
    pre-filter of quintic.cohomology), in the order of their codes in the
    grid that holds both the box and K - box, stored so that rows.T, the
    columns _sign_codes reads, is C-contiguous, with their codes in that
    grid widened by _PAD on every side and their chi.  The integer arrays
    take the narrowest signed dtypes that hold them (module docstring,
    memory); h0_at and h2_at the narrowest that holds the row count."""
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
    cols = np.empty((5, np.count_nonzero(flat)), dtype=_int_dtype(int(corner.min()), bound))
    rank = np.cumsum(flat, dtype=_int_dtype(-1, cols.shape[1]))
    rank -= 1
    for j, side in enumerate(sides):
        coord = np.arange(side) + corner[j]
        cols[j] = np.broadcast_to(coord.reshape((side,) + (1,) * (4 - j)), sides)[marked]
    h0_at, h2_at = rank[h0_codes], rank[h2_codes]
    del marked, flat, rank
    # chi(K - D) = chi(D), so each row's chi is that of a class it serves
    row_chi = np.empty(cols.shape[1], dtype=chi.dtype)
    row_chi[h0_at] = chi[h0_mask]
    row_chi[h2_at] = chi[h2_mask]
    # the codes of the rows in that grid widened by _PAD on every side, in
    # which a step by a curve stays inside (module docstring, closure)
    low = corner.ravel() - _PAD
    wide = bound + _PAD - low + 1
    strides = np.cumprod((1, *wide[:0:-1]))[::-1]
    codes = np.zeros(cols.shape[1], dtype=_int_dtype(0, int(np.prod(wide)) - 1))
    for coord, lo, stride in zip(cols, low.tolist(), strides.tolist()):
        codes += (coord.astype(codes.dtype) - lo) * stride
    data = _BoxData(box, chi, h0_mask, h2_mask, cols.T, codes, row_chi, h0_at, h2_at, strides)
    for a in data:
        a.setflags(write=False)
    return data


def run(kern: _Kernel, bound: int, return_arrays: bool) -> dict:
    """cohomology.sweep_box at a checked bound, on the kernel of its type:
    box and chi are _box's arrays, shared and read-only, and h0, h1 and h2
    take the narrowest signed dtype that holds their range."""
    data = _box(bound, kern.prefilter)
    box, chi = data.box, data.chi
    n = box.shape[0]
    h0 = _h0_rows(data, kern)
    # h^1 = h^0 + h^2 - chi lies in [-max chi, 2 max h^0 - min chi], and
    # numpy setitem wraps silently, so the dtype comes from that range; one
    # block for the three answers: fewer, larger allocations also keep glibc
    # from returning and re-faulting the pages on every sweep
    top = int(h0.max(initial=0))
    dtype = _int_dtype(min(0, -int(chi.max())), 2 * top - min(0, int(chi.min())))
    h0_d, h1_d, h2_d = np.zeros((3, n), dtype=dtype)
    h0_d[data.h0_mask] = h0.take(data.h0_at)
    h2_d[data.h2_mask] = h0.take(data.h2_at)
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
