"""Verification batteries behind the command-line driver.

Each suite reruns the module-level checks with exact arithmetic and
returns a JSON-ready section; the report is deterministic given the seed.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from . import __version__
from .cohomology import (
    ChainProblem,
    f_tilde_cohomology,
    h_all,
    r1_chain_vanishing,
    sweep_box,
)
from .euler import (
    HILBERT_POINTS,
    KClass,
    f_tilde_class,
    hilbert_values,
    line_bundle_class,
    normal_bundle_cherns,
    p_class,
    verify_chi_identities,
)
from .grassmannian import (
    bott,
    pnr_criterion,
    verify_appendix_identities,
    verify_lefschetz,
)
from .lattice import (
    H,
    K,
    DivClass,
    enumerate_roots,
    is_weyl_stable,
    line_through,
    minus_one_classes,
    weyl_group_elements,
)
from .mutations import contraction_compatibility, run_sodwdp_derivation
from .surfaces import a3_block_classes, a3_chains, catalog, z_scheme

__all__ = ["DEFAULT_SEED", "SUITE_NAMES", "run_suites"]

DEFAULT_SEED = 20260808


def _check(details: dict, name: str, ok: bool) -> None:
    details[name] = bool(ok)


def suite_lattice(seed: int) -> dict:
    details: dict = {}
    roots = enumerate_roots()
    _check(details, "root count is 20", len(roots) == 20)
    _check(details, "roots closed under reflections", is_weyl_stable(roots))
    _check(details, "weyl group order is 120", len(weyl_group_elements()) == 120)
    _check(details, "ten (-1)-classes", len(minus_one_classes()) == 10)
    _check(details, "K^2 = 5", K.dot(K) == 5)
    _check(details, "block classes are Weyl stable", is_weyl_stable(a3_block_classes()))
    return details


def suite_catalog(seed: int) -> dict:
    details: dict = {}
    types = catalog()
    _check(details, "twelve types", len(types) == 12)
    roots = enumerate_roots()
    for t in types:
        z = z_scheme(t.ade)
        chains = a3_chains(t)
        ok = (
            t.minus_two_curves <= roots
            and sum(z) == 5
            and sorted(len(c) for c in chains) == list(z)
        )
        _check(details, f"{t.label}: chains realize lengths {list(z)}", ok)
    return details


def suite_mutations(seed: int) -> dict:
    details: dict = {}
    report = run_sodwdp_derivation()
    _check(details, "derivation reaches target (numerical shadow)", all(report["slots"]))
    _check(details, "mutation preserves the class span", report["preserves_span"])
    for t in catalog():
        _check(details, f"{t.label}: contraction compatible", contraction_compatibility(t))
    return details


def _sweep_consistent(info: dict, t, seed: int) -> bool:
    """Serre duality h^2(D) = h^0(K - D) wherever the mirror K - D of a sweep
    row lies in the box, and scalar h_all on 20 seeded rows.  The box is the
    grid {0, ..., 2b}^5 in C order, b the bound and d_j = i_j - b, so
    D -> K - D sends i_j to 2b + k_j - i_j.  Every k_j is negative, so the
    map reverses the corner 0 <= i_j <= 2b + k_j on every axis, and that
    corner holds exactly the D whose mirror lies in the box (none at bounds
    0 and 1, where the check fails).  sweep_box solves each class once, so
    both sides of the duality read one kernel row: that conjunct checks the
    maps h0_at and h2_at of _box against the flip of the grid.  The scalar
    rows check the walk itself.  Riemann-Roch and h^1 >= 0 need no check:
    sweep_box defines h^1 as h^0 + h^2 - chi and raises on a negative
    one."""
    arr = info["arrays"]
    b = info["bound"]
    corner = tuple(slice(0, max(0, 2 * b + k + 1)) for k in K.coeffs)
    h0, h2 = (arr[h].reshape((2 * b + 1,) * 5)[corner] for h in ("h0", "h2"))
    rng = random.Random(seed)
    rows = [rng.randrange(info["classes"]) for _ in range(20)]
    return bool(
        h2.size
        and (h2 == h0[(slice(None, None, -1),) * 5]).all()
        and all(
            h_all(DivClass(tuple(arr["box"][i].tolist())), t)
            == (int(arr["h0"][i]), int(arr["h1"][i]), int(arr["h2"][i]))
            for i in rows
        )
    )


def suite_cohomology(seed: int) -> dict:
    details: dict = {}
    types = catalog()
    _check(details, "h(O(h)) = (3,0,0)", all(h_all(H, t) == (3, 0, 0) for t in types))
    _check(
        details,
        "h(O(-K-h)) = (2,0,0)",
        all(h_all(-K - H, t) == (2, 0, 0) for t in types),
    )
    _check(details, "h1(O(-K-2h)) = 1 on I.1", h_all(-K - 2 * H, types[0]) == (0, 1, 0))
    _check(
        details,
        "h0(O(h-e_i)) = 2",
        all(h_all(line_through(i), t)[0] == 2 for t in types for i in (1, 2, 3, 4)),
    )
    _check(
        details,
        "h0(O(h-e_i-e_j)) = 1",
        all(
            h_all(line_through(i, j), t)[0] == 1
            for t in types
            for i, j in itertools.combinations((1, 2, 3, 4), 2)
        ),
    )
    _check(
        details,
        "rank-2 extension has h = (5,0,0)",
        all(f_tilde_cohomology(t) == (5, 0, 0) for t in types),
    )
    certified = all(
        r1_chain_vanishing(ChainProblem(degrees, l)).certified
        for n in (1, 2, 3, 4)
        for degrees in itertools.product(range(-1, 4), repeat=n)
        for l in range(1, n + 1)
        if degrees[l - 1] >= -1
        and all(degrees[i] >= 0 for i in range(n) if i != l - 1)
    )
    _check(details, "chain vanishing certificate (exhaustive)", certified)
    _check(
        details,
        "chain vanishing counterexamples",
        not r1_chain_vanishing(ChainProblem((-2,), 1)).certified
        and not r1_chain_vanishing(ChainProblem((-1, -1), 1)).certified,
    )
    for t in types:
        info = sweep_box(t, bound=4, return_arrays=True)
        _check(details, f"{t.label}: |coeff|<=4 sweep consistent", _sweep_consistent(info, t, seed))
        details[f"{t.label}: effective classes in box"] = info["effective"]
        del info  # else its arrays stay alive through the next type's sweep
    return details


def suite_grassmannian(seed: int) -> dict:
    details: dict = {}
    p4_ok = True
    for d in range(-12, 13):
        res = bott((d, 0, 0, 0, 0), 5)
        if d >= 0:
            p4_ok &= res is not None and (res.degree, res.dim) == (0, comb(d + 4, 4))
        elif d <= -5:
            p4_ok &= res is not None and (res.degree, res.dim) == (4, comb(-d - 1, 4))
        else:
            p4_ok &= res is None
    _check(details, "P^4 line-bundle cohomology closed form", p4_ok)
    _check(
        details,
        "Sym^2 R*(-i) vanishes for i = 1..6",
        all(bott((2 - i, -i, 0, 0, 0), 5) is None for i in range(1, 7)),
    )
    lefschetz = verify_lefschetz()
    _check(details, "10x10 Lefschetz table", lefschetz["ok"])
    appendix = verify_appendix_identities()
    for name, ok in appendix["checks"].items():
        _check(details, name, ok)
    rng = random.Random(seed)
    sound = True
    for _ in range(200):
        gamma = tuple(sorted((rng.randint(-5, 5), rng.randint(-5, 5)), reverse=True))
        beta = tuple(sorted((rng.randint(-4, 4) for _ in range(3)), reverse=True))
        if pnr_criterion(gamma[1], beta):
            sound &= bott(gamma + beta, 5) is None
    _check(details, "projective-space criterion sound on sample", sound)
    return details


def suite_chern(seed: int) -> dict:
    details: dict = {}
    tangent, normal, fprime = normal_bundle_cherns()
    h2 = tuple(5 * (t + 1) ** 2 for t in HILBERT_POINTS)
    h3 = tuple((t + 1) * (5 * t + 6) // 2 for t in HILBERT_POINTS)
    h_f = hilbert_values(f_tilde_class())
    # c2(T_X) is also the topological Euler number 2 + rank Pic
    _check(details, "c2(T_X) = 7", tangent.c2() == 7 == 2 + len(K.coeffs))
    _check(details, "c2(N) = 43", normal.c2() == 43)
    _check(details, "c2(F') = 2", fprime.c2() == 2)
    _check(details, "h_F' = 5t^2+10t+5", hilbert_values(fprime) == h2)
    _check(details, "h_F = 5(t+1)^2", h_f == h2)
    _check(details, "h_O(h) = (t+1)(5t+6)/2", hilbert_values(line_bundle_class(H)) == h3)
    _check(details, "h_P = 5 h_O(h)", hilbert_values(p_class()) == tuple(5 * v for v in h3))
    _check(details, "h_F(-1) = 0", h_f[HILBERT_POINTS.index(-1)] == 0)
    rng = random.Random(seed)
    ok = True
    for _ in range(1000):
        c1 = DivClass(tuple(rng.randint(-50, 50) for _ in range(5)))
        g = KClass(rng.randint(-50, 50), c1, c1.square() + 2 * rng.randint(-50, 50))
        ok &= verify_chi_identities(g)
    _check(details, "pairing identities on 1000 seeded classes", ok)
    return details


_SUITES = {
    "lattice": suite_lattice,
    "catalog": suite_catalog,
    "mutations": suite_mutations,
    "cohomology": suite_cohomology,
    "grassmannian": suite_grassmannian,
    "chern": suite_chern,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(names, seed: int = DEFAULT_SEED) -> dict:
    """Run the named suites and assemble the verification report."""
    sections = []
    for name in names:
        runner = _SUITES[name]
        try:
            details = runner(seed)
            ok = all(v for v in details.values() if isinstance(v, bool))
            status = "pass" if ok else "fail"
        except Exception as exc:  # a raising check is a failing check
            details = {"error": f"{type(exc).__name__}: {exc}"}
            status = "fail"
        sections.append({"name": name, "status": status, "details": details})
    passed = sum(s["status"] == "pass" for s in sections)
    return {
        "schema": 1,
        "tool_version": __version__,
        "seed": seed,
        "sections": sections,
        "summary": {"passed": passed, "failed": len(sections) - passed},
    }
