"""Regenerate the expected-answer tables under perfbench/expected/.

    PYTHONPATH=src python3 perfbench/make_expected.py

The tables record what the program answers today.  Regenerate them only in
a change that alters an answer on purpose, and say so in CHANGES.md.
h_all inputs that fail today are left out of the point_queries table, so a
change that turns a failure into an answer still passes.
"""

from __future__ import annotations

import itertools
import json

import checks
import inputs

# Queries per kind tabulated from the start of the TABLE_SEED stream.
TABLED_PER_KIND = 1000


def _write(name: str, data: dict) -> None:
    path = checks.EXPECTED_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")


def sweep_table() -> dict:
    from quintic.cohomology import sweep_box
    from quintic.surfaces import catalog

    table = {}
    for t in catalog():
        info = sweep_box(t, bound=inputs.SWEEP_BOUND)
        table[t.label] = [info[f] for f in checks.SWEEP_FIELDS]
    return {str(inputs.SWEEP_BOUND): table}


def rhom_table() -> dict:
    from quintic.grassmannian import rhom

    pool = inputs.rhom_pool()
    return {
        f"{i},{j}": rhom(a, b).to_json()
        for (i, (_, a)), (j, (_, b)) in itertools.product(enumerate(pool), repeat=2)
    }


def point_query_table() -> dict:
    from quintic.cohomology import ReductionDivergenceError, h_all
    from quintic.grassmannian import bott
    from quintic.lattice import DivClass
    from quintic.surfaces import catalog

    types = catalog()
    table = {"seed": checks.TABLE_SEED, "h_all": {}, "bott": {}}
    counts = {"h_all": 0, "bott": 0}
    for index, query in enumerate(inputs.query_stream(checks.TABLE_SEED)):
        kind = query[0]
        if kind == "rhom" or counts[kind] >= TABLED_PER_KIND:
            if min(counts.values()) >= TABLED_PER_KIND:
                break
            continue
        counts[kind] += 1
        if kind == "h_all":
            try:
                table["h_all"][str(index)] = list(h_all(DivClass(query[1]), types[query[2]]))
            except ReductionDivergenceError:
                continue
        else:
            res = bott(query[1], len(query[1]))
            table["bott"][str(index)] = (
                None if res is None else [res.degree, res.dim, list(res.weight)]
            )
    return table


def main() -> None:
    checks.EXPECTED_DIR.mkdir(exist_ok=True)
    _write("sweep", sweep_table())
    _write("rhom_pool", rhom_table())
    _write("point_queries", point_query_table())


if __name__ == "__main__":
    main()
