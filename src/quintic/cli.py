"""Command-line front end.

Subcommands: classify, verify, bott, gram, and report, which is
``--json verify all`` under another name.  Divisor classes enter
and leave as 5-integer arrays [a, b1, b2, b3, b4] encoding a*h - sum b_i e_i.
Exit codes: 0 all checks pass, 1 verification failure, 2 usage or input
error, 70 (EX_SOFTWARE) an internal error, reported on stderr as
"internal error: <type>: <message>", 141 (128 + SIGPIPE) when the reader
closed standard output before all of it was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .euler import KClass, euler_pair
from .grassmannian import bott, kapranov_collection, lefschetz_objects, rhom_chi
from .lattice import DivClass
from .mutations import (
    ExcCollection,
    gram as gram_matrix,
    is_unitriangular,
    sodwdp_start_collection,
    sodwdp_target_collection,
)
from .surfaces import ChainStructureError, ade_type, catalog, z_scheme
from .suites import DEFAULT_SEED, SUITE_NAMES, run_suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 70
EXIT_PIPE = 141


class InputError(Exception):
    pass


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _load_json(raw: str):
    try:
        return json.loads(raw)
    # ValueError covers JSONDecodeError and integers past the digit limit;
    # deep nesting raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON: {exc}") from exc


def _parse_curves(raw: str) -> list[DivClass]:
    data = _load_json(raw)
    if not isinstance(data, list):
        raise InputError("expected a JSON list of 5-integer arrays")
    curves = []
    for entry in data:
        try:
            curves.append(DivClass.from_json(entry))
        except (ValueError, TypeError) as exc:
            raise InputError(str(exc)) from exc
    return curves


def _ade_label(ade: tuple[int, ...]) -> str:
    if not ade:
        return "smooth"
    return "+".join(f"A{p}" for p in sorted(ade))


def cmd_classify(args) -> int:
    curves = _parse_curves(args.curves)
    try:
        ade = ade_type(curves)
    except ChainStructureError as exc:
        raise InputError(str(exc)) from exc
    lengths = list(z_scheme(ade))
    exact = [t.label for t in catalog() if t.minus_two_curves == frozenset(curves)]
    payload = {
        "ade": list(ade),
        "ade_label": _ade_label(ade),
        "z_lengths": lengths,
        "matching_catalog_label": exact[0] if exact else None,
    }
    human = f"type {_ade_label(ade)}; z-scheme lengths {lengths}"
    if exact:
        human += f"; catalog entry {exact[0]}"
    _emit(payload, args.json, human)
    return EXIT_PASS


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    report = run_suites(names, seed=args.seed)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for section in report["sections"]:
            print(f"[{section['status'].upper():4s}] suite {section['name']}")
            for key, value in section["details"].items():
                if isinstance(value, bool):
                    print(f"    [{'ok' if value else 'FAIL'}] {key}")
                else:
                    print(f"    [--] {key}: {value}")
        summary = report["summary"]
        print(f"passed {summary['passed']}, failed {summary['failed']}")
    return EXIT_PASS if report["summary"]["failed"] == 0 else EXIT_FAIL


def cmd_bott(args) -> int:
    weight = tuple(args.weight)
    if not 2 <= len(weight) <= 8:
        raise InputError("weight must have between 2 and 8 entries")
    res = bott(weight, len(weight))
    if res is None:
        payload = {"weight": list(weight), "degrees": {}}
        human = f"weight {list(weight)}: all cohomology vanishes"
    else:
        payload = {
            "weight": list(weight),
            "degrees": {str(res.degree): res.dim},
            "dominant_weight": list(res.weight),
        }
        human = (
            f"weight {list(weight)}: H^{res.degree} has dimension {res.dim} "
            f"(highest weight {list(res.weight)})"
        )
    _emit(payload, args.json, human)
    return EXIT_PASS


_COLLECTIONS = {
    "start7": sodwdp_start_collection,
    "target7": sodwdp_target_collection,
    "kapranov10": kapranov_collection,
    "lefschetz10": lambda: ExcCollection(lefschetz_objects(), rhom_chi),
}


def _collection_from_classes(raw: str) -> ExcCollection:
    data = _load_json(raw)
    if not isinstance(data, list) or not data:
        raise InputError("expected a non-empty JSON list of {label, rank, c1, ch2}")
    objects = []
    for i, entry in enumerate(data):
        try:
            cls = KClass.from_json(entry)
        except ValueError as exc:
            raise InputError(f"bad class record {i}: {exc}") from exc
        label = entry.get("label", f"E{i}")
        if not isinstance(label, str):
            raise InputError(f"bad class record {i}: label must be a string")
        objects.append((label, cls))
    return ExcCollection(tuple(objects), euler_pair)


def cmd_gram(args) -> int:
    if args.classes is not None:
        collection = _collection_from_classes(args.classes)
    else:
        collection = _COLLECTIONS[args.collection or "target7"]()
    matrix = gram_matrix(collection)
    labels = collection.labels()
    # the rule read off the matrix itself, so that no pairing runs twice
    unitriangular = is_unitriangular(
        ExcCollection(tuple(zip(labels, range(len(labels)))), lambda i, j: matrix[i][j])
    )
    payload = {
        "labels": list(labels),
        "gram": matrix,
        "unitriangular": unitriangular,
    }
    lines = ["  ".join(f"{v:4d}" for v in row) for row in matrix]
    human = "\n".join(
        [f"objects: {', '.join(labels)}"]
        + lines
        + [f"unitriangular: {unitriangular}"]
    )
    _emit(payload, args.json, human)
    return EXIT_PASS


def non_negative_int(text: str) -> int:
    """argparse type of --seed: a nonnegative int (random.Random seeds s
    and -s alike)."""
    value = int(text)  # argparse reports the ValueError as an invalid value
    if value < 0:
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quintic",
        description="Exact checks for derived-category numerics on quintic "
        "del Pezzo surfaces and Gr(2,5).",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument(
        "--seed",
        type=non_negative_int,
        default=DEFAULT_SEED,
        help="seed for sampled checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="ADE type and z-scheme of a curve set")
    p.add_argument("curves", help="JSON list of 5-integer divisor classes")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=SUITE_NAMES + ("all",),
        help="suite name (default: all)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bott", help="cohomology of a single weight")
    p.add_argument("weight", type=int, nargs="+", help="weight entries")
    p.set_defaults(func=cmd_bott)

    p = sub.add_parser("gram", help="Euler Gram matrix of a collection")
    # no parser default: argparse exempts a value identical to it from exclusion
    source = p.add_mutually_exclusive_group()
    source.add_argument("--collection", choices=tuple(_COLLECTIONS), help="default: target7")
    source.add_argument("--classes", help="JSON list of {label, rank, c1, ch2} records")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("report", help="full verification report as JSON")
    # a subparser's defaults override the parent's, --json's False included
    p.set_defaults(func=cmd_verify, suite="all", json=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the recipe of the signal module's docs: send what is left to
        # devnull, so that the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
