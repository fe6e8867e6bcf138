"""Fuzz tests of input parsing: every input either parses or is refused as
bad input (ValueError from the parsers; exit 2 with an `error:` line from
the command line), never a traceback and never exit 1."""

import contextlib
import io
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quintic.cli import EXIT_USAGE, build_parser, main
from quintic.euler import KClass
from quintic.lattice import DivClass
from quintic.suites import SUITE_NAMES

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)
small_ints = st.integers(-6, 6)
near_classes = st.one_of(
    st.lists(small_ints, min_size=5, max_size=5),
    st.lists(small_ints | st.integers(), min_size=4, max_size=6),
    json_values,
)
near_records = st.fixed_dictionaries(
    {
        "rank": small_ints | json_values,
        "c1": near_classes,
        "ch2": st.tuples(small_ints, st.sampled_from([1, 2, -2, 0, 3])).map(list)
        | json_values,
    },
    optional={"label": st.text(max_size=4) | json_values},
)


@given(near_classes)
def test_divclass_from_json_parses_or_raises_value_error(data):
    try:
        d = DivClass.from_json(data)
    except ValueError:
        return
    assert d.to_json() == data


@settings(max_examples=300)
@given(near_records | json_values)
def test_kclass_from_json_parses_or_raises_value_error(data):
    try:
        cls = KClass.from_json(data)
    except ValueError:
        return
    assert KClass.from_json(cls.to_json()) == cls


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, err.getvalue()


tokens = st.text(max_size=12) | st.integers().map(str) | st.sampled_from(
    ["--json", "--seed", "--", "--collection", "--classes", "target7", "-5", "[]", "{}"]
)
json_texts = st.one_of(
    json_values.map(json.dumps),
    st.lists(near_classes, max_size=4).map(json.dumps),
    st.lists(near_records | json_values, max_size=3).map(json.dumps),
    st.text(max_size=30),
)
argvs = st.one_of(
    st.lists(tokens, max_size=6),
    st.tuples(st.sampled_from(["classify", "--json classify"]), json_texts).map(
        lambda p: [*p[0].split(), p[1]]
    ),
    st.lists(tokens, max_size=9).map(lambda rest: ["bott", "--", *rest]),
    json_texts.map(lambda text: ["gram", "--classes", text]),
    st.tuples(
        tokens, st.sampled_from(["classify", "bott", "gram"]), st.lists(tokens, max_size=3)
    ).map(lambda p: ["--seed", p[0], p[1], *p[2]]),
)


@settings(max_examples=400, deadline=None)
@given(argvs)
def test_cli_argv_exits_0_or_2_with_an_error_line(argv):
    # verify and report run the suites; their arguments are choices and a seed
    if {"verify", "report"} & set(argv):
        return
    code, err = _run(argv)
    assert code in (0, EXIT_USAGE), (argv, code, err)
    if code == EXIT_USAGE:
        assert "error:" in err, (argv, err)


global_options = st.lists(
    st.just(["--json"])
    | (st.integers().map(str) | tokens).map(lambda seed: ["--seed", seed])
    | tokens.map(lambda t: [t]),
    max_size=3,
).map(lambda groups: [t for group in groups for t in group])
suite_argvs = st.tuples(
    global_options,
    st.sampled_from(["verify", "report"]),
    st.lists(st.sampled_from([*SUITE_NAMES, "all"]) | tokens, max_size=2),
).map(lambda p: [*p[0], p[1], *p[2]])


def _asks_for_help(token):
    return token.startswith("-h") or (len(token) > 2 and "--help".startswith(token))


@settings(max_examples=400, deadline=None)
@given(suite_argvs)
def test_verify_and_report_argv_parse_or_exit_2(argv):
    # parse only: running a suite per example would cost seconds
    assume(not any(_asks_for_help(t) for t in argv))
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE, argv
        return
    assert args.seed >= 0, argv
    if args.command == "verify":
        assert args.suite in (*SUITE_NAMES, "all"), argv


def test_cli_refuses_json_past_the_parser_limits():
    # an integer past Python's digit limit (where the interpreter has one)
    # and nesting past the recursion limit make json.loads raise ValueError
    # and RecursionError
    for text in ("[[" + "1" * 5000 + ",0,0,0,0]]", "[" * 100000 + "]" * 100000):
        for argv in (["classify", text], ["gram", "--classes", text]):
            code, err = _run(argv)
            assert code == EXIT_USAGE and err.startswith("error: "), argv
