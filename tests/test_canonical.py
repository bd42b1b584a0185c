"""The canonical JSON writer against its oracle, json.dumps.

write_canonical must pass exactly json.dumps(obj, sort_keys=True,
indent=2, default=str) + "\\n" to its `write`, whether a list item is
rendered in a block of Stamps or walked, write a Rows exactly as the
list of its items, and a Stamp exactly as its sample with its ints in
the holes.  A float or a dict key that is not a str, anywhere in the
payload, fails ensure instead: exit 3 from cli.main.
"""

import contextlib
import json
import re
from fractions import Fraction
from itertools import chain, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faults
from helpers import assert_same_text, materialised
from radical_ram import cli
from radical_ram.arith import HOLE, Rows, Stamp
from radical_ram.holomorph import GroupDesc


def dumps(obj):
    return json.dumps(materialised(obj), sort_keys=True, indent=2, default=str) + "\n"


def lazy(items):
    return Rows(len(items), lambda: iter(items))


def written(obj):
    blocks = []
    cli.write_canonical(obj, blocks.append)
    return blocks


class Tag(str):
    pass


class Count(int):
    pass


text = st.text(st.sampled_from('az{}[]%":,\\\'\n\t é☃\x00\U0001f600'), max_size=6)
big_ints = st.integers() | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from((n, -n)))
leaves = (
    st.none()
    | st.booleans()
    | big_ints
    | text
    | st.builds(Tag, text)
    | st.builds(Count, st.integers())
    | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
)


def containers(kids, lazy_lists=True):
    lists = st.lists(kids, max_size=4)
    return (
        (lists | lists.map(lazy) if lazy_lists else lists)
        | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(text, kids, max_size=4)
    )


def punched(obj, holes):
    """obj with the exact int leaves at the positions `holes` picks (one
    flag per exact int, in walk order) replaced by HOLE."""
    t = type(obj)
    if t is int:
        return HOLE if next(holes) else obj
    if t is list or t is tuple:
        return t(punched(x, holes) for x in obj)
    if t is dict:
        return {k: punched(v, holes) for k, v in obj.items()}
    return obj


def holes(sample):
    if sample is HOLE:
        return 1
    if isinstance(sample, dict):
        return sum(map(holes, sample.values()))
    if isinstance(sample, (list, tuple)):
        return sum(map(holes, sample))
    return 0


# samples: any object of leaves, lists, tuples and dicts (no Rows), some of
# whose exact ints are holes; a lone int may be a hole
samples = st.builds(
    lambda obj, flags: punched(obj, chain(flags, repeat(False))),
    st.recursive(leaves, lambda kids: containers(kids, lazy_lists=False), max_leaves=10),
    st.lists(st.booleans(), min_size=12, max_size=12),
)


def stamp_of(sample):
    return st.lists(big_ints, min_size=holes(sample), max_size=holes(sample)).map(
        lambda ints: Stamp(sample, tuple(ints)))


stamps = samples.flatmap(stamp_of)
nested = st.recursive(leaves | stamps, containers, max_leaves=12)


def vary(obj, i):
    """obj with its exact int and str leaves, and a Stamp's ints, moved by
    i: the same shape, different leaves."""
    t = type(obj)
    if t is Stamp:
        return Stamp(obj.sample, tuple(x + i for x in obj.ints))
    if t is int:
        return obj + i
    if t is str:
        return obj + str(i)
    if t is list:
        return [vary(x, i) for x in obj]
    if t is tuple:
        return tuple(vary(x, i) for x in obj)
    if t is dict:
        return {k: vary(v, i) for k, v in obj.items()}
    return obj


@st.composite
def record_lists(draw):
    """Copies of one or two drawn records taken in turn, such as the
    Stamps of two buckets, with up to two items replaced by other drawn
    objects (a run of Stamps broken by other values)."""
    records = draw(st.lists(nested | stamps, min_size=1, max_size=2))
    n = draw(st.integers(1, 40))
    items = [vary(records[i % len(records)], i) for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        items[draw(st.integers(0, n - 1))] = draw(nested)
    return lazy(items) if draw(st.booleans()) else items


# BLOCK_CHARS: the real size, one of a few Stamps per block, and one Stamp
# per block; the small sizes also spill after almost every item
SIZES = [cli.BLOCK_CHARS, 64, 1]


@st.composite
def cases(draw):
    """A writer block size and an object with lists of many items; some
    of its lists are Rows."""
    lists = record_lists()
    return draw(st.sampled_from(SIZES)), draw(nested | lists | st.dictionaries(text, lists | nested, max_size=2))


@contextlib.contextmanager
def block_chars(size):
    saved = cli.BLOCK_CHARS
    cli.BLOCK_CHARS = size
    try:
        yield
    finally:
        cli.BLOCK_CHARS = saved


@settings(max_examples=200, deadline=None, database=None)
@given(cases())
def test_write_canonical_equals_json_dumps(case):
    size, obj = case
    with block_chars(size):
        blocks = written(obj)
    assert_same_text("".join(blocks), dumps(obj))


VALUES = [[3, HOLE], [0, 0], [-1, HOLE], [0, 0]] * 20  # a chartab level's value row
BUCKET = {"c": "1/2", "character": {"kind": "linear", "twist": [HOLE, HOLE], "%d": "%%"}, "f": 3}


def test_write_canonical_edge_cases():
    for obj in ([], {}, [[]], [{}] * 3, (), [None] * 600, {"{a}": "}{"}, [{"k{": 1}, {"k{": 2}],
                [(1, 2), [3, 4]], [{"a": 1}, {"b": 1}], [True, False, 1, 0],
                [Fraction(1, 2)] * 3, 2**100, "é", None, lazy([]), [lazy([1])] * 2,
                [[7] * 70, [8] * 70], [[None] * 70] * 2, [[{}] * 70] * 3, [[{"%": "%d"}] * 70] * 2,
                Stamp(HOLE, (-7,)), Stamp([], ()), Stamp({}, ()), [Stamp({"%d": "%s"}, ())] * 3,
                [Stamp(HOLE, (i,)) for i in range(600)], Stamp([HOLE, [HOLE]], (2**100, -(2**70))),
                lazy([Stamp(VALUES, tuple(range(i, i + 40))) for i in range(300)]),
                {"a": Stamp(BUCKET, (1, 2)), "b": [Stamp(BUCKET, (3, 4)), [Stamp(BUCKET, (5, 6))]]},
                [Stamp(BUCKET, (i, -i)) if i % 3 else {"twist": [i]} for i in range(40)]):
        for size in SIZES:
            with block_chars(size):
                assert_same_text("".join(written(obj)), dumps(obj), f"{obj!r:.60} at {size}")
    # the reference itself refuses a Stamp with more ints than holes, also
    # under python -O, where only a rewritten assert still runs
    with pytest.raises(AssertionError, match="more ints than holes"):
        dumps(Stamp({"a": HOLE}, (1, 2)))


@pytest.mark.parametrize("items,length,message", [
    ([1, 2], 3, "streamed 2 rows where 3 were stated"),
    ([1, 2, 3, 4], 3, "streamed 4 rows where 3 were stated"),
    ([], 1, "streamed 0 rows where 1 were stated"),
    ([1], 0, "streamed 1 rows where 0 were stated"),
])
def test_write_canonical_checks_the_stated_length(items, length, message):
    """A Rows whose stream is shorter or longer than its stated length
    fails once the stream is spent, in every block size."""
    for size in SIZES:
        with block_chars(size), pytest.raises(AssertionError, match=message):
            written({"rows": Rows(length, lambda: iter(items))})


SAMPLE = {"c": 0.5, "twist": [HOLE, HOLE]}
REJECTED = {
    "top-level-float": (1.5, "float 1.5"),
    "nan": ([1, float("nan")], "float nan"),
    "stamp-sample-float": (Stamp(SAMPLE, (1, 2)), "float 0.5"),
    "stamp-run-float": (lazy([Stamp(SAMPLE, (i, -i)) for i in range(9)]), "float 0.5"),
    "rows-float": ({"rows": lazy([1, 2, 2.5])}, "float 2.5"),
    "int-key": ([{"a": 1}, {1: 2}], "dict key 1 "),
    "mixed-keys": ({"b": 1, 2: 3}, "dict key 2 "),
    "bool-key": ({True: 1}, "dict key True "),
    "stamp-sample-int-key": ([Stamp({0: HOLE}, (1,))], "dict key 0 "),
    "stamp-float-int": ([Stamp([HOLE], (1.5,)), Stamp(HOLE, (True,))], "Stamp value 1.5 "),
    "stamp-bool-int": ([Stamp(HOLE, (True,)), Stamp([HOLE], (1.5,))], "Stamp value True "),
    "stamp-run-float-int": (lazy([Stamp(SAMPLE["twist"], (1, 0.5))] * 9), "Stamp value 0.5 "),
    "stamp-too-many-ints": (Stamp({"a": HOLE}, (1, 2)), "Stamp with 2 ints for a sample with 1 holes"),
    "stamp-too-few-ints": ([Stamp({"a": HOLE, "b": HOLE}, (1,))], "Stamp with 1 ints for a sample with 2 holes"),
    "stamp-run-too-many-ints": (lazy([Stamp(SAMPLE["twist"], (i, -i)) for i in range(9)]
                                     + [Stamp(SAMPLE["twist"], (1, 2, 3))]),
                                "Stamp with 3 ints for a sample with 2 holes"),
    "stamp-later-too-few-ints": ([Stamp(SAMPLE["twist"], (1, 2)), 5, Stamp(SAMPLE["twist"], (1,))],
                                 "Stamp with 1 ints for a sample with 2 holes"),
}


@pytest.mark.parametrize("obj,message", REJECTED.values(), ids=REJECTED)
def test_write_canonical_rejects_floats_and_non_str_keys(obj, message):
    """Canonical JSON holds no float and no key other than a str: one
    anywhere, a Stamp's sample and a Rows' items included, fails ensure
    in every block size."""
    for size in SIZES:
        with block_chars(size), pytest.raises(AssertionError, match=re.escape(message)):
            written(obj)


FLOAT_MESSAGES = {
    "filtration": "float 0.5 in canonical JSON",
    "stamp-ints": "Stamp value 0.5 in canonical JSON is not an int",
    "stamp-extra-int": "Stamp with 3 ints for a sample with 2 holes",
    "stamp-missing-int": "Stamp with 1 ints for a sample with 2 holes",
}


@pytest.mark.parametrize("plant,message", FLOAT_MESSAGES.items(), ids=FLOAT_MESSAGES)
@pytest.mark.parametrize("flags", ["plain", "O"])
def test_float_in_a_payload_exits_3(request, flags, plant, message):
    """analyze --json whose filtration, or the ints of whose conductor
    rows, carry a float, or whose rows carry one int too many or too
    few, exits 3 with one line on stderr, with and without python -O."""
    name = f"float {plant}"
    [(code, _, err)] = faults.run(name) if flags == "plain" else request.getfixturevalue("under_O")[name]
    assert (code, err) == (3, f"internal inconsistency: {message}\n")


# ------------------------------------------------ end to end, in blocks


CHARTAB_GRID = [(p, r, s) for p, r in ((3, 1), (3, 2), (3, 3), (5, 2), (7, 2)) for s in range(r + 1)]


@pytest.mark.parametrize("size", SIZES, ids=str)
def test_cli_json_equals_json_dumps_across_blocks(capsys, size):
    """stdout of analyze --json and of chartab --json over a grid of
    groups equals json.dumps of the same payload, materialised, with the
    real block size and with small ones."""
    report = cli.build_report(2, 2187, True)
    rows = [b["conductors"]["characters"] for b in report["primes"] if "conductors" in b]
    assert sum(map(len, rows)) > 1458
    runs = [(("analyze", "2", "2187", "--json"), report)]
    runs += [(("chartab", str(p), str(r), str(s), "--json"), cli.chartab_payload(GroupDesc(p, r, s)))
             for p, r, s in CHARTAB_GRID]
    with block_chars(size):
        for argv, payload in runs:
            assert cli.main(list(argv)) == 0
            assert_same_text(capsys.readouterr().out, dumps(payload), " ".join(argv))


def test_stamped_rows_spill_in_blocks():
    """chartab --json on (7, 3, 3), whose rows are Stamps of up to 351
    cells, is written in blocks of at most a few BLOCK_CHARS: a run of
    Stamps is cut by its template's length, not by its count."""
    payload = cli.chartab_payload(GroupDesc(7, 3, 3))
    blocks = written(payload)
    assert_same_text("".join(blocks), dumps(payload))
    assert len(blocks) > 20
    assert max(map(len, blocks)) < 4 * cli.BLOCK_CHARS


def test_write_canonical_streams_in_blocks():
    """A large report is written in several blocks of at least
    BLOCK_CHARS characters, not as one string."""
    report = cli.build_report(2, 2187, True)
    blocks = written(report)
    assert_same_text("".join(blocks), dumps(report))
    assert len(blocks) > 5
    assert all(len(b) >= cli.BLOCK_CHARS for b in blocks[:-1])
