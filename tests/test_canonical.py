"""The canonical JSON writer against its oracle, json.dumps.

write_canonical must pass exactly json.dumps(obj, sort_keys=True,
indent=2, default=str) + "\\n" to its `write`, whatever path (batch
template, wide-list template or plain recursion) each list takes, and
write a Rows exactly as the list of its items.
"""

import contextlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radical_ram import cli
from radical_ram.arith import Rows
from radical_ram.holomorph import GroupDesc


def materialised(obj):
    """obj with every Rows in it replaced by the list of its items."""
    if isinstance(obj, (Rows, list)):
        return [materialised(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(materialised(x) for x in obj)
    if isinstance(obj, dict):
        return {k: materialised(v) for k, v in obj.items()}
    return obj


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
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from((n, -n)))
    | st.floats()
    | text
    | st.builds(Tag, text)
    | st.builds(Count, st.integers())
    | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
)


def containers(kids):
    return (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(lazy)
        | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(text, kids, max_size=4)
        | st.dictionaries(st.integers(-50, 50), kids, max_size=3)
    )


nested = st.recursive(leaves, containers, max_leaves=12)


def vary(obj, i):
    """obj with its exact int and str leaves moved by i: the same shape,
    different leaves."""
    t = type(obj)
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


def record_lists(batch):
    """Copies of one drawn record, more than one batch of them, with up
    to two items replaced by other drawn objects (mixed shapes in one
    batch)."""

    @st.composite
    def draw_list(draw):
        record = draw(nested)
        n = draw(st.integers(batch - 2, batch + 12))
        items = [vary(record, i) for i in range(n)]
        for _ in range(draw(st.integers(0, 2))):
            items[draw(st.integers(0, n - 1))] = draw(nested)
        return lazy(items) if draw(st.booleans()) else items

    return draw_list()


# (BATCH, BATCH_CELLS, WIDE): the real sizes, and sizes small enough to
# shrink a failure quickly, bound batches by values and send lists of
# two or more elements down the wide-list path
SIZES = [(cli.BATCH, cli.BATCH_CELLS, cli.WIDE), (3, cli.BATCH_CELLS, cli.WIDE), (3, 12, 2)]


@st.composite
def cases(draw):
    """Writer sizes and an object with lists longer than one batch; some
    of its lists are Rows."""
    sizes = draw(st.sampled_from(SIZES))
    lists = record_lists(sizes[0])
    return sizes, draw(nested | lists | st.dictionaries(text, lists | nested, max_size=2))


@contextlib.contextmanager
def writer_sizes(sizes):
    saved = cli.BATCH, cli.BATCH_CELLS, cli.WIDE
    cli.BATCH, cli.BATCH_CELLS, cli.WIDE = sizes
    try:
        yield
    finally:
        cli.BATCH, cli.BATCH_CELLS, cli.WIDE = saved


@settings(max_examples=200, deadline=None, database=None)
@given(cases())
def test_write_canonical_equals_json_dumps(case):
    sizes, obj = case
    with writer_sizes(sizes):
        blocks = written(obj)
    assert "".join(blocks) == dumps(obj)


def test_write_canonical_edge_cases():
    for obj in ([], {}, [[]], [{}] * 3, (), [None] * 600, {"{a}": "}{"}, [{"k{": 1}, {"k{": 2}],
                [(1, 2), [3, 4]], [{"a": 1}, {"b": 1}], [{1: 2}, {1: 3}], {10: 1, 2: 2},
                [float("nan"), float("inf"), -float("inf"), 0.1], [True, False, 1, 0],
                [Fraction(1, 2)] * 3, 2**100, "é", None, lazy([]), [lazy([1])] * 2,
                [[7] * 70, [8] * 70], [[None] * 70] * 2, [[{}] * 70] * 3, [[{"%": "%d"}] * 70] * 2):
        assert "".join(written(obj)) == dumps(obj)


@pytest.mark.parametrize("items,length,message", [
    ([1, 2], 3, "streamed 2 rows where 3 were stated"),
    ([1, 2, 3, 4], 3, "streamed 4 rows where 3 were stated"),
    ([], 1, "streamed 0 rows where 1 were stated"),
    ([1], 0, "streamed 1 rows where 0 were stated"),
])
def test_write_canonical_checks_the_stated_length(items, length, message):
    """A Rows whose stream is shorter or longer than its stated length
    fails once the stream is spent, in every batch size."""
    for sizes in SIZES:
        with writer_sizes(sizes), pytest.raises(AssertionError, match=message):
            written({"rows": Rows(length, lambda: iter(items))})


# ------------------------------------------------ end to end, in blocks


CHARTAB_GRID = [(p, r, s) for p, r in ((3, 1), (3, 2), (3, 3), (5, 2), (7, 2)) for s in range(r + 1)]


@pytest.mark.parametrize("sizes", SIZES, ids=[str(cli.BATCH), "3", "small"])
def test_cli_json_equals_json_dumps_across_batches(capsys, sizes):
    """stdout of analyze --json and of chartab --json over a grid of
    groups equals json.dumps of the same payload, materialised, with the
    real writer sizes and with small ones."""
    report = cli.build_report(2, 2187, True)
    rows = [b["conductors"]["characters"] for b in report["primes"] if "conductors" in b]
    assert sum(map(len, rows)) > 1458
    runs = [(("analyze", "2", "2187", "--json"), report)]
    runs += [(("chartab", str(p), str(r), str(s), "--json"), cli.chartab_payload(GroupDesc(p, r, s)))
             for p, r, s in CHARTAB_GRID]
    with writer_sizes(sizes):
        for argv, payload in runs:
            assert cli.main(list(argv)) == 0
            assert capsys.readouterr().out == dumps(payload), argv


def test_write_canonical_streams_in_blocks():
    """A large report is written in several blocks of at least
    BLOCK_CHARS characters, not as one string."""
    report = cli.build_report(2, 2187, True)
    blocks = written(report)
    assert "".join(blocks) == dumps(report)
    assert len(blocks) > 5
    assert all(len(b) >= cli.BLOCK_CHARS for b in blocks[:-1])
