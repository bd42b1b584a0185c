"""The canonical JSON writer against its oracle, json.dumps.

write_canonical must pass exactly json.dumps(obj, sort_keys=True,
indent=2, default=str) + "\\n" to its `write`, whatever path (batch
template or plain recursion) each list takes.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radical_ram import cli
from radical_ram.holomorph import GroupDesc


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n"


def written(obj):
    blocks = []
    cli.write_canonical(obj, blocks.append)
    return blocks


class Tag(str):
    pass


class Count(int):
    pass


text = st.text(st.sampled_from('az{}[]":,\\\'\n\t é☃\x00\U0001f600'), max_size=6)
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
        return items

    return draw_list()


@st.composite
def cases(draw):
    """A batch size, the real one or 3 (small enough to shrink a failure
    quickly), and an object with lists longer than one batch."""
    batch = draw(st.sampled_from((3, cli.BATCH)))
    lists = record_lists(batch)
    return batch, draw(nested | lists | st.dictionaries(text, lists | nested, max_size=2))


@settings(max_examples=200, deadline=None, database=None)
@given(cases())
def test_write_canonical_equals_json_dumps(case):
    batch, obj = case
    saved, cli.BATCH = cli.BATCH, batch
    try:
        blocks = written(obj)
    finally:
        cli.BATCH = saved
    assert "".join(blocks) == dumps(obj)


def test_write_canonical_edge_cases():
    for obj in ([], {}, [[]], [{}] * 3, (), [None] * 600, {"{a}": "}{"}, [{"k{": 1}, {"k{": 2}],
                [(1, 2), [3, 4]], [{"a": 1}, {"b": 1}], [{1: 2}, {1: 3}], {10: 1, 2: 2},
                [float("nan"), float("inf"), -float("inf"), 0.1], [True, False, 1, 0],
                [Fraction(1, 2)] * 3, 2**100, "é", None):
        assert "".join(written(obj)) == dumps(obj)


# ------------------------------------------------ end to end, in blocks


def _payloads():
    return [
        (("analyze", "2", "2187", "--json"), cli.build_report(2, 2187, True)),
        (("chartab", "7", "2", "2", "--json"), cli.chartab_payload(GroupDesc(7, 2, 2))),
    ]


@pytest.mark.parametrize("batch", [cli.BATCH, 3])
def test_cli_json_equals_json_dumps_across_batches(capsys, monkeypatch, batch):
    """stdout of the two payloads equals json.dumps of the same payload,
    with the real batch size and with batches of 3."""
    monkeypatch.setattr(cli, "BATCH", batch)
    payloads = _payloads()
    rows = [b["conductors"]["characters"] for b in payloads[0][1]["primes"] if "conductors" in b]
    assert sum(map(len, rows)) > 1458
    for argv, payload in payloads:
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == dumps(payload)


def test_write_canonical_streams_in_blocks():
    """A large report is written in several blocks of at least
    BLOCK_CHARS characters, not as one string."""
    report = cli.build_report(2, 2187, True)
    blocks = written(report)
    assert "".join(blocks) == dumps(report)
    assert len(blocks) > 5
    assert all(len(b) >= cli.BLOCK_CHARS for b in blocks[:-1])
