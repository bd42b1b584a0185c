"""The package's records: nine named tuples.

A record keeps the repr text the error messages embed, cannot be changed
field by field and hashes as the tuple of its fields, so dict and set
orders do not depend on which class holds the fields.  No record reaches
a canonical payload: the writer would give it as a JSON array.
"""

import contextlib
import io
from fractions import Fraction

import pytest

from radical_ram import cli
from radical_ram.arith import HOLE, Rows, Stamp
from radical_ram.chartab import SubgroupDesc
from radical_ram.holomorph import GroupDesc, conj_class_of, element
from radical_ram.ramfil import CyclicInertia, Filtration, PrimeLocalContext, global_ram

from helpers import unit_ctx
from reference import character_table

G = GroupDesc(3, 2, 1)
CTX = unit_ctx(3, 2, 1)
UPPER_TEXT = ("Filtration(group=GroupDesc(p=3, r=2, s=1), numbering='upper', "
              "steps=((Fraction(0, 1), SubgroupDesc(x=1, y=0)), (Fraction(1, 2), SubgroupDesc(x=1, y=1)), "
              "(Fraction(1, 1), SubgroupDesc(x=0, y=1))))")
CTX_TEXT = "PrimeLocalContext(p=3, r=2, vp_a=0, case='UNIT', s=1, g=3, e=18, f_res=1)"
RECORDS = {
    "GroupDesc": (G, "GroupDesc(p=3, r=2, s=1)"),
    "HolomorphElement": (element(G, 1, 2), "HolomorphElement(i=1, u=2)"),
    "ConjClass": (conj_class_of(element(G, 1, 2), G),
                  "ConjClass(alpha=0, beta=0, representative=HolomorphElement(i=1, u=2), size=3)"),
    "SubgroupDesc": (SubgroupDesc(1, 2), "SubgroupDesc(x=1, y=2)"),
    "Character": (character_table(G)[3], "Character(group=GroupDesc(p=3, r=2, s=1), kind='linear', "
                                         "twist=(1, 0), degree=1, level=0, prim_degree=1)"),
    "PrimeLocalContext": (CTX, CTX_TEXT),
    "CyclicInertia": (CyclicInertia(4), "CyclicInertia(order=4)"),
    "Filtration": (CTX.upper, UPPER_TEXT),
    "GlobalPrimeData": (global_ram(9, 2)[1],
                        "GlobalPrimeData(context=PrimeLocalContext(p=3, r=2, vp_a=0, case='UNIT', s=2, g=1, "
                        "e=54, f_res=1), e_global=54)"),
}


@pytest.mark.parametrize("rec,text", RECORDS.values(), ids=RECORDS)
def test_record_semantics(rec, text):
    """The repr text is the one error messages embed.  A named tuple is
    read-only, equals the plain tuple of its fields and hashes as it.  A
    built filtration or Herbrand table is kept by its record."""
    assert repr(rec) == text
    field = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    assert rec == tuple(rec) and hash(rec) == hash(tuple(rec))
    assert rec._replace() == rec and list(rec._asdict()) == list(rec._fields)
    if isinstance(rec, PrimeLocalContext):
        assert rec.upper is rec.upper and rec.lower is rec.lower
    if isinstance(rec, Filtration):
        assert rec.herbrand is rec.herbrand


def _plain_types(obj, seen):
    """Collect the type of every node of a payload, through Rows, Stamps
    and containers."""
    seen.add(type(obj))
    if isinstance(obj, Stamp):
        _plain_types(obj.sample, seen)
        _plain_types(obj.ints, seen)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _plain_types(key, seen)
            _plain_types(value, seen)
    elif isinstance(obj, (list, tuple, Rows)):
        for item in obj:
            _plain_types(item, seen)


@pytest.mark.parametrize("argv", [
    ["analyze", "2", "2401", "--json"],
    ["analyze", "2", "63", "--json"],
    ["chartab", "3", "2", "1", "--json"],
    ["verify", "--p", "3", "--r", "2", "--json"],
])
def test_no_record_reaches_a_canonical_payload(monkeypatch, argv):
    """Every node the writer is handed is a plain JSON value, a Fraction
    (written as its str), a Stamp, a Rows or HOLE: never a record."""
    payloads = []
    monkeypatch.setattr(cli, "canonical_json", payloads.append)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    seen = set()
    for payload in payloads:
        _plain_types(payload, seen)
    assert payloads and seen <= {dict, list, tuple, str, int, bool, type(None), Fraction, Stamp, Rows, type(HOLE)}
