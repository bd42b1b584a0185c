"""Planted faults, each written once, for runs with and without python -O.

plant(target, make) swaps a package function for a faulty one.  SCENARIOS
maps a name to a function that makes a few calls, most with one fault
planted, and returns their outcomes.  Tests read them through conftest's
`planted` fixture: run in process, or from one child that prints them all,

    PYTHONPATH=src python -O tests/faults.py
"""

import contextlib
import importlib
import io
import json
import sys
from fractions import Fraction
from functools import partial

from radical_ram import chartab, cli, conductor
from radical_ram.arith import Stamp
from radical_ram.chartab import SubgroupDesc
from radical_ram.holomorph import GroupDesc
from radical_ram.ramfil import LOWER, UNIT, canonicalize, quotient_filtration, wild_context

from helpers import (
    BAD_GROUPS,
    BAD_WILD_CONTEXTS,
    ROW_FAULTS,
    faulty_table_rows,
    off_by_one_prim_degree,
    perturbed_radical_rows,
    planted_lower_filtration,
    printed_value_fault,
)

PACKAGE = "radical_ram"


def _modules():
    return [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def clear_caches():
    """Empty every lru_cache of the package."""
    for module in _modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@contextlib.contextmanager
def plant(target, make, only=False):
    """Swap the function `target`, "module.name" of the package, for
    make(real) in every module of the package that binds the same object,
    or in the target's module alone if `only`; restore it on exit.  Every
    lru_cache of the package is emptied on entry and on exit, so that no
    result computed before the fault, or with it, outlives it.  A target
    that does not exist raises LookupError: a renamed function must not
    turn a plant into a clean run."""
    module, _, name = target.rpartition(".")
    try:
        home = importlib.import_module(f"{PACKAGE}.{module}")
        real = getattr(home, name)
    except (ImportError, AttributeError):
        raise LookupError(f"plant: {PACKAGE}.{target} does not exist") from None
    homes = [home] if only else [m for m in _modules() if vars(m).get(name) is real]
    fake = make(real)
    clear_caches()
    for m in homes:
        setattr(m, name, fake)
    try:
        yield
    finally:
        for m in homes:
            setattr(m, name, real)
        clear_caches()


def outcome(call):
    """[exit code, stdout, stderr] of cli.main for an argv list; for a
    function, [type name, message] of the exception it raises, or None."""
    if isinstance(call, list):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call)
        return [code, out.getvalue(), err.getvalue()]
    try:
        call()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return None


def with_fault(target, make, *calls, only=False, clean=False):
    """The scenario of `calls` with make(real) planted at `target`; with
    `clean`, its outcomes follow those of the same calls without it."""
    def scenario():
        runs = [outcome(call) for call in calls] if clean else []
        with plant(target, make, only=only):
            return runs + [outcome(call) for call in calls]
    return scenario


def without_fault(*calls):
    """The scenario of `calls` with nothing planted."""
    return lambda: [outcome(call) for call in calls]


def shifted(real):
    return lambda *args: real(*args) + 1


def printed_value(name):
    """chartab 3 2 2 --json and verify --p 3 --r 2, clean and with the
    printed-value fault `name` of helpers.printed_value_fault."""
    attr, fault = printed_value_fault(name, chartab)
    return with_fault(f"chartab.{attr}", lambda real: fault, CHARTAB_3_2_2, VERIFY_3_2, clean=True)


def strict_y(real):
    """subgroup_normal_form with y read one lower: the sweep then takes a
    step (x, y) to escape G(p^r)^t iff y <= t, the containment test that
    compares y strictly."""
    return lambda sd, G: SubgroupDesc(sd.x, min(sd.y, G.r) - 1)


def census_moved(real):
    """count_by with one character of (3,2,1) moved from bucket (0, 2) to
    bucket (0, 1)."""
    small, moves = GroupDesc(3, 2, 1), {(0, 2): -1, (0, 1): 1}
    return lambda k, t, G: real(k, t, G) + (moves.get((k, t), 0) if G == small else 0)


def negated(real):
    """class_exponents with the values of (3,2,1) on its u = 7 classes
    negated at twist (0, 1): the eb exponent there moved half a turn."""
    def negated_exponents(G, classes):
        ea, eb = real(G, classes)
        if G == GroupDesc(3, 2, 1):
            m0 = chartab.twist_order(G)
            eb = [(e + m0 // 2) % m0 if c.representative.u == 7 else e for c, e in zip(classes, eb)]
        return ea, eb
    return negated_exponents


def disagreeing(real):
    """conductor_json whose discriminant routes read as disagreeing."""
    def corrupted(ctx, characters, counts):
        payload = real(ctx, characters, counts)
        payload["v_p_disc"]["agree"] = False
        return payload
    return corrupted


def no_closed_subtotals(real):
    def broken(ctx):
        raise ValueError("no closed subtotals")
    return broken


def with_stray_row(real):
    """table_rows with one induced row in bucket (1, r + 1), outside the
    census, on every call after the first (the census check's)."""
    calls = []

    def with_stray(G):
        calls.append(G)
        yield from real(G)
        if len(calls) > 1:
            yield ("induced", (0, 0), 2, 1, G.r + 1)

    return with_stray


def stamps(edit):
    """bucket_stamps with edit applied to each Stamp it yields."""
    return lambda real: lambda rows, samples: map(edit, real(rows, samples))


CHARTAB_3_2_2 = ["chartab", "3", "2", "2", "--json"]
VERIFY_3_2 = ["verify", "--p", "3", "--r", "2", "--json"]
VERIFY_3_1 = ["verify", "--p", "3", "--r", "1", "--json"]
VERIFY_3_2_1 = ["verify", "--p", "3", "--r", "2", "--s", "1", "--json"]
PRIM_DEGREE_ARGVS = [
    ["verify", "--p", "3", "--r", "3", "--s", "1", "--json"],
    ["analyze", "2", "27", "--json"],
    ["chartab", "3", "3", "1", "--json"],
]
FAULT_ARGVS = [["chartab", "3", "2", "1", "--json"], ["chartab", "3", "2", "1"], ["analyze", "10", "9", "--json"]]
FLOAT_PLANTS = {
    "filtration": ("ramfil.filtration_json", lambda real: lambda filt: {**real(filt), "x": 0.5}),
    "stamp-ints": ("chartab.bucket_stamps", stamps(lambda s: Stamp(s.sample, (s.ints[0] + 0.5,) + s.ints[1:]))),
    "stamp-extra-int": ("chartab.bucket_stamps", stamps(lambda s: Stamp(s.sample, s.ints + (0,)))),
    "stamp-missing-int": ("chartab.bucket_stamps", stamps(lambda s: Stamp(s.sample, s.ints[:1]) if s.ints[1] else s)),
}

SCENARIOS = {
    **{f"printed-value {name}": printed_value(name) for name in ("abs", "eb", "step")},
    **{f"radical {rad}": with_fault("oracle._radical_rows", partial(perturbed_radical_rows, rad=rad), VERIFY_3_2)
       for rad in (6, 3)},
    **{"prim-degree " + " ".join(argv): with_fault("chartab.prim_degree", off_by_one_prim_degree, argv)
       for argv in PRIM_DEGREE_ARGVS},
    "preconditions": without_fault(
        partial(conductor.disc_vp_global, 15, 2, 3),
        partial(canonicalize, GroupDesc(3, 1, 1), LOWER, [(Fraction(1, 2), SubgroupDesc(1, 1))]),
        lambda: quotient_filtration(wild_context(3, 2, 2, UNIT, 0).upper, SubgroupDesc(0, 1))),
    "strict-y": with_fault("conductor.subgroup_normal_form", strict_y, ["verify", "--p", "3", "--r", "2"],
                           ["analyze", "2", "9"], only=True),
    "moved-break": with_fault("ramfil.lower_filtration", planted_lower_filtration, VERIFY_3_2),
    "printed-f": with_fault("conductor._f_printed", shifted, VERIFY_3_2, ["analyze", "2", "9"]),
    "closed-shifted": with_fault("conductor.disc_vp_local_closed", shifted,
                                 partial(conductor.disc_vp_global, 9, 10, 3)),
    **{f"rows {name} " + " ".join(argv): with_fault("chartab.table_rows", partial(faulty_table_rows, name=name),
                                                    argv, clean=True) for name in ROW_FAULTS for argv in FAULT_ARGVS},
    **{f"float {name}": with_fault(target, make, ["analyze", "2", "9", "--json"])
       for name, (target, make) in FLOAT_PLANTS.items()},
    "bad-preconditions": without_fault(*[partial(GroupDesc, *args) for args in BAD_GROUPS],
                                       *[partial(wild_context, *args) for args in BAD_WILD_CONTEXTS]),
    "analyze-disagreement": with_fault("conductor.conductor_json", disagreeing, ["analyze", "2", "3"]),
    "wrong-factorization": with_fault("arith._rho_divisor", lambda real: lambda c, budget: (1009, budget),
                                      ["analyze", "2", str(1000003 * 1000033)]),
    "negated-value": with_fault("chartab.class_exponents", negated, VERIFY_3_2_1, clean=True),
    "census-moved analyze": with_fault("chartab.count_by", census_moved, ["analyze", "10", "9"],
                                       ["analyze", "10", "9", "--json"], clean=True),
    "census-moved verify": with_fault("chartab.count_by", census_moved, VERIFY_3_2_1),
    "census-moved chartab": with_fault("chartab.count_by", census_moved, ["chartab", "3", "2", "1", "--json"],
                                       ["chartab", "3", "2", "1"], CHARTAB_3_2_2),
    "degree-square-sum": with_fault("chartab.level_degree", lambda real: lambda k, p: real(k, p) + (k == 1),
                                    VERIFY_3_1),
    "other-exception": with_fault("conductor.disc_subtotals_closed", no_closed_subtotals, VERIFY_3_1, clean=True),
    "stray-row": with_fault("chartab.table_rows", with_stray_row, ["chartab", "3", "2", "1", "--json"]),
}


def run(name):
    """SCENARIOS[name]() in this process, through JSON as the child gives it."""
    return json.loads(json.dumps(SCENARIOS[name]()))


if __name__ == "__main__":
    if __debug__:
        sys.exit("faults.py: run it under python -O; the tests run each scenario in process themselves")
    json.dump({name: scenario() for name, scenario in SCENARIOS.items()}, sys.stdout)
