"""radical-ram benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload analyze-text|verify-sweep|dump-json|all
                           [--seed N] [--seconds S] [--trace 0|1]

Every measurement happens in a fresh interpreter (perfbench/child.py).
Set-up probes only import the program.  A batch interpreter replays the
workload's whole batch in forked children, one at a time, each a closed
loop with one op in flight and each starting from the same state.  A
run is ROUNDS rounds of set-up probes and one batch interpreter, which
share --seconds; each op's latency is its median over the run's replays.

With --trace 1 the run instead makes one untraced and one traced
replay of the whole batch, checks that their outputs are byte-identical,
and prints the per-layer metrics of the traced one.

Every op is checked: exit code 0, no `agree=false`, every verify check
`pass`, `skipped` or `info`, and, where perfbench/reference.json has the
op, the same output digest (verify: the same set of check statuses).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEADLINE_S = 170  # every run ends well inside 180 s
ROUNDS = 3  # batch interpreters per run
PROBES = 2  # set-up probes per round
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
CLEARED_ENV = ("RADICAL_RAM_MAX_ORDER", "RADICAL_RAM_NO_NUMBA")


class HarnessError(RuntimeError):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job, started):
    """Run one fresh interpreter on `job`; return its parsed result."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise HarnessError("out of time before the next interpreter")
    t_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    # A session of its own, so that the interpreter and the replays it
    # forks can be killed together on every way out.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), str(t_ns)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=remaining)
    finally:
        if proc.returncode != 0:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"interpreter exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


# ------------------------------------------------------------ correctness


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def op_failures(op, res, reference):
    """Reasons this op's result is wrong (empty when it is right)."""
    why = []
    if res.get("error"):
        why.append(res["error"])
    if res["rc"] != 0:
        why.append(f"exit code {res['rc']}")
    if op["kind"] == "analyze":
        if res["agree_false"]:
            why.append("agree=false")
        if res["agree_true"] != len(op["groups"]):
            why.append(f"{res['agree_true']} agree=true verdicts for {len(op['groups'])} wild primes")
    if op["kind"] == "verify" and "verify_rows" in res:
        bad = [r for r in res["verify_rows"] if r[-1] not in ("pass", "skipped", "info")]
        if bad:
            why.append(f"verify checks not passed: {bad[:3]}")
    ref = reference.get(" ".join(op["argv"]))
    if ref is not None:
        if op["kind"] == "verify":
            if ref["verify_rows"] != res.get("verify_rows"):
                why.append("verify check set differs from reference")
        elif ref["sha256"] != res["sha256"]:
            why.append("output digest differs from reference")
    return why


def check_samples(ops, samples, reference):
    """(argv, reasons) for every wrong op result.  An op's results must
    all be right and all have its first result's digest."""
    failures = []
    for op, results in zip(ops, samples):
        for res in results:
            why = op_failures(op, res, reference)
            if res["sha256"] != results[0]["sha256"]:
                why.append("output differs between interpreters")
            if why:
                failures.append((" ".join(op["argv"]), why))
    return failures


# ---------------------------------------------------------------- metrics


def tail_quantile(n):
    """The highest quantile with at least ten of n samples beyond it;
    the whole sample (1.0) when n <= 10."""
    return (n - 10) / n if n > 10 else 1.0


def hd_quantile(values, q, steps=64):
    """Harrell-Davis estimate of the q-quantile of `values`: the mean of
    all order statistics, the i-th weighted by the Beta((n+1)q, (n+1)(1-q))
    probability of [i/n, (i+1)/n].  Neighbouring values share the weight,
    so it moves much less from run to run than the one order statistic it
    estimates.  Weights come from Simpson's rule with `steps` intervals
    per order statistic."""
    xs = sorted(values)
    n = len(xs)
    if q >= 1.0:
        return xs[-1]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    weights = []
    for i in range(n):
        ys = [pdf((i + j / steps) / n) for j in range(steps + 1)]
        weights.append(ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2]))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def measure(ops, seconds, started):
    """ROUNDS rounds of PROBES set-up probes and one batch interpreter,
    each in a fresh interpreter, sharing `seconds` counted from the
    run's start.  Each batch interpreter replays the batch for its share
    of the time.

    Each op's latency is its median over the run's replays.  On a shared
    machine the speed drifts by up to 1.5x within seconds; the fastest
    sample then depends on whether a run caught a fast moment, while the
    median of many samples spread over the run does not."""
    spawn({"mode": "setup"}, started)  # untimed: fills the bytecode cache
    samples = [[] for _ in ops]
    setups, rss = [], []
    overhead = 0.0  # a batch interpreter's time outside its replays
    for i in range(ROUNDS):
        for _ in range(PROBES):
            setups.append(spawn({"mode": "setup"}, started)["setup_s"])
        t0 = time.monotonic()
        budget = (seconds - (t0 - started)) / (ROUNDS - i) - overhead
        b = spawn({"mode": "batch", "ops": ops, "trace": False, "budget_s": budget}, started)
        setups.append(b["setup_s"])
        replay_s = 0.0
        for rep in b["replays"]:
            rss.append(rep["peak_rss_mb"])
            replay_s += rep["wall_s"]
            for results, res in zip(samples, rep["ops"]):
                results.append(res)
        overhead = time.monotonic() - t0 - replay_s
    lat = sorted(statistics.median(r["latency_s"] for r in results) for results in samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(lat),
        "op_p50_ms": hd_quantile(lat, 0.5) * 1e3,
        "op_tail_ms": hd_quantile(lat, tail_quantile(len(lat))) * 1e3,
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "per_op": f"n={len(ops)} ops, each its median of {len(rss)} replays",
    }
    return metrics, samples, b["env"], notes


def traced(ops, workload, seed, started):
    """One untraced and one traced replay of the whole batch."""
    b = spawn({"mode": "batch", "ops": ops, "trace": False, "budget_s": 0}, started)
    plain = b["replays"][0]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    tr = spawn({"mode": "batch", "ops": ops, "trace": True, "spans": spans, "budget_s": 0},
               started)["replays"][0]
    layers = tr["layers"]
    layers["cli.out_bytes"] = sum(r["bytes"] for r in tr["ops"])
    layers["trace.overhead_s"] = tr["wall_s"] - plain["wall_s"]
    samples = [[r0, r1] for r0, r1 in zip(plain["ops"], tr["ops"])]
    notes = {"missing": tr["missing"]}
    return layers, samples, b["env"], notes


# ---------------------------------------------------------------- output


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def run_workload(name, seed, seconds, trace):
    started = time.monotonic()
    ops = workloads.WORKLOADS[name](seed)
    reference = load_reference()
    end_to_end, per_layer = declared()
    if trace:
        values, samples, env, notes = traced(ops, name, seed, started)
        wanted = per_layer
    else:
        values, samples, env, notes = measure(ops, seconds, started)
        wanted = end_to_end
    failures = check_samples(ops, samples, reference)
    attempted = sum(map(len, samples))

    lines = [
        f"workload {name}  seed {seed}  trace {trace}  {len(ops)} ops",
        "env: python {python}, numpy {numpy}, sympy {sympy}, orbit kernel {orbit_kernel}; "
        "cleared {cleared}; verify --max-order {mo}".format(
            **env, cleared=",".join(CLEARED_ENV), mo=workloads.MAX_ORDER),
        f"inputs: repeat_share {workloads.repeat_share(ops):.3f}; case mix {workloads.case_mix(ops)}",
    ]
    if trace and notes["missing"]:
        lines.append(f"not traced (absent in program): {notes['missing']}")
    if not trace:
        n = len(ops)
        q = tail_quantile(n)
        notes.update(wall_s="sum over " + notes["per_op"],
                     op_p50_ms=f"Harrell-Davis; {notes['per_op']}",
                     op_tail_ms=f"p{100 * q:.1f} Harrell-Davis, {round(n * (1 - q))} beyond; "
                                f"{notes['per_op']}")
    for m in wanted:
        lines.append(f"{m['name']:40s} {values.get(m['name'], 0):>16.6f} {m['unit']:6s} "
                     f"{notes.get(m['name'], '')}")
    lines.append(f"{'ops_attempted':40s} {attempted:>16d}")
    lines.append(f"{'ops_failed':40s} {len(failures):>16d}")
    for argv, why in failures[:10]:
        lines.append(f"FAILED {argv}: {'; '.join(why)}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"result": result, "env": env, "case_mix": workloads.case_mix(ops),
                   "repeat_share": workloads.repeat_share(ops),
                   "ops": [{"argv": op["argv"], "sha256": results[0]["sha256"],
                            "bytes": results[0]["bytes"],
                            "latency_s": [r["latency_s"] for r in results]}
                           for op, results in zip(ops, samples)]},
                  fh, indent=1)
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # interpreter it is waiting on before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "radical_ram", "cli.py")):
        sys.stderr.write(f"no program to benchmark: {ROOT}/src/radical_ram/cli.py is missing\n")
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            lines, result = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
