"""One fresh interpreter of a benchmark run.

Usage: python3 perfbench/child.py <spawn time, CLOCK_MONOTONIC ns> < job.json

It imports `radical_ram.cli` from the checkout's `src/` first thing, so
the time from spawn to import done is the program's set-up time.  Then it
reads the job from stdin:

  {"mode": "setup"}                        report the set-up time only;
  {"mode": "batch", "ops": [...],          replay the ops in forked
   "budget_s": float, "trace": bool,       children, one replay at a
   "spans": path|null}                     time, for about budget_s
                                           (at least one replay).

A replay is a child forked after the untimed warm-up ops.  It runs the
batch in a closed loop, one op at a time, in process, and exits.  So
every replay starts from the same program state, with the caches the
program had after the warm-up, whatever kind of cache the program keeps.

Each op's stdout goes into a sink that hashes and counts it without
keeping it (verify output, a few kB per op, is also kept to be parsed).
The result is one JSON line on the real stdout.
"""

import os
import sys
import time

SPAWN_NS = int(sys.argv[1])
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import radical_ram.cli as cli  # noqa: E402

SETUP_S = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - SPAWN_NS) / 1e9

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

CHUNK = 1 << 20
WARM_UP = (["analyze", "2", "31"],
           ["verify", "--p", "31", "--r", "1", "--s", "0", "--json", "--max-order", "100000"])
PATTERNS = {"agree_true": ("agree=true", '"agree": true'),
            "agree_false": ("agree=false", '"agree": false')}
TAIL = max(len(p) for pats in PATTERNS.values() for p in pats) - 1


class Sink:
    """A write-only text stream that hashes and counts what it is given
    and counts `agree` verdicts, across chunk boundaries."""

    def __init__(self, keep):
        self._sha = hashlib.sha256()
        self.nbytes = 0
        self.hits = dict.fromkeys(PATTERNS, 0)
        self._tail = ""
        self.kept = [] if keep else None

    def write(self, s):
        for i in range(0, len(s), CHUNK):
            part = s[i:i + CHUNK]
            data = part.encode()
            self._sha.update(data)
            self.nbytes += len(data)
            for key, pats in PATTERNS.items():
                # the carried tail is one char shorter than the pattern, so
                # no match is counted twice
                self.hits[key] += sum((self._tail[len(self._tail) - len(p) + 1:] + part).count(p)
                                      for p in pats)
            self._tail = (self._tail + part)[-TAIL:]
        if self.kept is not None:
            self.kept.append(s)
        return len(s)

    def flush(self):
        pass

    def digest(self):
        return self._sha.hexdigest()


def verify_rows(text):
    """The (group, section, check, status) rows of a `verify --json` report."""
    rows = []
    for entry in json.loads(text)["groups"]:
        g = entry["group"]
        key = [g["p"], g["r"], g["s"]]
        if "skipped" in entry:
            rows.append(key + ["group", "skipped", "skipped"])
        for section in ("oracle", "unit_checks", "eisenstein_checks"):
            part = entry.get(section)
            checks = part["checks"] if isinstance(part, dict) else part or ()
            rows.extend(key + [section, row["name"], row["status"]] for row in checks)
    return sorted(rows)


def run_op(op):
    sink = Sink(keep=op["kind"] == "verify")
    real = sys.stdout
    sys.stdout = sink
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(op["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that crashes is a failed op, not a crashed run
        rc, error = None, repr(exc)
    t1 = time.perf_counter()
    sys.stdout = real
    res = {"rc": rc, "latency_s": t1 - t0, "sha256": sink.digest(), "bytes": sink.nbytes,
           "agree_true": sink.hits["agree_true"], "agree_false": sink.hits["agree_false"]}
    if error:
        res["error"] = error
    if sink.kept is not None:
        try:
            res["verify_rows"] = verify_rows("".join(sink.kept))
        except (ValueError, KeyError, TypeError) as exc:
            res["error"] = f"unparseable verify output: {exc!r}"
    return res


def environment():
    import numpy
    import sympy

    from radical_ram import _kernels

    backend = getattr(_kernels, "kernel_backend", None)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__,
            "orbit_kernel": backend() if backend else "absent"}


def run_batch(job):
    """The body of one replay: every op once, in order."""
    # The same warm-up again, now served from the caches the parent
    # filled: it takes the copy-on-write faults of shared pages that the
    # first timed op would otherwise pay.
    for argv in WARM_UP:
        run_op({"kind": "warm-up", "argv": argv})
    gc.collect()
    gc.freeze()
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.install()
    out = {"ops": []}
    for op in job["ops"]:
        out["ops"].append(run_op(op))
        # Separate CLI processes would not carry earlier ops' objects:
        # freeze them, so later ops' collections do not walk them.
        gc.collect()
        gc.freeze()
    out["wall_s"] = sum(r["latency_s"] for r in out["ops"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["missing"] = tracer.missing
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    return out


def replay(job):
    """Run one replay in a forked child and return its result."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            data = json.dumps(run_batch(job)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"replay exited with wait status {status}")
    return json.loads(data)


def main():
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported {cli.__file__}, not the checkout's src/\n")
        return 2
    job = json.load(sys.stdin)
    out = {"setup_s": SETUP_S}
    if job["mode"] == "batch":
        # Lazy one-time costs (sympy's sieve, numpy's first calls, regex
        # compiles) would land on whichever op comes first; pay them on
        # ops whose groups (p = 31) no workload touches.
        for argv in WARM_UP:
            run_op({"kind": "warm-up", "argv": argv})
        gc.collect()
        gc.freeze()
        # Start another replay while it would end, on average, inside the
        # budget: a run overshoots its time by at most half a replay.
        out["replays"] = []
        t0 = time.monotonic()
        took = 0.0
        while not out["replays"] or time.monotonic() - t0 + took / 2 <= job["budget_s"]:
            t1 = time.monotonic()
            out["replays"].append(replay(job))
            took = time.monotonic() - t1
        out["env"] = environment()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
