"""Write perfbench/reference.json: the expected output of every op of the
default seed (seed 0), for run.py to compare against.

Usage: python3 perfbench/make_reference.py

analyze and chartab ops are stored as SHA-256 digests of their stdout;
verify ops as their sorted (group, section, check, status) rows, so a
change to a report's other keys is not a failure but a dropped check is.
Regenerate only when a change alters the program's output on purpose,
and say which output changed and why.
"""

import json
import os
import sys
import time

import run
import workloads


def main():
    ref = {}
    for name, make in sorted(workloads.WORKLOADS.items()):
        ops = make(0)
        batch = run.spawn({"mode": "batch", "ops": ops, "trace": False, "budget_s": 0},
                          time.monotonic())
        for op, res in zip(ops, batch["replays"][0]["ops"]):
            why = run.op_failures(op, res, {})
            if why:
                sys.exit(f"{' '.join(op['argv'])}: {why}; not writing a reference")
            key = " ".join(op["argv"])
            if op["kind"] == "verify":
                ref[key] = {"verify_rows": res["verify_rows"]}
            else:
                ref[key] = {"sha256": res["sha256"], "bytes": res["bytes"]}
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ref)} ops to {os.path.relpath(run.REFERENCE)}")


if __name__ == "__main__":
    main()
