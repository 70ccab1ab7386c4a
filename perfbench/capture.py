"""Rewrite perfbench/expected.json from the current program.

    python3 perfbench/capture.py

Runs every op of every workload once, on the inputs of the default seed,
and stores its exit status and report sha256, plus, for ops on generated
inputs, the report without its seed-dependent fields.  Run it only on a
commit whose reports are known to be right: the benchmark holds every later
commit to them.
"""

import hashlib
import json
import os
import sys

import run
from workloads import WORKLOADS


def main():
    ops = {}
    for workload in sorted(WORKLOADS):
        run.generate_inputs(workload, run.DEFAULT_SEED)
        for op in WORKLOADS[workload][1]:
            out = os.path.join(run.WORK, "capture.json")
            log = os.path.join(run.WORK, "capture.log")
            cmd = [sys.executable, "-m", "bhl.cli"]
            cmd += op.argv(os.path.join(run.WORK, "specs")) + ["--out", out]
            _, _, code, _ = run.spawn(cmd, log)
            with open(log, "rb") as fh:
                if b"Traceback" in fh.read():
                    sys.exit("error: %s printed a traceback" % op.id)
            with open(out, "rb") as fh:
                report = fh.read()
            os.remove(out)
            entry = {"exit": code,
                     "sha256": hashlib.sha256(report).hexdigest()}
            if op.spec:
                doc = json.loads(report.decode("utf-8"))
                entry["skeleton"] = {k: v for k, v in doc.items()
                                     if k not in run.SEEDED_FIELDS}
            ops[op.id] = entry
            print("%-48s exit %d" % (op.id, code), flush=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"default_seed": run.DEFAULT_SEED, "ops": ops}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
