"""Run one bhl CLI command with the benchmark's layer wrappers installed.

    python3 perfbench/child.py {time|count} OUT.json -- CLI-ARGS...

`time` records a span per wrapped call and `count` counts calls and Scalar
operations (see layers.py); either way the record is written to OUT.json
when the command ends, and the exit status is the command's own.  Run it
with the repository's src/ on PYTHONPATH.
"""

import json
import sys

import layers


def main(argv):
    mode, out_path, sep = argv[:3]
    if mode not in ("time", "count") or sep != "--":
        print("usage: child.py {time|count} OUT.json -- CLI-ARGS...",
              file=sys.stderr)
        return 2
    recorder = layers.SpanRecorder() if mode == "time" else layers.CallCounter()
    layers.install(recorder)
    if mode == "count":
        recorder.install_scalar_counts()
    import bhl.cli
    try:
        return bhl.cli.main(argv[3:])
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
