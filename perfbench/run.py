"""Process-per-command benchmark of the bhl CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  One client runs a closed loop: each op is
one CLI command in a fresh child process (`python -m bhl.cli CMD ... --out
FILE` with src/ on PYTHONPATH), and the next op starts when it has exited.
Every report is checked against perfbench/expected.json.

--trace 0 runs whole passes over the seed-ordered op list for about
--seconds and prints the end-to-end metrics.  --trace 1 runs one pass each
untraced, traced (spans) and counting (see layers.py), checks that all three
wrote the same report bytes, and prints the per-layer metrics.  The last
line of standard output is a JSON object with the keys correct, attempted,
failed and metrics; the lines before it give every metric with its unit and
sample count, and the environment.  README.md lists the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple

import layers
from workloads import AXIOM_COMMANDS, RECONSTRUCT_COMMANDS, WORKLOADS, op_list

HARNESS_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
EXPECTED = os.path.join(HERE, "expected.json")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 0
SETUP_REPEATS = 3
STARTUP_PROBES = 5
OP_TIMEOUT_S = 90
# report fields that depend on the seed of a generated input
SEEDED_FIELDS = ("digest", "antipode", "comparison")

sys.path.insert(0, SRC)  # for gen.py and the modules it imports

# declared in BENCHMARK.json; README.md says why op_p50_s and the rest of
# what end_to_end() prints are left out
END_TO_END = (("run_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    [("cli.startup_s", "s")]
    + [(m, "s") for m in ("cli.spec_parse_s", "cli.emit_s", "cli.self_s",
                          "catalog.build_s")]
    + [("catalog.build_calls", "count")]
    + [(m, "s") for m in layers.TIME_METRICS if m.split(".")[0]
       in ("braidedhopf", "gradedcat")]
    + [("braidedhopf.self_s", "s"), ("gradedcat.self_s", "s"),
       ("gradedcat.morphism_new_calls", "count")]
    + [("exactalg.%s" % m, u) for m, u in (
        ("matmul_s", "s"), ("matmul_calls", "count"), ("kron_s", "s"),
        ("kron_calls", "count"), ("kron_entries", "count"), ("elim_s", "s"),
        ("elim_add_calls", "count"), ("elim_useful_ratio", "ratio"),
        ("rref_s", "s"), ("solve_s", "s"), ("solve_rows", "count"),
        ("scalar_mul", "count"), ("scalar_addsub", "count"),
        ("scalar_inverse", "count"), ("scalar_bool", "count"),
        ("self_s", "s"))]
    + [("comodcat.%s" % m, u) for m, u in (
        ("build_s", "s"), ("build_calls", "count"),
        ("build_distinct_ratio", "ratio"), ("hom_space_s", "s"),
        ("hom_space_calls", "count"), ("self_s", "s"))]
    + [("coend.%s" % m, u) for m, u in (
        ("diagram_s", "s"), ("compute_s", "s"), ("residual_s", "s"),
        ("stability_s", "s"), ("pi_s", "s"), ("self_s", "s"),
        ("pi_calls", "count"), ("relation_columns", "count"),
        ("ambient_dim", "count"), ("quotient_dim", "count"))]
    + [(m, "s") for m in layers.TIME_METRICS if m.startswith("reconstruct.")]
    + [("reconstruct.self_s", "s"), ("trace.overhead_ratio", "ratio")])

OpResult = namedtuple("OpResult", ["op", "wall_s", "rss_kb", "problems",
                                   "report"])
Pass = namedtuple("Pass", ["mode", "wall_s", "results"])


class SetupError(Exception):
    """The benchmark cannot run: inputs or expectations are unusable."""


def child_env():
    """The children's environment: src/ importable, BHL_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k != "BHL_THREADS"}
    env["PYTHONPATH"] = SRC
    return env


def environment():
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "BHL_THREADS": None}


def spawn(cmd, log_path):
    """Run cmd to completion; (wall seconds, ru_maxrss KiB, exit code,
    timed out).  Wall time runs from spawn to exit."""
    state = {"done": False, "killed": False}
    lock = threading.Lock()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)

        def kill():
            with lock:
                if not state["done"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True
        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        # wait without reaping, so the pid cannot be reused before the
        # timer is disarmed
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["done"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, state["killed"]


def check_report(op, exp, report, seed, spec):
    """Problems with one op's report (an empty list when it is correct).

    Builtin ops, and every op under the default seed, must reproduce the
    stored sha256.  A report on an input generated from another seed must
    match the stored report in everything but SEEDED_FIELDS, carry the
    input's digest, and, for `antipode`, give the input's own antipode.
    """
    if report is None:
        return ["no report written"]
    if op.builtin or seed == DEFAULT_SEED:
        if hashlib.sha256(report).hexdigest() != exp["sha256"]:
            return ["report differs from the expected sha256"]
        return []
    try:
        doc = json.loads(report.decode("utf-8"))
    except ValueError:
        return ["report is not JSON"]
    problems = []
    if {k: v for k, v in doc.items() if k not in SEEDED_FIELDS} \
            != exp["skeleton"]:
        problems.append("verdict, dimensions or checks differ")
    if doc.get("digest") != hashlib.sha256(spec).hexdigest():
        problems.append("digest is not the input's sha256")
    if "antipode" in doc and \
            doc["antipode"] != json.loads(spec.decode("utf-8"))["hopf"]["S"]:
        problems.append("antipode differs from the input's")
    return problems


def record_base(mode, op):
    """Path prefix of the files one op writes in one mode."""
    return os.path.join(WORK, mode, op.id.replace(" ", "_"))


def run_op(op, mode, seed, inputs, expected):
    """Run one op in a child process and check what it did."""
    base = record_base(mode, op)
    out, log, record = base + ".report.json", base + ".log", base + ".rec.json"
    if mode == "plain":
        cmd = [sys.executable, "-m", "bhl.cli"]
    else:
        cmd = [sys.executable, CHILD, mode, record, "--"]
    cmd += op.argv(os.path.join(WORK, "specs")) + ["--out", out]
    wall, rss_kb, code, killed = spawn(cmd, log)
    exp = expected[op.id]
    problems = []
    if killed:
        problems.append("timed out after %d s" % OP_TIMEOUT_S)
    if code != exp["exit"]:
        problems.append("exit %d, expected %d" % (code, exp["exit"]))
    with open(log, "rb") as fh:
        if b"Traceback (most recent call last)" in fh.read():
            problems.append("printed a traceback")
    report = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            report = fh.read()
    problems += check_report(op, exp, report, seed,
                             inputs.get(op.spec) if op.spec else None)
    return OpResult(op, wall, rss_kb, problems, report)


def run_passes(ops, modes, seed, inputs, expected):
    """One pass over ops per mode.  With several modes the passes are
    interleaved op by op, so a drift in machine speed hits all alike."""
    for mode in modes:
        os.makedirs(os.path.join(WORK, mode), exist_ok=True)
    results = {mode: [] for mode in modes}
    for op in ops:
        for mode in modes:
            results[mode].append(run_op(op, mode, seed, inputs, expected))
    return [Pass(mode, sum(r.wall_s for r in results[mode]), results[mode])
            for mode in modes]


def generate_inputs(workload, seed):
    """Generate and check the workload's inputs and write its spec files;
    spec name -> bytes."""
    import gen
    spec_dir = os.path.join(WORK, "specs")
    os.makedirs(spec_dir, exist_ok=True)
    inputs = {}
    for name, (base, dense) in sorted(WORKLOADS[workload][0].items()):
        inputs[name] = gen.generate(base, seed, dense)
        with open(os.path.join(spec_dir, name + ".json"), "wb") as fh:
            fh.write(inputs[name])
    return inputs


def load_expected(workload):
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    if expected["default_seed"] != DEFAULT_SEED:
        raise SetupError("expectations were captured under another seed")
    missing = [op.id for op in WORKLOADS[workload][1]
               if op.id not in expected["ops"]]
    if missing:
        raise SetupError("no expectation for %s" % ", ".join(missing))
    return expected["ops"]


def tail(values):
    """(latency, percentile) at the highest percentile that still has at
    least ten samples above it, or None when that is not above the median."""
    if len(values) < 21:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(passes, setups):
    """Every end-to-end metric: name -> (value, unit, samples); values a
    workload does not have (no such op, too few ops) are left out."""
    walls = [r.wall_s for p in passes for r in p.results]
    out = {
        "run_s": (statistics.median(p.wall_s for p in passes), "s",
                  len(passes)),
        "op_p50_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (max(r.rss_kb for p in passes for r in p.results)
                        / 1024.0, "MB", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    t = tail(walls)
    if t:
        out["op_tail_s"] = (t[0], "s (p%.0f)" % t[1], len(walls))
    for name, commands in (("reconstruct_s", RECONSTRUCT_COMMANDS),
                           ("axioms_s", AXIOM_COMMANDS)):
        sums = [sum(r.wall_s for r in p.results if r.op.command in commands)
                for p in passes]
        if any(sums):
            out[name] = (statistics.median(sums), "s", len(passes))
    attempted = len(walls)
    failed = sum(1 for p in passes for r in p.results if r.problems)
    out["ops_failed"] = (failed / attempted, "failed/attempted (%d/%d)"
                         % (failed, attempted), attempted)
    return out


def startup_s():
    """Median wall time of a child that only imports bhl.cli."""
    walls = []
    for k in range(STARTUP_PROBES):
        wall, _, code, _ = spawn([sys.executable, "-c", "import bhl.cli"],
                                 os.path.join(WORK, "startup-%d.log" % k))
        if code != 0:
            raise SetupError("importing bhl.cli failed")
        walls.append(wall)
    return statistics.median(walls)


def per_layer(plain, traced, counted):
    """Every per-layer metric: name -> (value, unit, samples)."""
    times = dict.fromkeys(tuple(layers.TIME_METRICS) + layers.SELF_METRICS,
                          0.0)
    counts = dict.fromkeys(layers.COUNT_METRICS, 0)
    for t, c in zip(traced.results, counted.results):
        with open(record_base("time", t.op) + ".rec.json",
                  encoding="utf-8") as fh:
            for k, v in layers.op_layer_times(json.load(fh)).items():
                times[k] += v
        with open(record_base("count", c.op) + ".rec.json",
                  encoding="utf-8") as fh:
            for k, v in json.load(fh).items():
                counts[k] = (max(counts[k], v) if k in layers.MAX_COUNTS
                             else counts[k] + v)
    values = dict(times)
    values.update(counts)
    values["cli.startup_s"] = startup_s()
    values["exactalg.elim_useful_ratio"] = (
        counts["exactalg.elim_useful_adds"]
        / max(counts["exactalg.elim_add_calls"], 1))
    values["comodcat.build_distinct_ratio"] = (
        counts["comodcat.build_distinct"]
        / max(counts["comodcat.build_calls"], 1))
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s - 1.0
    n = len(traced.results)
    return {name: (values[name], unit, STARTUP_PROBES
                   if name == "cli.startup_s" else n)
            for name, unit in PER_LAYER}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bhl", "cli.py")):
        print("error: no bhl sources under %s" % SRC, file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        return bench(args)
    except (SetupError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def bench(args):
    setups, inputs = [], None
    first = HARNESS_START
    for _ in range(SETUP_REPEATS):
        again = generate_inputs(args.workload, args.seed)
        expected = load_expected(args.workload)
        if inputs is not None and again != inputs:
            raise SetupError("the generator is not deterministic")
        inputs = again
        setups.append(time.perf_counter() - first)
        first = time.perf_counter()
    ops = op_list(args.workload, args.seed)
    run = lambda *modes: run_passes(ops, modes, args.seed, inputs, expected)

    if args.trace == 0:
        passes = []
        start = time.perf_counter()
        while True:
            passes += run("plain")
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall_s > args.seconds:
                break
        metrics = end_to_end(passes, setups)
        declared = [name for name, _ in END_TO_END]
    else:
        passes = run("plain", "time", "count")
        for plain, traced, counted in zip(*(p.results for p in passes)):
            if plain.report is None:
                continue
            for other in (traced, counted):
                if other.report != plain.report:
                    other.problems.append("report differs from the "
                                          "untraced run's")
        metrics = per_layer(*passes)
        declared = [name for name, _ in PER_LAYER]

    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.problems]
    env = environment()
    for r in failed:
        print("FAILED %s: %s" % (r.op.id, "; ".join(r.problems)))
    print("workload %s, seed %d, trace %d, %d pass(es) of %d ops, one "
          "client, closed loop" % (args.workload, args.seed, args.trace,
                                   len(passes), len(ops)))
    for name, (value, unit, n) in metrics.items():
        print("  %-32s %14.6g %-10s n=%d" % (name, value, unit, n))
    print("environment: %s" % json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "ops": [{"id": r.op.id, "pass": k, "mode": p.mode,
                       "wall_s": r.wall_s, "rss_kb": r.rss_kb,
                       "problems": r.problems}
                      for k, p in enumerate(passes) for r in p.results]}
    with open(os.path.join(WORK, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not failed, "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
