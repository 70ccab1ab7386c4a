"""The benchmark's layer hooks (perfbench/layers.py, only read here) still
find every method they wrap, and a counted run of the CLI writes the same
report bytes as a plain one."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import bhl

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def child_env():
    env = dict(os.environ)
    package_root = str(Path(bhl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("BHL_THREADS", None)
    return env


def test_layer_targets_resolve():
    layers = load_layers()
    # _targets() raises if a class or method named in METHODS is gone
    names = {name for name, _ in layers._targets()}
    for name in ("coend.Diagram.__init__", "coend.Diagram.enlarged",
                 "coend.CoendResult.pi", "coend.CoendResult.residual_report",
                 "coend.CoendResult.check_regular_surjective",
                 "comodcat.Comodule.__init__"):
        assert name in names


def test_counted_run_writes_the_plain_report(tmp_path):
    args = ["verify-reconstruction", "--builtin", "sweedler"]
    plain, counted = tmp_path / "plain.json", tmp_path / "counted.json"
    record = tmp_path / "counts.json"
    env = child_env()
    run_plain = subprocess.run(
        [sys.executable, "-m", "bhl.cli"] + args + ["--out", str(plain)],
        capture_output=True, env=env)
    run_counted = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "count", str(record),
         "--"] + args + ["--out", str(counted)],
        capture_output=True, env=env)
    assert run_plain.returncode == 0, run_plain.stderr.decode()
    assert run_counted.returncode == 0, run_counted.stderr.decode()
    assert counted.read_bytes() == plain.read_bytes()
    assert record.exists()
