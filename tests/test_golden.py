"""Golden reports: every builtin op of the benchmark, run in-process.

`perfbench/expected.json` stores, for each CLI op of the benchmark, the
expected exit status and the sha256 of the report file it writes.  Here
each op on a builtin (by name, not a generated spec file) runs through
`bhl.cli.main(... --out FILE)` and must reproduce both.  The file is only
read, never rewritten.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bhl.cli import main
from oracles import perfbench_module

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def _builtin_ops():
    ops = json.loads(EXPECTED.read_text())["ops"]
    return sorted((op_id, exp) for op_id, exp in ops.items()
                  if not op_id.endswith(".json"))


@pytest.mark.parametrize("op_id,expected", _builtin_ops(),
                         ids=[op_id for op_id, _ in _builtin_ops()])
def test_builtin_report_matches_golden(op_id, expected, tmp_path, capsys):
    command, name = op_id.split(" ")
    out = tmp_path / "report.json"
    code = main([command, "--builtin", name, "--out", str(out)])
    assert code == expected["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected["sha256"]


def test_golden_covers_every_builtin_command():
    ops = _builtin_ops()
    assert len(ops) == 41
    assert {op_id.split(" ")[0] for op_id, _ in ops} == {
        "antipode", "bosonize", "check-hopf", "reconstruct", "stability",
        "verify-reconstruction", "yd-check"}


# -- generated spec files -----------------------------------------------------
# The benchmark's seeded inputs (Q(zeta_5) and dense change-of-basis specs)
# under the default seed, written by perfbench/gen.py into a temporary
# directory; each op on them must reproduce its stored exit and sha256 too.

def _spec_ops():
    ops = json.loads(EXPECTED.read_text())["ops"]
    return sorted((op_id, exp) for op_id, exp in ops.items()
                  if op_id.endswith(".json"))


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    gen, workloads = perfbench_module("gen"), perfbench_module("workloads")
    seed = json.loads(EXPECTED.read_text())["default_seed"]
    inputs = {}
    for specs, _ in workloads.WORKLOADS.values():
        inputs.update(specs)
    out = tmp_path_factory.mktemp("specs")
    for name, (base, dense) in sorted(inputs.items()):
        (out / (name + ".json")).write_bytes(gen.generate(base, seed, dense))
    return out


@pytest.mark.parametrize("op_id,expected", _spec_ops(),
                         ids=[op_id for op_id, _ in _spec_ops()])
def test_generated_spec_report_matches_golden(op_id, expected, spec_dir,
                                              tmp_path, capsys):
    command, spec = op_id.split(" ")
    out = tmp_path / "report.json"
    code = main([command, str(spec_dir / spec), "--out", str(out)])
    assert code == expected["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected["sha256"]


def test_golden_covers_every_generated_spec_op():
    assert len(_spec_ops()) == 23
