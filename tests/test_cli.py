"""Command-line interface: spec-file round-trips, report payloads, exit
codes, error codes, and byte-identical reports."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bhl
from bhl.braidedhopf import check_hopf
from bhl.catalog import build
from bhl.cli import (canonical_json, datum_from_spec, hopf_to_spec,
                     matrix_to_spec, main)


def run_cli(args, tmp_path=None, out_name=None):
    """Run main() in-process; returns (exit_code, payload-or-None)."""
    if out_name is not None:
        out = tmp_path / out_name
        code = main(list(args) + ["--out", str(out)])
        payload = json.loads(out.read_text()) if out.exists() else None
        return code, payload
    return main(list(args)), None


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_check_hopf_builtin(tmp_path):
    code, payload = run_cli(["check-hopf", "--builtin", "sweedler"],
                            tmp_path, "r.json")
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["command"] == "check-hopf"
    assert payload["inputs"] == {"builtin": "sweedler"}
    assert payload["dimensions"]["hopf"] == 4
    assert all(c["residual"] == "zero" for c in payload["checks"])
    assert len(payload["digest"]) == 64


def test_json_goes_to_stdout_without_out_flag(capsys):
    code = main(["check-hopf", "--builtin", "group_algebra:2"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)  # stdout is exactly the report
    assert payload["status"] == "pass"
    assert "check-hopf: pass" in captured.err


def test_antipode_command(tmp_path):
    code, payload = run_cli(["antipode", "--builtin", "taft:2"],
                            tmp_path, "r.json")
    assert code == 0
    names = {c["name"]: c["status"] for c in payload["checks"]}
    assert names["antipode_left"] == "pass"
    assert names["antipode_right"] == "pass"
    assert names["matches_given_antipode"] == "pass"
    H = build("taft:2")
    assert payload["antipode"] == matrix_to_spec(H.S.matrix)


def test_yd_check_builtin_samples(tmp_path):
    code, payload = run_cli(["yd-check", "--builtin", "group_algebra:2"],
                            tmp_path, "r.json")
    assert code == 0
    assert len(payload["modules"]) == 3
    for mod in payload["modules"]:
        assert mod["status"] == "pass"
        names = {c["name"] for c in mod["checks"]}
        assert "yd_compat" in names and "braid_relation" in names
        assert "braiding_inverse" in names


def test_bosonize_command(tmp_path):
    code, payload = run_cli(["bosonize", "--builtin", "exterior_line"],
                            tmp_path, "r.json")
    assert code == 0
    dims = payload["dimensions"]
    assert dims == {"input": 2, "group": 2, "bosonization": 4}
    rebuilt, _ = datum_from_spec(payload["hopf_datum"])
    assert check_hopf(rebuilt).passed


def test_reconstruct_emits_matching_datum(tmp_path):
    code, payload = run_cli(["reconstruct", "--builtin", "group_algebra:2"],
                            tmp_path, "r.json")
    assert code == 0
    assert payload["dimensions"]["coend"] == 2
    rebuilt, _ = datum_from_spec(payload["hopf_datum"])
    H = build("group_algebra:2")
    # the comparison is the identity here, so all matrices match on the nose
    # (the rebuilt carrier uses coend class labels c0, c1)
    assert rebuilt.m.matrix == H.m.matrix
    assert rebuilt.delta.matrix == H.delta.matrix
    assert rebuilt.S.matrix == H.S.matrix
    assert [d for _, d in rebuilt.carrier.basis] == \
           [d for _, d in H.carrier.basis]


def test_verify_reconstruction_checks(tmp_path):
    code, payload = run_cli(
        ["verify-reconstruction", "--builtin", "exterior_line"],
        tmp_path, "r.json")
    assert code == 0
    assert "hopf_datum" not in payload
    names = [c["name"] for c in payload["checks"]]
    assert "quotient_is_hopf" in names
    assert "comparison_is_hopf_morphism" in names


def test_stability_command(tmp_path):
    code, payload = run_cli(["stability", "--builtin", "group_algebra:2"],
                            tmp_path, "r.json")
    assert code == 0
    assert len(payload["enlargements"]) == 3
    for e in payload["enlargements"]:
        assert e["dimension"] == 2 and e["status"] == "pass"


def test_probes_flag_enlarges_but_preserves(tmp_path):
    code, payload = run_cli(
        ["verify-reconstruction", "--builtin", "exterior_line",
         "--probes", "1"],
        tmp_path, "r.json")
    assert code == 0
    assert payload["dimensions"]["coend"] == 2


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def test_spec_round_trip_every_builtin():
    for name in ("group_algebra:3", "sweedler", "exterior_line",
                 "nichols_cyclic:3", "taft:2"):
        H = build(name)
        doc = json.loads(canonical_json(hopf_to_spec(H)))
        H2, _ = datum_from_spec(doc)
        assert (H2.carrier, H2.m, H2.u, H2.delta, H2.eps, H2.S) == \
               (H.carrier, H.m, H.u, H.delta, H.eps, H.S), name


def test_spec_file_input(tmp_path):
    spec = tmp_path / "sw.json"
    spec.write_text(canonical_json(hopf_to_spec(build("sweedler"))))
    code, payload = run_cli(["check-hopf", str(spec)], tmp_path, "r.json")
    assert code == 0
    assert payload["inputs"] == {"file": "sw.json"}


def test_broken_coassociativity_reports_witness(tmp_path):
    doc = hopf_to_spec(build("sweedler"))
    doc["hopf"]["delta"][0][0] = "2"
    spec = tmp_path / "broken.json"
    spec.write_text(canonical_json(doc))
    code, payload = run_cli(["check-hopf", str(spec)], tmp_path, "r.json")
    assert code == 1
    assert payload["status"] == "fail"
    bad = {c["name"]: c for c in payload["checks"] if c["status"] == "fail"}
    assert "coassociativity" in bad
    w = bad["coassociativity"]["witness"]
    assert set(w) == {"row", "col", "value"} and w["value"] != "0"


def broken_coassociativity_spec(tmp_path):
    doc = hopf_to_spec(build("sweedler"))
    doc["hopf"]["delta"][0][0] = "2"
    spec = tmp_path / "broken.json"
    spec.write_text(canonical_json(doc))
    return spec


@pytest.mark.parametrize("command", ["verify-reconstruction", "stability"])
def test_non_coassociative_spec_is_an_invalid_structure(command, tmp_path,
                                                         capsys):
    # the regular comodule of the spec fails its own axiom check, with or
    # without python -O
    spec = broken_coassociativity_spec(tmp_path)
    code, payload = run_cli([command, str(spec)], tmp_path, "r.json")
    assert code == 1
    assert payload["error"] == {"code": "InvalidStructure",
                                "message": "coaction is not coassociative"}
    err = capsys.readouterr().err
    assert err == "error[InvalidStructure]: coaction is not coassociative\n"


@pytest.mark.parametrize("command", ["verify-reconstruction", "stability"])
def test_non_comultiplicative_product_is_an_invalid_structure(command,
                                                              tmp_path,
                                                              capsys):
    # m(1 (x) g) = 2g: Delta is no longer an algebra map, so the tensor
    # square of the regular comodule, merged through m, is not coassociative
    doc = hopf_to_spec(build("sweedler"))
    assert doc["hopf"]["m"][1][1] == "1"
    doc["hopf"]["m"][1][1] = "2"
    spec = tmp_path / "broken-m.json"
    spec.write_text(canonical_json(doc))
    code, payload = run_cli([command, str(spec)], tmp_path, "r.json")
    assert code == 1
    assert payload["error"] == {"code": "InvalidStructure",
                                "message": "coaction is not coassociative"}
    err = capsys.readouterr().err
    assert err == "error[InvalidStructure]: coaction is not coassociative\n"


def test_yd_modules_from_spec_file(tmp_path):
    # swap action with a group-graded coaction: YD compatibility fails
    doc = hopf_to_spec(build("group_algebra:2"))
    doc["objects"]["V"] = {"labels": ["v0", "v1"], "degrees": [[], []]}
    doc["yd_modules"] = [{
        "name": "swap",
        "carrier": "V",
        "action": [["1", "0", "0", "1"], ["0", "1", "1", "0"]],
        "coaction": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]],
    }]
    spec = tmp_path / "yd.json"
    spec.write_text(canonical_json(doc))
    code, payload = run_cli(["yd-check", str(spec)], tmp_path, "r.json")
    assert code == 1
    (mod,) = payload["modules"]
    assert mod["name"] == "swap"
    failed = {c["name"] for c in mod["checks"] if c["status"] == "fail"}
    assert "yd_compat" in failed


def test_antipode_nonexistence_error_payload(tmp_path):
    # the monoid bialgebra on {1, m} with m^2 = m has no antipode
    doc = {
        "field": {"cyclotomic_order": 1},
        "group": {"invariant_factors": []},
        "objects": {"B": {"labels": ["e", "m"], "degrees": [[], []]}},
        "hopf": {
            "carrier": "B",
            "m": [["1", "0", "0", "0"], ["0", "1", "1", "1"]],
            "u": [["1"], ["0"]],
            "delta": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]],
            "eps": [["1", "1"]],
        },
    }
    spec = tmp_path / "monoid.json"
    spec.write_text(canonical_json(doc))
    code, payload = run_cli(["antipode", str(spec)], tmp_path, "r.json")
    assert code == 1
    assert payload["status"] == "error"
    assert payload["error"]["code"] == "NoSolution"


def test_explicit_spec_without_antipode_checks_bialgebra_only(tmp_path):
    doc = hopf_to_spec(build("group_algebra:2"))
    del doc["hopf"]["S"]
    spec = tmp_path / "bialg.json"
    spec.write_text(canonical_json(doc))
    code, payload = run_cli(["check-hopf", str(spec)], tmp_path, "r.json")
    assert code == 0
    names = {c["name"] for c in payload["checks"]}
    assert "mult_compat" in names and "antipode_left" not in names


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_reports_byte_identical_across_runs_and_threads(tmp_path, monkeypatch):
    args = ["verify-reconstruction", "--builtin", "group_algebra:3"]
    outs = []
    for k, threads in enumerate((None, None, "1", "4")):
        if threads is None:
            monkeypatch.delenv("BHL_THREADS", raising=False)
        else:
            monkeypatch.setenv("BHL_THREADS", threads)
        out = tmp_path / ("r%d.json" % k)
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert all(o == outs[0] for o in outs)
    assert outs[0].endswith(b"\n") and b"\r" not in outs[0]


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_unknown_builtin_is_usage_error(capsys):
    assert main(["check-hopf", "--builtin", "nope"]) == 2
    assert "unknown builtin" in capsys.readouterr().err


def test_both_builtin_and_file_rejected(tmp_path):
    spec = tmp_path / "x.json"
    spec.write_text("{}")
    assert main(["check-hopf", str(spec), "--builtin", "sweedler"]) == 2


def test_missing_input_rejected():
    assert main(["check-hopf"]) == 2


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    spec = tmp_path / "trunc.json"
    spec.write_text('{"hopf": \n')
    assert main(["check-hopf", str(spec)]) == 2
    assert "line 2 column" in capsys.readouterr().err


def test_bad_threads_value_rejected(monkeypatch, capsys):
    monkeypatch.setenv("BHL_THREADS", "0")
    assert main(["check-hopf", "--builtin", "sweedler"]) == 2
    assert "BHL_THREADS" in capsys.readouterr().err


def test_bad_probe_rejected(capsys):
    assert main(["verify-reconstruction", "--builtin", "exterior_line",
                 "--probes", "1:2"]) == 2
    assert "probe" in capsys.readouterr().err


# (spec entry to replace in the exterior_line spec, bad value)
BAD_SPEC_ENTRIES = {
    "entry_divides_by_zero": (("hopf", "m", 0, 0), "1/0"),
    "cyclotomic_order_zero": (("field", "cyclotomic_order"), 0),
    "cyclotomic_order_fractional": (("field", "cyclotomic_order"), 2.5),
    "cyclotomic_order_text": (("field", "cyclotomic_order"), "x"),
    "invariant_factor_zero": (("group", "invariant_factors", 0), 0),
    "degree_fractional": (("objects", "H", "degrees", 1, 0), 0.5),
}
BAD_BUILTINS = ["taft:1", "nichols_cyclic:1", "nichols_cyclic:0",
                "group_algebra:0"]


@pytest.mark.parametrize("bad", sorted(BAD_SPEC_ENTRIES) + BAD_BUILTINS)
def test_bad_input_exits_2_with_one_error_line(bad, tmp_path, capsys):
    if bad in BAD_SPEC_ENTRIES:
        keys, value = BAD_SPEC_ENTRIES[bad]
        doc = hopf_to_spec(build("exterior_line"))
        holder = doc
        for k in keys[:-1]:
            holder = holder[k]
        holder[keys[-1]] = value
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        args = [str(spec)]
    else:
        args = ["--builtin", bad]
    assert main(["check-hopf"] + args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# (command, spec entry to replace in the exterior_line spec, bad value):
# each has the wrong JSON shape, not just a wrong value
BAD_SPEC_SHAPES = {
    "exponent_matrix_number": ("check-hopf",
                               ("bicharacter", "exponent_matrix"), 5),
    "exponent_matrix_flat": ("check-hopf",
                             ("bicharacter", "exponent_matrix"), [1]),
    "objects_list": ("check-hopf", ("objects",), [1, 2]),
    "objects_text": ("check-hopf", ("objects",), "abc"),
    "yd_modules_number": ("yd-check", ("yd_modules",), 5),
    "carrier_list": ("check-hopf", ("hopf", "carrier"), ["H"]),
}


@pytest.mark.parametrize("bad", sorted(BAD_SPEC_SHAPES))
def test_malformed_spec_shape_exits_2_without_traceback(bad, tmp_path):
    command, keys, value = BAD_SPEC_SHAPES[bad]
    doc = hopf_to_spec(build("exterior_line"))
    holder = doc
    for k in keys[:-1]:
        holder = holder[k]
    holder[keys[-1]] = value
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    proc = run_module([], [command, str(spec)])
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


def test_builtin_reference_spec_feeds_yd_check(tmp_path):
    # the sign representation of Z/2 in degree zero is a YD module over kZ/2
    doc = {"hopf": {"builtin": "group_algebra:2"},
           "objects": {"V": {"labels": ["v"]}},
           "yd_modules": [{"name": "sign", "carrier": "V",
                           "action": [["1", "-1"]],
                           "coaction": [["1"], ["0"]]}]}
    spec = tmp_path / "ref.json"
    spec.write_text(canonical_json(doc))
    code, payload = run_cli(["yd-check", str(spec)], tmp_path, "r.json")
    assert code == 0
    (mod,) = payload["modules"]
    assert mod["name"] == "sign" and mod["status"] == "pass"
    assert payload["dimensions"] == {"hopf": 2}


def test_builtin_reference_to_unknown_name_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "ref.json"
    spec.write_text(canonical_json({"hopf": {"builtin": "nope"}}))
    assert main(["check-hopf", str(spec)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "unknown builtin" in err, err


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
ENTRY_POINT_ARGS = ["check-hopf", "--builtin", "group_algebra:2"]


def declared_console_script():
    """The `bhl` entry of `[project.scripts]` in pyproject.toml, split into
    (module, attribute)."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "bhl" in scripts, "pyproject.toml declares no bhl console script"
    module, sep, attr = scripts["bhl"].partition(":")
    assert sep and module and attr, scripts["bhl"]
    return module, attr


def run_declared_entry_point(args):
    """Run the declared `bhl` entry point in a fresh interpreter, as the
    wrapper that pip generates for a console script does. The child imports
    the same `bhl` package as this process, installed or not."""
    module, attr = declared_console_script()
    wrapper = ("import sys\n"
               "import %s\n"
               "sys.argv[0] = 'bhl'\n"
               "sys.exit(%s.%s())\n" % (module, module, attr))
    package_root = str(Path(bhl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", wrapper] + args,
                          capture_output=True, env=env)


def test_console_entry_point_installed():
    proc = run_declared_entry_point(ENTRY_POINT_ARGS)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["status"] == "pass"


@pytest.mark.skipif(shutil.which("bhl") is None,
                    reason="bhl console script not installed")
def test_installed_bhl_script_matches_entry_point():
    installed = subprocess.run(["bhl"] + ENTRY_POINT_ARGS,
                               capture_output=True)
    declared = run_declared_entry_point(ENTRY_POINT_ARGS)
    assert installed.returncode == declared.returncode == 0, \
        installed.stderr.decode()
    assert installed.stdout == declared.stdout


def test_importing_the_cli_leaves_fractions_out():
    # scalars are parsed and formatted with ints; fractions (and the
    # decimal module it imports) would add to every command's start-up
    code = ("import sys, bhl.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bhl.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_m_bhl_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bhl.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bhl", "check-hopf", "--builtin", "sweedler"],
        capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["status"] == "pass"


def run_module(flags, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bhl.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable] + flags + ["-m", "bhl"] + args,
                          capture_output=True, env=env)


def test_optimized_interpreter_gives_the_same_reports(tmp_path):
    """Validation does not rest on assert: python -O writes the same report
    bytes with the same exit codes, and never a traceback."""
    spec = str(broken_coassociativity_spec(tmp_path))
    for args, want in ((["verify-reconstruction", "--builtin", "sweedler"], 0),
                       (["stability", "--builtin", "exterior_line"], 0),
                       (["verify-reconstruction", spec], 1)):
        plain, optimized = run_module([], args), run_module(["-O"], args)
        assert plain.returncode == optimized.returncode == want, args
        assert plain.stdout == optimized.stdout, args
        for proc in (plain, optimized):
            assert b"Traceback" not in proc.stderr, proc.stderr.decode()


def test_optimized_interpreter_reproduces_the_golden_report(tmp_path):
    """The certified coend's premise checks are not asserts: under python
    -O the nichols_cyclic:3 reconstruction report still has the sha256
    stored in perfbench/expected.json (only read here)."""
    expected = json.loads((PYPROJECT.parent / "perfbench" / "expected.json")
                          .read_text())["ops"]
    want = expected["verify-reconstruction nichols_cyclic:3"]
    out = tmp_path / "report.json"
    proc = run_module(["-O"], ["verify-reconstruction", "--builtin",
                               "nichols_cyclic:3", "--out", str(out)])
    assert proc.returncode == want["exit"], proc.stderr.decode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"]


# ---------------------------------------------------------------------------
# report emission errors
# ---------------------------------------------------------------------------

def test_unwritable_out_path_exits_2_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["check-hopf", "--builtin", "sweedler", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("args", [["check-hopf", "--builtin", "sweedler"],
                                  ["check-hopf", "--builtin", "sweedler",
                                   "--out", "report.json"]])
def test_closed_stdout_exits_2_with_one_error_line(args, tmp_path):
    # the report (or, with --out, the summary) goes to a pipe whose read
    # end is already closed
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bhl.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "bhl"] + args,
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, cwd=tmp_path)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
