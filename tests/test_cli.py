"""Command-line interface: spec-file round-trips, report payloads, exit
codes, error codes, and byte-identical reports."""

import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhl
from bhl.braidedhopf import HopfAlgebraData, check_bialgebra, check_hopf
from bhl.catalog import build
from bhl.cli import (HANDLERS, SchemaError, canonical_json, datum_from_spec,
                     exit_after_flush, hopf_to_spec, matrix_to_spec, main)
from bhl.exactalg import EngineError


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


ENTRY_CHECKED = ("yd-check", "bosonize", "reconstruct",
                 "verify-reconstruction", "stability")


def assert_not_hopf(command, spec, message, tmp_path, capsys):
    """`command` on the spec exits 1 at the entry check with exactly this
    NotHopf payload and one stderr line."""
    code, payload = run_cli([command, str(spec)], tmp_path, "r.json")
    assert code == 1
    assert payload == {"command": command, "status": "error",
                       "error": {"code": "NotHopf", "message": message}}
    assert capsys.readouterr().err == "error[NotHopf]: %s\n" % message


@pytest.mark.parametrize("command", ["verify-reconstruction", "stability"])
def test_non_coassociative_spec_is_an_invalid_structure(command, tmp_path,
                                                         capsys):
    # Delta(1) = 2 (1 (x) 1): the entry check names every failing axiom and
    # the first witness, with or without python -O, before any comodule of
    # the spec is built
    assert_not_hopf(command, broken_coassociativity_spec(tmp_path),
                    "not a Hopf algebra: coassociativity, counit_left, "
                    "counit_right, mult_compat, unit_compat, antipode_left, "
                    "antipode_right fail; coassociativity at row 3, col 3: 1",
                    tmp_path, capsys)


@pytest.mark.parametrize("command", ["verify-reconstruction", "stability"])
def test_non_comultiplicative_product_is_an_invalid_structure(command,
                                                              tmp_path,
                                                              capsys):
    # m(1 (x) g) = 2g: Delta is no longer an algebra map, and the entry
    # check says so before the tensor square of the regular comodule is built
    doc = hopf_to_spec(build("sweedler"))
    assert doc["hopf"]["m"][1][1] == "1"
    doc["hopf"]["m"][1][1] = "2"
    spec = tmp_path / "broken-m.json"
    spec.write_text(canonical_json(doc))
    assert_not_hopf(command, spec,
                    "not a Hopf algebra: associativity, unit_left, "
                    "mult_compat, counit_compat fail; associativity at row 0, "
                    "col 5: 1", tmp_path, capsys)


def broken_unit_law_spec(tmp_path):
    """The exterior_line spec with m(1 (x) x) = 2x: the unit law fails."""
    doc = hopf_to_spec(build("exterior_line"))
    assert doc["hopf"]["m"][1][1] == "1"
    doc["hopf"]["m"][1][1] = "2"
    spec = tmp_path / "broken-unit.json"
    spec.write_text(canonical_json(doc))
    return spec


def count_entry_checks(monkeypatch):
    """The inputs main passes to `bhl.cli.ensure_hopf`, as a list that
    grows with each call."""
    calls, check = [], bhl.cli.ensure_hopf

    def counted(datum):
        calls.append(datum)
        return check(datum)

    monkeypatch.setattr(bhl.cli, "ensure_hopf", counted)
    return calls


@pytest.mark.parametrize("command", ["reconstruct", "verify-reconstruction",
                                     "yd-check", "bosonize", "stability"])
def test_broken_unit_law_is_an_invalid_structure(command, tmp_path, capsys,
                                                 monkeypatch):
    # every entry-checked command fails the same way, at its one entry
    # check; without it, stability passed this spec, yd-check failed a
    # module, bosonize ended in NoSolution and the reconstructions in
    # InvalidStructure
    calls = count_entry_checks(monkeypatch)
    assert_not_hopf(command, broken_unit_law_spec(tmp_path),
                    "not a Hopf algebra: associativity, unit_left, "
                    "antipode_left, antipode_right fail; associativity at row "
                    "1, col 1: -2", tmp_path, capsys)
    assert len(calls) == 1


@pytest.mark.parametrize("command", sorted(HANDLERS))
@pytest.mark.parametrize("use_spec", [False, True], ids=["builtin", "spec"])
def test_main_runs_the_entry_check_once(command, use_spec, tmp_path,
                                        monkeypatch):
    # main checks the input once, for exactly the commands that need a Hopf
    # input; no command checks it again
    if use_spec:
        spec = tmp_path / "ga2.json"
        spec.write_text(canonical_json(hopf_to_spec(build("group_algebra:2"))))
        args = [str(spec)]
    else:
        args = ["--builtin", "group_algebra:2"]
    calls = count_entry_checks(monkeypatch)
    code, payload = run_cli([command] + args, tmp_path, "r.json")
    assert code == 0 and payload["status"] == "pass"
    assert len(calls) == (1 if command in ENTRY_CHECKED else 0)


def test_non_hopf_spec_without_antipode_fails_its_bialgebra_check(tmp_path,
                                                                  capsys):
    # without S the entry check runs check_bialgebra before solving for S,
    # so a broken m is reported as not Hopf, not as NoSolution
    doc = hopf_to_spec(build("exterior_line"))
    del doc["hopf"]["S"]
    doc["hopf"]["m"][1][1] = "2"
    spec = tmp_path / "broken-bialgebra.json"
    spec.write_text(canonical_json(doc))
    for command in ENTRY_CHECKED:
        assert_not_hopf(command, spec, "not a Hopf algebra: associativity, "
                        "unit_left fail; associativity at row 1, col 1: -2",
                        tmp_path, capsys)


def yd_module_spec():
    """group_algebra:2 with a swap action and a group-graded coaction on a
    plane V: the YD compatibility fails."""
    doc = hopf_to_spec(build("group_algebra:2"))
    doc["objects"]["V"] = {"labels": ["v0", "v1"], "degrees": [[], []]}
    doc["yd_modules"] = [{
        "name": "swap",
        "carrier": "V",
        "action": [["1", "0", "0", "1"], ["0", "1", "1", "0"]],
        "coaction": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]],
    }]
    return doc


def test_yd_modules_from_spec_file(tmp_path):
    doc = yd_module_spec()
    spec = tmp_path / "yd.json"
    spec.write_text(canonical_json(doc))
    code, payload = run_cli(["yd-check", str(spec)], tmp_path, "r.json")
    assert code == 1
    (mod,) = payload["modules"]
    assert mod["name"] == "swap"
    failed = {c["name"] for c in mod["checks"] if c["status"] == "fail"}
    assert "yd_compat" in failed


def test_an_empty_yd_modules_list_checks_no_module(tmp_path):
    # an optional key takes its default, yd-check's sample modules, only
    # when it is absent or null
    doc = hopf_to_spec(build("taft:2"))
    doc["yd_modules"] = []
    spec = tmp_path / "no-yd.json"
    spec.write_text(canonical_json(doc))
    code, payload = run_cli(["yd-check", str(spec)], tmp_path, "r.json")
    assert code == 0
    assert payload["modules"] == []
    doc["yd_modules"] = None
    spec.write_text(canonical_json(doc))
    code, payload = run_cli(["yd-check", str(spec)], tmp_path, "r.json")
    assert len(payload["modules"]) == 3


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


@pytest.mark.parametrize("threads", ["1_0", " 2", "2 ", "+3", "\u0663", "02",
                                     "-1"])
def test_threads_must_be_canonical_decimal(threads, monkeypatch, capsys):
    # int() read all but the last as a positive count, so BHL_THREADS had
    # many spellings; it is read as builtin parameters and probes are
    monkeypatch.setenv("BHL_THREADS", threads)
    assert main(["check-hopf", "--builtin", "group_algebra:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: BHL_THREADS must be a positive integer, "
                            "got %r\n" % threads)


def _engine_error_codes():
    """The code of every EngineError subclass that a bhl module defines."""
    for info in pkgutil.iter_modules(bhl.__path__):
        if info.name != "__main__":  # it runs the CLI when imported
            importlib.import_module("bhl." + info.name)
    codes, todo = set(), [EngineError]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.split(".")[0] == "bhl":
                codes.add(sub.code)
    return codes


def test_readme_lists_every_error_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    listed = re.search(r"machine-readable codes\s*\(([^)]*)\)", readme)
    assert listed, "README.md lists no machine-readable codes"
    codes = re.findall(r"`(\w+)`", listed.group(1))
    assert len(codes) == len(set(codes)), codes
    assert set(codes) == _engine_error_codes()


def test_bad_probe_rejected(capsys):
    assert main(["verify-reconstruction", "--builtin", "exterior_line",
                 "--probes", "1:2"]) == 2
    assert "probe" in capsys.readouterr().err


def test_probes_enter_the_inputs_and_the_digest(tmp_path):
    """--probes changes the diagram, so the report records the probe
    degrees, reduced in the group (4 is 1 in Z/3), and for a builtin they
    enter the digest."""
    reports = {}
    for probes in (None, "1", "4"):
        extra = [] if probes is None else ["--probes", probes]
        out = tmp_path / ("r%s.json" % probes)
        assert main(["verify-reconstruction", "--builtin", "nichols_cyclic:3",
                     "--out", str(out)] + extra) == 0
        reports[probes] = out.read_bytes()
    plain, probed = (json.loads(reports[k]) for k in (None, "1"))
    assert plain["inputs"] == {"builtin": "nichols_cyclic:3"}
    assert probed["inputs"] == {"builtin": "nichols_cyclic:3",
                                "probes": [[1]]}
    assert probed["digest"] != plain["digest"]
    assert probed["dimensions"]["blocks"] > plain["dimensions"]["blocks"]
    assert reports["1"] == reports["4"]


@pytest.mark.parametrize("probes", [
    "1_0", " +1", "+1", "01", "-0", "1 ", "\u0661", "1,,2", "", "-", "1:",
    pytest.param("1" * 5000, id="past_the_int_digit_limit")])
def test_probe_coordinates_must_be_canonical_decimal(probes, capsys):
    assert main(["verify-reconstruction", "--builtin", "nichols_cyclic:3",
                 "--probes=" + probes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad probe"), lines


def test_negative_probe_coordinates_are_read():
    assert main(["verify-reconstruction", "--builtin", "nichols_cyclic:3",
                 "--probes=-1,2"]) == 0


def test_a_spec_files_digest_covers_its_probes(tmp_path):
    """Without --probes a spec file's digest is the file's sha256 (which
    perfbench and test_golden check); with them it covers the probe
    degrees that the report's inputs record, as a builtin's digest does."""
    spec = tmp_path / "ref.json"
    spec.write_text(canonical_json({"hopf": {"builtin": "nichols_cyclic:3"}}))
    digests = {}
    for probes in (None, "1", "4", "2"):
        extra = [] if probes is None else ["--probes", probes]
        out = tmp_path / ("r%s.json" % probes)
        assert main(["verify-reconstruction", str(spec), "--out", str(out)]
                    + extra) == 0
        digests[probes] = json.loads(out.read_text())["digest"]
    assert digests[None] == hashlib.sha256(spec.read_bytes()).hexdigest()
    assert digests["1"] == digests["4"]  # one degree of Z/3
    assert len({digests[None], digests["1"], digests["2"]}) == 3


def parser_error(argv, capsys):
    """The exit code and stderr lines of main on a command line that
    argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command", ["check-hopf", "antipode", "yd-check",
                                     "bosonize"])
def test_probes_is_a_usage_error_where_it_is_not_read(command, capsys):
    code, lines = parser_error([command, "--builtin", "sweedler",
                                "--probes", "1"], capsys)
    assert code == 2
    assert lines[-1] == "bhl: error: %s does not take --probes" % command


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for command in HANDLERS:
        assert any(line.split()[:1] == [command] for line in lines), command


@pytest.mark.parametrize("argv", [[], ["nope", "--builtin", "sweedler"],
                                  ["--builtin", "sweedler"]])
def test_unknown_or_missing_command_is_a_usage_error(argv, capsys):
    code, lines = parser_error(argv, capsys)
    assert code == 2
    assert len(lines) == 2 and lines[0].startswith("usage: bhl "), lines
    assert lines[1].startswith("bhl: error: argument COMMAND: invalid choice"
                               if argv[:1] == ["nope"] else
                               "bhl: error: the following arguments are "
                               "required: COMMAND"), lines


@pytest.mark.parametrize("order", [
    ["--out", "--probes", "COMMAND", "INPUT"],
    ["--probes", "COMMAND", "--out", "INPUT"],
    ["COMMAND", "--out", "--probes", "INPUT"],
    ["--probes", "--out", "COMMAND", "INPUT"],
])
@pytest.mark.parametrize("use_spec", [True, False])
def test_options_parse_the_same_before_and_after_the_command(order, use_spec,
                                                             tmp_path):
    spec = tmp_path / "ref.json"
    spec.write_text(canonical_json({"hopf": {"builtin": "exterior_line"}}))
    words = {"COMMAND": ["verify-reconstruction"], "--probes": ["--probes", "1"],
             "INPUT": [str(spec)] if use_spec
             else ["--builtin", "exterior_line"]}
    reports = []
    for k, layout in enumerate((["COMMAND", "INPUT", "--probes", "--out"],
                                order)):
        words["--out"] = ["--out", str(tmp_path / ("r%d.json" % k))]
        assert main([w for word in layout for w in words[word]]) == 0
        reports.append((tmp_path / ("r%d.json" % k)).read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["dimensions"]["blocks"] > 0


# (spec entry to replace in the exterior_line spec, bad value)
BAD_SPEC_ENTRIES = {
    "entry_divides_by_zero": (("hopf", "m", 0, 0), "1/0"),
    "cyclotomic_order_zero": (("field", "cyclotomic_order"), 0),
    "cyclotomic_order_fractional": (("field", "cyclotomic_order"), 2.5),
    "cyclotomic_order_text": (("field", "cyclotomic_order"), "x"),
    "invariant_factor_zero": (("group", "invariant_factors", 0), 0),
    "degree_fractional": (("objects", "H", "degrees", 1, 0), 0.5),
    # each of these was read through int() as 1 (or as 10^300)
    "exponent_fractional": (("bicharacter", "exponent_matrix", 0, 0), 1.5),
    "exponent_boolean": (("bicharacter", "exponent_matrix", 0, 0), True),
    "exponent_text": (("bicharacter", "exponent_matrix", 0, 0), "1"),
    "exponent_float_huge": (("bicharacter", "exponent_matrix", 0, 0), 1e300),
    # 10^5000 and 25 * 10^4399 are over Python's 4300-digit limit for ints
    "entry_exponent_over_digit_limit": (("hopf", "m", 0, 0), "1e5000"),
    "entry_decimal_exponent_over_digit_limit": (("hopf", "m", 0, 0),
                                                "2.5e4400"),
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


def optional_entry_spec(key, value):
    """A one-dimensional spec with `key` set to value: group keys on an
    explicit datum, the others on a builtin reference."""
    if key in ("group", "invariant_factors"):
        doc = hopf_to_spec(build("group_algebra:1"))
        holder = doc["group"] if key == "invariant_factors" else doc
    else:
        doc = holder = {"hopf": {"builtin": "group_algebra:1"}}
    holder[key] = value
    return doc


# each optional key with the JSON type it takes
OPTIONAL_ENTRIES = {"group": dict, "invariant_factors": list,
                    "objects": dict, "yd_modules": list}


FALSY_ENTRIES = [(key, value) for key, kind in sorted(OPTIONAL_ENTRIES.items())
                 for value in ([], {}, 0, "", False)
                 if not isinstance(value, kind)]


@pytest.mark.parametrize("key, value", FALSY_ENTRIES, ids=[
    "%s=%s" % (key, json.dumps(value)) for key, value in FALSY_ENTRIES])
def test_falsy_optional_entry_of_the_wrong_type_exits_2(key, value, tmp_path,
                                                         capsys):
    spec = tmp_path / "falsy.json"
    spec.write_text(json.dumps(optional_entry_spec(key, value)))
    assert main(["yd-check", str(spec)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("key", sorted(OPTIONAL_ENTRIES))
def test_null_optional_entry_reads_as_absent(key, tmp_path):
    spec = tmp_path / "null.json"
    spec.write_text(json.dumps(optional_entry_spec(key, None)))
    assert run_cli(["yd-check", str(spec)], tmp_path, "r.json")[0] == 0


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


# raw spec-file bytes that are no JSON document main can read
UNREADABLE_SPECS = {
    "not_utf8": (b"\xff\xfe{}", "spec file is not UTF-8"),
    "int_over_digit_limit": (b'{"hopf": ' + b"1" * 5000 + b"}",
                             "Exceeds the limit"),
    "nested_past_recursion_limit": (b"[" * 100000 + b"]" * 100000,
                                    "maximum recursion depth"),
}


@pytest.mark.parametrize("bad", sorted(UNREADABLE_SPECS))
def test_unreadable_spec_file_is_usage_error(bad, tmp_path, capsys):
    raw, reason = UNREADABLE_SPECS[bad]
    spec = tmp_path / "bad.json"
    spec.write_bytes(raw)
    assert main(["check-hopf", str(spec)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert reason in err


@pytest.mark.parametrize("name", [
    "taft:02", "taft:0_2", "taft: 2", "taft:2 ", "taft:+2", "taft:", "taft",
    "taft:\u00b2", "nichols_cyclic:03", "group_algebra:+2",
    "group_algebra:2,03", "group_algebra:2, 3", "group_algebra:2,",
    pytest.param("taft:" + "1" * 5000, id="past_the_int_digit_limit")])
def test_builtin_parameter_must_be_canonical_decimal(name, tmp_path, capsys):
    # int() read most of these as the canonical spelling, so taft:02 ran
    # taft:2 under another report digest; each entry now has one name
    spec = tmp_path / "ref.json"
    spec.write_text(canonical_json({"hopf": {"builtin": name}}))
    for args in (["--builtin", name], [str(spec)]):
        assert main(["check-hopf"] + args) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "is not a canonical decimal integer" in err, err


@pytest.mark.parametrize("name", ["sweedler:3", "sweedler:", "exterior_line:x"])
def test_builtin_without_parameters_refuses_an_argument(name, tmp_path, capsys):
    # as an unknown builtin is, by --builtin and by a spec's reference
    spec = tmp_path / "ref.json"
    spec.write_text(canonical_json({"hopf": {"builtin": name}}))
    for args in (["--builtin", name], [str(spec)]):
        assert main(["check-hopf"] + args) == 2
        err = capsys.readouterr().err
        assert err == "error: builtin %r takes no argument, got %r\n" % (
            name.partition(":")[0], name), err


def test_builtin_reference_to_unknown_name_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "ref.json"
    spec.write_text(canonical_json({"hopf": {"builtin": "nope"}}))
    assert main(["check-hopf", str(spec)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "unknown builtin" in err, err


# every structure map of a spec, one entry at a time: whatever the entry,
# main ends with exit 0, 1 or 2, never with an exception, and a datum that
# fails its Hopf check ends in error[NotHopf] on every entry-checked command
MUTATED_SPECS = ("exterior_line", "sweedler")
MUTATED_MAPS = ("m", "u", "delta", "eps", "S")
LITERALS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "-1/3", "z", "z^3", "1/0", "x",
                     "", "1e400"]),
    st.integers(-3, 3))
# 0xff starts no UTF-8 sequence
RAW_BYTES = st.one_of(st.just(b"\xff"), st.binary(min_size=1, max_size=1))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_spec_entry_never_escapes_main(data):
    doc = hopf_to_spec(build(data.draw(st.sampled_from(MUTATED_SPECS))))
    block = doc["hopf"]
    drop_antipode = data.draw(st.booleans())
    if drop_antipode:  # the commands that need S solve for it
        del block["S"]
    mat = block[data.draw(st.sampled_from(
        MUTATED_MAPS[:-1] if drop_antipode else MUTATED_MAPS))]
    row = mat[data.draw(st.integers(0, len(mat) - 1))]
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(LITERALS)
    raw = json.dumps(doc).encode()
    if data.draw(st.booleans()):  # and one raw byte, maybe no UTF-8
        k = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:k] + data.draw(RAW_BYTES) + raw[k + 1:]
    not_hopf = fails_the_entry_check(raw)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "mutated.json"
        spec.write_bytes(raw)
        for command in HANDLERS:
            code, lines = assert_exits_cleanly(command, spec)
            if not_hopf and command in ENTRY_CHECKED:
                assert code == 1 and lines[0].startswith("error[NotHopf]: "), (
                    command, lines)


def fails_the_entry_check(raw):
    """Whether the spec bytes' datum parses and fails check_hopf, or,
    without S, check_bialgebra."""
    try:
        datum, _ = datum_from_spec(json.loads(raw.decode("utf-8")))
    except (SchemaError, ValueError, EngineError):
        return False
    if isinstance(datum, HopfAlgebraData):
        return not check_hopf(datum).passed
    return not check_bialgebra(datum).passed


def assert_exits_cleanly(command, spec):
    """main on the spec ends with exit 0 or 1 and a report or a structured
    error, or with exit 2 and a one-line usage error: never an exception.
    Returns the exit code and the stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, str(spec)])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (command, code)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert out.getvalue() == ""
        return code, lines
    payload = json.loads(out.getvalue())
    if lines[0].startswith("error["):
        assert code == 1 and len(lines) == 1
        error = payload["error"]
        assert payload == {"command": command, "status": "error",
                           "error": error}
        assert lines[0] == "error[%s]: %s" % (error["code"], error["message"])
    else:
        assert payload["status"] == ("pass" if code == 0 else "fail")
    return code, lines


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_mutated_yd_module_entry_never_escapes_main(data):
    doc = yd_module_spec()
    mat = doc["yd_modules"][0][data.draw(st.sampled_from(["action",
                                                          "coaction"]))]
    row = mat[data.draw(st.integers(0, len(mat) - 1))]
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(LITERALS)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "mutated.json"
        spec.write_text(json.dumps(doc))
        assert_exits_cleanly("yd-check", spec)


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


def run_python(code, *args):
    """`python -c code args...` with this process's bhl importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bhl.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", code] + list(args),
                          capture_output=True, text=True, timeout=60, env=env)


def test_importing_the_cli_leaves_fractions_out():
    # scalars are parsed and formatted with ints; fractions (and the
    # decimal module it imports) would add to every command's start-up
    proc = run_python("import sys, bhl.cli; print(sorted(set(sys.modules) & "
                      "{'fractions', 'decimal'}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_command_module():
    # the catalog, coend, comodule and reconstruction modules load only in
    # the commands that use them
    proc = run_python("import sys, bhl.cli; print(sorted(set(sys.modules) & "
                      "{'bhl.catalog', 'bhl.coend', 'bhl.comodcat', "
                      "'bhl.reconstruct'}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["check-hopf", "antipode", "yd-check"])
def test_only_a_builtin_input_loads_the_catalog(command, tmp_path):
    # yd-check's sample modules live beside YDModuleData, so a spec with or
    # without yd_modules loads no catalog; sweedler fails yd-check's samples
    # and the swap module fails its YD compatibility, so those exit 1
    explicit, with_yd = tmp_path / "ga3.json", tmp_path / "yd.json"
    reference = tmp_path / "ref.json"
    explicit.write_text(canonical_json(hopf_to_spec(build("group_algebra:3"))))
    with_yd.write_text(canonical_json(yd_module_spec()))
    reference.write_text(canonical_json({"hopf": {"builtin": "sweedler"}}))
    code = ("import sys, bhl.cli\n"
            "code = bhl.cli.main(sys.argv[1:])\n"
            "print(code, 'bhl.catalog' in sys.modules)")
    out = str(tmp_path / "report.json")
    fails = command == "yd-check"
    for args, loads, exit_code in (
            ([str(explicit)], False, 0), ([str(with_yd)], False, int(fails)),
            ([str(reference)], True, int(fails)),
            (["--builtin", "sweedler"], True, int(fails))):
        proc = run_python(code, command, *args, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "%d %s" % (exit_code, loads), \
            args


def test_python_m_bhl_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bhl.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bhl", "check-hopf", "--builtin", "sweedler"],
        capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["status"] == "pass"


def run_module(flags, args, module="bhl"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bhl.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable] + flags + ["-m", module] + args,
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


def test_optimized_cli_module_writes_the_same_bytes(tmp_path):
    """python -O -m bhl.cli exits with the same code and writes the same
    bytes as python -m bhl.cli, on a passing reconstruction and on the
    broken unit law (the summary's elapsed time aside)."""
    spec = str(broken_unit_law_spec(tmp_path))
    for args, want in ((["verify-reconstruction", "--builtin", "sweedler"], 0),
                       (["verify-reconstruction", spec], 1)):
        plain, optimized = (run_module(flags, args, module="bhl.cli")
                            for flags in ([], ["-O"]))
        assert plain.returncode == optimized.returncode == want, args
        assert plain.stdout == optimized.stdout, args
        assert (re.sub(rb"\(\d+\.\d+s\)", b"", plain.stderr)
                == re.sub(rb"\(\d+\.\d+s\)", b"", optimized.stderr)), args
        assert b"Traceback" not in plain.stderr + optimized.stderr, args


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
# process exit
# ---------------------------------------------------------------------------

def exit_path(case, spec):
    """(argv, exit code) of one way a command ends; it may write `spec`."""
    if case == "pass":
        return ["check-hopf", "--builtin", "sweedler"], 0
    if case == "fail":
        return ["yd-check", "--builtin", "sweedler"], 1
    if case == "not_hopf":  # m(1 (x) g) = 2g
        doc = hopf_to_spec(build("sweedler"))
        doc["hopf"]["m"][1][1] = "2"
        spec.write_text(canonical_json(doc))
        return ["yd-check", str(spec)], 1
    spec.write_text('{"hopf": 3}')  # a usage error
    return ["check-hopf", str(spec)], 2


def without_elapsed(text):
    return re.sub(rb"\(\d+\.\d+s\)", b"(s)", text)


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("case", ["pass", "fail", "not_hopf", "bad_spec"])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("module", ["bhl", "bhl.cli"])
def test_a_command_process_ends_as_main_returns(module, flags, case, out,
                                                tmp_path, capsys):
    """python -m bhl[.cli] ends by os._exit once its output is flushed:
    its exit code, stdout, stderr and report equal those of main() run
    in-process, on a pass, a failed check, NotHopf and a usage error."""
    args, want = exit_path(case, tmp_path / "spec.json")
    reports = [tmp_path / "in-process.json", tmp_path / "child.json"]
    assert main(args + ["--out", str(reports[0])] if out else args) == want
    captured = capsys.readouterr()
    assert ("error[NotHopf]: " in captured.err) == (case == "not_hopf")
    proc = run_module(flags, args + ["--out", str(reports[1])] if out
                      else args, module=module)
    assert proc.returncode == want, proc.stderr.decode()
    assert (without_elapsed(proc.stdout)
            == without_elapsed(captured.out.encode()))
    assert (without_elapsed(proc.stderr).splitlines()
            == without_elapsed(captured.err.encode()).splitlines())
    assert [r.read_bytes() if r.exists() else None for r in reports] == (
        [reports[0].read_bytes()] * 2 if want < 2 and out else [None, None])


def test_exit_after_flush_ends_by_os_exit(monkeypatch):
    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    exit_after_flush(1)  # os._exit itself never returns
    assert exits == [1]


def test_exit_after_flush_falls_back_to_sys_exit(monkeypatch):
    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exc:
        exit_after_flush(2)
    assert exc.value.code == 2 and exits == []


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
