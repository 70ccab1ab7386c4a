"""Each derived comodule and each hom space is built once per run: the
diagram memoizes its blocks and hom bases, and callers find blocks by index
instead of rebuilding them.  Each relation of a base diagram is reduced
once, however many enlargements of it are computed, and the enlargements
resume from the base's rows mod p instead of re-adding them."""

import re
import sys
from collections import Counter

import pytest

import bhl.cli
import bhl.coend
import bhl.comodcat
import bhl.reconstruct
from bhl.catalog import build
from bhl.coend import default_diagram
from bhl.exactalg import _ModpEliminator
from bhl.reconstruct import reconstruct
from oracles import perfbench_module

CONSTRUCTORS = ("regular_comodule", "unit_comodule", "comodule_tensor",
                "comodule_dual", "act")
HOLDERS = (bhl.comodcat, bhl.coend, bhl.reconstruct, bhl.cli)


@pytest.fixture
def calls(monkeypatch):
    """Counter of (function name, argument values) over the constructors
    and hom_space, patched into every module that imports them."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[(name, args)] += 1
            return fn(*args)
        return wrapper

    for name in CONSTRUCTORS + ("hom_space",):
        fn = getattr(bhl.comodcat, name)
        wrapper = counting(name, fn)
        for mod in HOLDERS:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def assert_no_repeats(counts):
    assert {name for name, _ in counts} == set(CONSTRUCTORS) | {"hom_space"}
    repeated = sorted((name, n) for (name, _), n in counts.items() if n > 1)
    assert not repeated


def test_reconstruct_builds_each_block_once(calls):
    H = build("taft:2")
    calls.clear()  # the catalog's own checks are not under test
    assert reconstruct(H).passed
    assert_no_repeats(calls)


def test_stability_builds_each_block_once(calls, tmp_path):
    out = tmp_path / "stability.json"
    assert bhl.cli.main(["stability", "--builtin", "exterior_line",
                         "--out", str(out)]) == 0
    assert_no_repeats(calls)


def test_stability_streams_each_base_relation_once(monkeypatch, tmp_path):
    """During `stability`, no relation column of the base diagram reaches an
    eliminator twice.  Re-streaming for the residual check is not counted:
    it feeds no eliminator."""
    base = default_diagram(build("exterior_line"))
    n_blocks, n_balance = len(base.blocks), len(base.balance)

    def of_base(name):
        ids = [int(x) for x in re.findall(r"\d+", name)]
        return all(i < (n_blocks if name.startswith("dinaturality")
                        else n_balance) for i in ids)

    fed = Counter()  # (family name, position in family) -> times streamed
    families = set()
    relation_columns = bhl.coend._relation_columns

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "residual_report":
            return relation_columns(*args, **kwargs)
        return recorded(relation_columns(*args, **kwargs))

    def recorded(columns):
        seen = Counter()
        for name, col in columns:
            families.add(name)
            if of_base(name):
                fed[(name, seen[name])] += 1
            seen[name] += 1
            yield name, col

    monkeypatch.setattr(bhl.coend, "_relation_columns", counting)
    out = tmp_path / "stability.json"
    assert bhl.cli.main(["stability", "--builtin", "exterior_line",
                         "--out", str(out)]) == 0
    assert fed and not all(of_base(name) for name in families)
    assert max(fed.values()) == 1


def count_modp_adds(monkeypatch, tmp_path, command):
    """The primes of the mod-p adds that `command` makes on the benchmark's
    seed-0 nichols_cyclic:5 spec."""
    spec = tmp_path / "cyclo5-diag.json"
    spec.write_bytes(perfbench_module("gen").generate("nichols_cyclic:5", 0,
                                                      False))
    adds = []
    add = _ModpEliminator.add

    def counting(self, vec):
        adds.append(self.p)
        return add(self, vec)

    monkeypatch.setattr(_ModpEliminator, "add", counting)
    out = tmp_path / "report.json"
    assert bhl.cli.main([command, str(spec), "--out", str(out)]) == 0
    return adds


def test_stability_resumes_the_base_rows_mod_p(monkeypatch, tmp_path):
    """On the benchmark's seed-0 nichols_cyclic:5 spec, the base coend makes
    its mod-p adds once; the three enlargements add only their own new
    columns.  Re-adding the base's 775 reduced relation rows in each of
    the three enlargements would make 5,230; streaming the columns in
    `_hom_pairs` order alone, without the counit columns first, 2,905."""
    adds = count_modp_adds(monkeypatch, tmp_path, "stability")
    assert len(adds) == 929
    assert len(set(adds)) == 1


def test_reconstruction_streams_the_counit_columns_first(monkeypatch,
                                                         tmp_path):
    """The counit columns of the maps into cofree blocks are nearly
    triangular, so the rank bound on the seed-0 nichols_cyclic:5 spec (800
    of whose adds raise the rank) takes 884 mod-p adds; in `_hom_pairs`
    order alone it took 2,882."""
    adds = count_modp_adds(monkeypatch, tmp_path, "verify-reconstruction")
    assert len(adds) == 884
    assert len(set(adds)) == 1
