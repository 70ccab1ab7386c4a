"""Each derived comodule and each hom space is built once per run: the
diagram memoizes its blocks and hom bases, and callers find blocks by index
instead of rebuilding them.  Each relation of a base diagram is reduced
once, however many enlargements of it are computed, and the enlargements
resume from the base's reduced rows on the cofree blocks instead of
re-adding them.  A coend keeps its projection and free coordinates, and
no copy derived from them; the structure maps read off it form no
Kronecker product of two projections, and `stability` reports its flags
by lemma, with no comparison matrix.  After the coend, `reconstruct`
eliminates, inverts and ranks nothing: the comparison is the certificate's
P_F^-1 and the equivalence samples hold by transport along it.  Each Hopf
input is checked once, at the CLI's entry check or by `check-hopf` itself,
and never again by the catalog; the reconstructed quotient is proved Hopf
by transport, not checked again."""

import re
import sys
import tracemalloc
from collections import Counter

import pytest

import bhl.braidedhopf
import bhl.cli
import bhl.coend
import bhl.comodcat
import bhl.reconstruct
from bhl.catalog import build
from bhl.cli import canonical_json, hopf_to_spec
from bhl.coend import compute_coend, default_diagram, reconstruction_diagram
from bhl.exactalg import Matrix, SparseEliminator
from bhl.reconstruct import (extract_antipode, extract_coproduct,
                             extract_counit, extract_product, reconstruct,
                             regular_section)
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
    calls.clear()  # count the reconstruction alone
    assert reconstruct(H).passed
    assert_no_repeats(calls)


def test_stability_builds_each_block_once(calls, tmp_path):
    out = tmp_path / "stability.json"
    assert bhl.cli.main(["stability", "--builtin", "exterior_line",
                         "--out", str(out)]) == 0
    assert_no_repeats(calls)


def test_stability_streams_each_base_relation_once(monkeypatch, tmp_path):
    """During `stability`, no relation column of the base diagram reaches an
    eliminator twice."""
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
        seen = Counter()
        for name, col in relation_columns(*args, **kwargs):
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


def count_cofree_adds(monkeypatch, tmp_path, command):
    """The relation columns that `command`, on the benchmark's seed-0
    nichols_cyclic:5 spec, feeds the certificate's eliminator on the
    cofree blocks: one count per coend that streams any."""
    spec = tmp_path / "cyclo5-diag.json"
    spec.write_bytes(perfbench_module("gen").generate("nichols_cyclic:5", 0,
                                                      False))
    adds = []
    relation_columns = bhl.coend._relation_columns

    def counting(*args, **kwargs):
        adds.append(0)
        for item in relation_columns(*args, **kwargs):
            adds[-1] += 1
            yield item

    monkeypatch.setattr(bhl.coend, "_relation_columns", counting)
    out = tmp_path / "report.json"
    assert bhl.cli.main([command, str(spec), "--out", str(out)]) == 0
    return adds


def test_stability_resumes_the_base_cofree_rows(monkeypatch, tmp_path):
    """On the benchmark's seed-0 nichols_cyclic:5 spec the base coend
    streams 273 columns on its cofree blocks.  The action-line enlargement
    adds one cofree block and streams only its 25 new columns; the
    direct-sum and dual enlargements add no cofree block and stream
    nothing.  Certifying each enlargement from scratch would stream 298,
    273 and 273 more."""
    assert count_cofree_adds(monkeypatch, tmp_path, "stability") == [273, 25]


def test_reconstruction_stops_the_cofree_stream_at_the_bound(monkeypatch,
                                                             tmp_path):
    """The seed-0 nichols_cyclic:5 spec's reconstruction diagram has 640
    relation columns on its cofree blocks (|T| = 150, n = 5); the stream
    stops after 273 of them, when their rank reaches |T| - n = 145."""
    assert count_cofree_adds(monkeypatch, tmp_path,
                             "verify-reconstruction") == [273]


def test_stability_reports_its_flags_without_a_matrix_product(monkeypatch,
                                                               tmp_path):
    """During `stability --builtin taft:3`, `check_stability` transposes,
    multiplies and ranks no matrix: its flags hold by the lemma that both
    coends are P_F^-1 P of one candidate, so no comparison kappa is
    formed."""
    inside, started = [], []
    check_stability = bhl.coend.check_stability

    def marked(small, big):
        inside.append(True)
        try:
            return check_stability(small, big)
        finally:
            inside.pop()

    def recording(name):
        fn = getattr(Matrix, name)

        def wrapper(*args, **kwargs):
            if inside:
                started.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bhl.coend, "check_stability", marked)
    for name in ("transpose", "__mul__", "rank"):
        monkeypatch.setattr(Matrix, name, recording(name))
    out = tmp_path / "stability.json"
    assert bhl.cli.main(["stability", "--builtin", "taft:3",
                         "--out", str(out)]) == 0
    assert started == []


def test_reconstruct_solves_nothing_after_the_coend(monkeypatch):
    """During `reconstruct` of taft:3, no eliminator add, matrix rank or
    matrix inverse starts once `compute_coend` has returned: the comparison
    and its section are the certificate's P_F^-1 and P_F, and the
    equivalence samples solve no hom space."""
    H = build("taft:3")
    done, started = [], []
    compute = bhl.reconstruct.compute_coend

    def marked(diagram):
        res = compute(diagram)
        done.append(True)
        return res

    def recording(cls, name):
        fn = getattr(cls, name)

        def wrapper(*args, **kwargs):
            if done:
                started.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bhl.reconstruct, "compute_coend", marked)
    for cls, name in ((SparseEliminator, "add"), (Matrix, "rank"),
                      (Matrix, "inverse")):
        monkeypatch.setattr(cls, name, recording(cls, name))
    assert reconstruct(H).passed
    assert done and started == []


def test_coend_retains_little_beyond_its_projection():
    """The coend of taft:3's reconstruction diagram (N = 6,805 ambient
    coordinates) keeps its projection and free coordinates: no relation
    matrix rebuilt from them, and no labelled F(B) (x) *F(B) per block."""
    D = reconstruction_diagram(build("taft:3"))
    tracemalloc.start()
    try:
        res = compute_coend(D)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.dim == 9
    assert retained < 1e6, retained


def test_structure_maps_peak_small():
    """taft:4's four structure maps (n = 16), read through one section of
    the regular block's projection once the coend is computed, peak below
    8 MiB: no pi_reg (x) pi_reg, with its n^4 columns, and no transpose of
    pi_{reg(x)reg}.  Read off every block pair's constraints, they peaked
    at 10.6 MiB."""
    res = compute_coend(reconstruction_diagram(build("taft:4")))
    tracemalloc.start()
    try:
        E = regular_section(res)
        for extract in (extract_counit, extract_coproduct, extract_product,
                        extract_antipode):
            extract(res, E)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, peak


def count_calls(name, args, monkeypatch, tmp_path):
    """How often the CLI, run on `args`, calls braidedhopf's `name`,
    through whichever bhl modules hold it."""
    fn, calls = getattr(bhl.braidedhopf, name), []

    def counting(H):
        calls.append(H)
        return fn(H)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "bhl" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counting)
    assert bhl.cli.main(args + ["--out", str(tmp_path / "r.json")]) == 0
    return len(calls)


@pytest.mark.parametrize("args, checks", [
    (["check-hopf", "--builtin", "taft:4"], 1),
    (["antipode", "--builtin", "sweedler"], 0),
    # the entry check; the quotient is Hopf by transport along the
    # comparison, which is a Hopf morphism
    (["verify-reconstruction", "--builtin", "taft:3"], 1),
    (["reconstruct", "--builtin", "taft:3"], 1),
    (["stability", "--builtin", "taft:3"], 1),
])
def test_each_hopf_datum_is_checked_once(args, checks, monkeypatch, tmp_path):
    """`check_hopf` runs once per Hopf datum a command must prove: the
    catalog checks none of its entries (taft:4 is built from
    nichols_cyclic:4), no command checks its input twice, and the
    reconstructed quotient is not checked again."""
    assert count_calls("check_hopf", args, monkeypatch, tmp_path) == checks


def test_an_antipode_given_is_never_solved_for(monkeypatch, tmp_path):
    """A spec file giving taft:3 with its antipode: the entry check proves
    S, and the reconstruction reads the quotient's S off the dual block,
    so no convolution inverse is solved."""
    spec = tmp_path / "taft3.json"
    spec.write_text(canonical_json(hopf_to_spec(build("taft:3"))))
    assert count_calls("solve_antipode",
                       ["verify-reconstruction", str(spec)],
                       monkeypatch, tmp_path) == 0
