"""Each derived comodule and each hom space is built once per run: the
diagram memoizes its blocks and hom bases, and callers find blocks by index
instead of rebuilding them."""

from collections import Counter

import pytest

import bhl.cli
import bhl.coend
import bhl.comodcat
import bhl.reconstruct
from bhl.catalog import build
from bhl.reconstruct import reconstruct

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
