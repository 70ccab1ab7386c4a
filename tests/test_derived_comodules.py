"""The comodules that the engine builds by theorem, without a check: every
block of the reconstruction diagram, the three enlargements of `stability`
and the comodules over the reconstructed quotient all pass the comodule
axioms, stated by Kronecker products (`oracles.check_comodule_by_kron`),
for every builtin and for the benchmark's seed-0 nichols_cyclic:5 spec."""

import json

import pytest

from bhl.catalog import BUILTIN_NAMES, build
from bhl.cli import datum_from_spec, ensure_hopf
from bhl.coend import default_diagram, reconstruction_diagram
from bhl.comodcat import (act, comodule_dual, direct_sum_comodule,
                          unit_comodule)
from bhl.gradedcat import line_object
from bhl.reconstruct import reconstruct
from oracles import (check_comodule_by_kron, comodule_over_quotient,
                     perfbench_module)

CYCLO5 = "nichols_cyclic:5 seed 0"


def hopf(name):
    if name == CYCLO5:
        spec = perfbench_module("gen").generate("nichols_cyclic:5", 0, False)
        return ensure_hopf(datum_from_spec(json.loads(spec))[0])
    return build(name)


def assert_comodules(comodules):
    for B in comodules:
        report = check_comodule_by_kron(B)
        assert report.passed, (B, report.failures())


@pytest.mark.parametrize("name", BUILTIN_NAMES + [CYCLO5])
def test_reconstruction_blocks_are_comodules(name):
    assert_comodules(reconstruction_diagram(hopf(name)).blocks)


@pytest.mark.parametrize("name", BUILTIN_NAMES + [CYCLO5])
def test_stability_enlargements_are_comodules(name):
    H = hopf(name)
    ctx = H.carrier.ctx
    base = default_diagram(H)
    reg, one = base.regular, base.index(base.derived(unit_comodule))
    assert_comodules([
        base.derived(act, reg, line_object(ctx, "s", ctx.group.zero)),
        base.derived(direct_sum_comodule, reg, one),
        base.derived(comodule_dual, reg)])


@pytest.mark.parametrize("name", BUILTIN_NAMES + [CYCLO5])
def test_quotient_comodules_are_comodules(name):
    H = hopf(name)
    r = reconstruct(H, diagram=reconstruction_diagram(H))
    assert r.passed
    small = [B for B in r.coend.diagram.blocks
             if B.carrier.dim <= H.carrier.dim]
    assert small
    assert_comodules([comodule_over_quotient(r.coend, r.quotient_hopf, B)
                      for B in small])
