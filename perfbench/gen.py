"""Seeded input generator: Hopf data transported along a seed-drawn,
degree-preserving invertible change of basis, written as CLI spec files.

A transported datum is isomorphic to the one it came from, so every verdict,
dimension and check name of a report on it is the same for every seed, while
the structure constants differ from seed to seed.  Two kinds of map:

* diagonal, with entries +-1: the sparsity pattern and the height of every
  structure constant are kept, so the engine's cost barely depends on the
  seed (non-unit diagonal factors were tried and moved the cost of one
  nichols_cyclic:5 reconstruction between 10.7 s and 16.0 s);
* dense: unitriangular inside each degree block with every entry above the
  diagonal +-1, so the transported structure maps fill in.

Every generated datum is checked exactly with ``check_hopf`` before use, and
the same (base, seed, kind) always gives byte-identical spec-file bytes.
"""

import random

from bhl.braidedhopf import HopfAlgebraData, check_hopf
from bhl.catalog import build
from bhl.cli import canonical_json, hopf_to_spec
from bhl.exactalg import CycloField, Matrix
from bhl.gradedcat import (Context, GradedMorphism, GradedObject, tensor_obj,
                           unit_object)


def group_algebra(n):
    """The group Hopf algebra of Z/n over Q, trivially graded.

    Built here rather than with ``catalog.build`` because the catalog checks
    the axioms of its entries itself, and the transported datum is checked
    anyway; for Z/6 that second check would double the set-up time.
    """
    ctx = Context.trivial(CycloField(1))
    H = GradedObject(ctx, [("g%d" % i, ()) for i in range(n)])
    one = ctx.field.one
    unit = unit_object(ctx)
    return HopfAlgebraData(
        H,
        GradedMorphism.from_dict(tensor_obj(H, H), H,
                                 {((i + j) % n, i * n + j): one
                                  for i in range(n) for j in range(n)}),
        GradedMorphism.from_dict(unit, H, {(0, 0): one}),
        GradedMorphism.from_dict(H, tensor_obj(H, H),
                                 {(i * n + i, i): one for i in range(n)}),
        GradedMorphism.from_dict(H, unit, {(0, i): one for i in range(n)}),
        GradedMorphism.from_dict(H, H, {((-i) % n, i): one for i in range(n)}))


def base_datum(name):
    """A catalog name, or ``group_algebra:N`` built without the catalog."""
    base, _, arg = name.partition(":")
    if base == "group_algebra":
        return group_algebra(int(arg))
    return build(name)


def change_of_basis(V, rng, dense):
    """An invertible degree-preserving map V -> V (see the module doc)."""
    field = V.ctx.field
    n = V.dim

    def sign():
        return field.scalar(rng.choice((1, -1)))
    grid = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = field.one if dense else sign()
        if dense:
            for j in range(i + 1, n):
                if V.degree(i) == V.degree(j):
                    grid[i][j] = sign()
    return GradedMorphism(V, V, Matrix(field, grid))


def transport(H, t):
    """The Hopf datum that makes t: H -> H' an isomorphism of Hopf algebras."""
    ti = t.inverse()
    return HopfAlgebraData(H.carrier, t * H.m * (ti @ ti), t * H.u,
                           (t @ t) * H.delta * ti, H.eps * ti, t * H.S * ti)


def generate(base, seed, dense):
    """Spec-file bytes of `base` transported along a map drawn from `seed`.

    Raises RuntimeError if the transported datum fails an exact Hopf check.
    """
    H = base_datum(base)
    rng = random.Random("%s|%d|%s" % (base, seed, "dense" if dense else "diag"))
    H2 = transport(H, change_of_basis(H.carrier, rng, dense))
    report = check_hopf(H2)
    if not report.passed:
        raise RuntimeError("datum generated from %s fails %s"
                           % (base, ", ".join(report.failures())))
    return canonical_json(hopf_to_spec(H2)).encode("utf-8")
