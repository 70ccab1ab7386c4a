"""Coend quotients: dimensions, grading, surjectivity, stability."""

from itertools import islice

import pytest

import bhl.coend
import bhl.comodcat
from bhl.catalog import BUILTIN_NAMES, build, exterior_line, group_algebra, sweedler
from bhl.braidedhopf import HopfAlgebraData
from bhl.coend import (
    CoendResult, Diagram, PiNotSurjectiveError, check_stability, compute_coend,
    default_diagram, reconstruction_diagram, _block_spaces,
    _candidate, _eliminated,
)
from bhl.comodcat import (
    act, cofree_degree, comodule_dual, comodule_tensor, direct_sum_comodule,
    hom_space, regular_comodule, unit_comodule,
)
from bhl.exactalg import (InvalidStructureError, Matrix, _ModpEliminator,
                          _modp_primes, cokernel_from_rref)
from bhl.gradedcat import (GradedMorphism, GradedObject, identity_mor,
                           left_dual, line_object, tensor_obj, unit_object)
from oracles import (hom_basis_by_elimination, is_comodule_morphism,
                     prebalancing, psi_bar, rational_matrix)


def test_coend_dim_equals_hopf_dim_on_all_builtins():
    for name in BUILTIN_NAMES:
        H = build(name)
        res = compute_coend(default_diagram(H))
        assert res.dim == H.carrier.dim, name
        res.check_regular_surjective()


def test_quotient_degrees_match_hopf_degrees():
    for H in (exterior_line(), build("nichols_cyclic:3"), build("taft:2")):
        res = compute_coend(default_diagram(H))
        got = sorted(res.quotient.degree(i) for i in range(res.dim))
        want = sorted(H.carrier.degree(i) for i in range(H.carrier.dim))
        assert got == want


def test_reconstruction_diagram_adds_dual_block_only():
    H = sweedler()
    base = default_diagram(H)
    rec = reconstruction_diagram(H)
    assert len(rec.blocks) == len(base.blocks) + 1
    assert rec.blocks[:len(base.blocks)] == base.blocks
    assert rec.blocks[-1] == comodule_dual(regular_comodule(H))
    assert compute_coend(rec).dim == H.carrier.dim


def test_diagram_dedup_and_requires_regular():
    H = group_algebra(2)
    reg = regular_comodule(H)
    D = default_diagram(H)
    assert D.enlarged(reg, unit_comodule(H)).blocks == D.blocks
    with pytest.raises(InvalidStructureError):
        Diagram(H, [unit_comodule(H)])


def test_balancing_blocks_present_for_graded_group():
    H = exterior_line()
    D = default_diagram(H)
    # reg, unit, reg(x)reg, action block, and two glued blocks for the
    # single nonzero degree
    assert len(D.blocks) == 6
    assert len(D.balance) == 2


def test_residual_report_passes():
    for H in (group_algebra(3), exterior_line()):
        res = compute_coend(default_diagram(H))
        rep = res.residual_report()
        assert rep.passed, rep.failures()


def test_residual_report_flags_a_broken_presentation():
    # the presentation identities are checked without assert, so broken
    # free coordinates are reported under python -O too
    res = compute_coend(default_diagram(group_algebra(2)))
    pres = res.presentation
    pres.free = pres.free[::-1]
    with pytest.raises(InvalidStructureError):
        pres.verify()
    assert res.residual_report().failures() == ["presentation"]


def test_deterministic_presentation():
    H = exterior_line()
    a = compute_coend(default_diagram(H))
    b = compute_coend(default_diagram(H))
    assert a.presentation.projection == b.presentation.projection
    assert a.presentation.free == b.presentation.free
    assert a.quotient == b.quotient


def test_pi_rejects_unknown_block():
    H = group_algebra(2)
    res = compute_coend(default_diagram(H))
    stranger = act(regular_comodule(H),
                   line_object(H.carrier.ctx, "nowhere", ()))
    with pytest.raises(KeyError):
        res.diagram.index(stranger)


def test_stability_under_enlargements():
    for H in (group_algebra(2), exterior_line()):
        ctx = H.carrier.ctx
        reg = regular_comodule(H)
        base = default_diagram(H)
        small = compute_coend(base)
        enlargements = [
            base.enlarged(act(reg, line_object(ctx, "fresh", ctx.group.zero))),
            base.enlarged(direct_sum_comodule(reg, unit_comodule(H))),
            base.enlarged(comodule_dual(reg)),
        ]
        for D2 in enlargements:
            big = compute_coend(D2)
            rep = check_stability(small, big)
            assert rep.passed, rep.failures()
            assert big.dim == H.carrier.dim


STOCK = list(BUILTIN_NAMES) + ["nichols_cyclic:5"]


def stability_blocks(base):
    """The three enlargement blocks that `bhl stability` checks."""
    ctx = base.hopf.carrier.ctx
    reg, one = base.regular, base.index(base.derived(unit_comodule))
    return [base.derived(act, reg, line_object(ctx, "s", ctx.group.zero)),
            base.derived(direct_sum_comodule, reg, one),
            base.derived(comodule_dual, reg)]


def assert_same_coend(a, b):
    for attr in ("projection", "free", "relation_matrix"):
        assert getattr(a.presentation, attr) == getattr(b.presentation, attr)
    assert a.quotient == b.quotient


def eliminated(diagram):
    return _eliminated(diagram, *_block_spaces(diagram))


@pytest.mark.parametrize("name, probes", [(name, ()) for name in BUILTIN_NAMES]
                         + [("exterior_line", ((1,),))])
def test_resumed_enlargement_equals_from_scratch(name, probes):
    # the certified presentations, of the base and of each enlargement
    # resumed from it, are the ones exact elimination gives
    H = build(name)
    base = default_diagram(H, [H.carrier.ctx.group.element(d)
                               for d in probes])
    small = compute_coend(base)
    assert small.certificate is not None
    assert_same_coend(small, eliminated(base))
    for block in stability_blocks(base):
        big = small.enlarged(block)
        assert big.certificate is not None
        assert_same_coend(big, eliminated(big.diagram))
        assert_same_coend(big, compute_coend(big.diagram))


def test_resumed_enlargement_by_a_known_block_streams_nothing(monkeypatch):
    H = exterior_line()
    base = default_diagram(H)
    small = compute_coend(base)
    streamed = []
    relation_columns = bhl.coend._relation_columns

    def recording(*args, **kwargs):
        for item in relation_columns(*args, **kwargs):
            streamed.append(item)
            yield item

    monkeypatch.setattr(bhl.coend, "_relation_columns", recording)
    same = small.enlarged(base.blocks[base.regular])
    assert streamed == []
    assert same.diagram.blocks == base.blocks
    assert_same_coend(same, small)


def count_modp_adds(monkeypatch):
    """A list that grows by one for every _ModpEliminator.add."""
    adds = []
    add = _ModpEliminator.add

    def counting(self, vec):
        adds.append(self.p)
        return add(self, vec)

    monkeypatch.setattr(_ModpEliminator, "add", counting)
    return adds


@pytest.mark.parametrize("name", ["exterior_line", "nichols_cyclic:3",
                                  "taft:2"])
def test_resumed_enlargement_starts_from_the_base_rows_mod_p(name,
                                                             monkeypatch):
    # at the base's prime the enlargement streams its new columns only;
    # without the base's rows mod p it streams the reduced relation rows
    # first, one add each, and then the same columns
    base = default_diagram(build(name))
    small = compute_coend(base)
    adds = count_modp_adds(monkeypatch)
    for block in stability_blocks(base):
        del adds[:]
        big = small.enlarged(block)
        resumed = len(adds)
        assert big.certificate == small.certificate
        assert_same_coend(big, compute_coend(big.diagram))
        rows, small.modp_rows = small.modp_rows, None
        del adds[:]
        again = small.enlarged(block)
        small.modp_rows = rows
        assert len(adds) == resumed + small.presentation.relation_matrix.cols
        assert again.certificate == big.certificate
        assert_same_coend(again, big)


def test_resumed_enlargement_at_another_prime_streams_the_seeds(monkeypatch):
    base = default_diagram(exterior_line())
    small = compute_coend(base)
    primes = _modp_primes

    def skip_the_first(field):
        return islice(primes(field), 1, None)

    monkeypatch.setattr(bhl.coend, "_modp_primes", skip_the_first)
    adds = count_modp_adds(monkeypatch)
    for block in stability_blocks(base):
        del adds[:]
        big = small.enlarged(block)
        assert big.certificate not in (None, small.certificate)
        assert set(adds) == {big.certificate}
        assert len(adds) >= small.presentation.relation_matrix.cols
        assert_same_coend(big, eliminated(big.diagram))


@pytest.mark.parametrize("name", STOCK)
def test_certificate_checks_cofree_maps_by_formula(name, monkeypatch):
    # every map the stream uses goes into a cofree block, so none needs
    # the product check
    checked = []
    is_colinear = bhl.coend.is_colinear

    def counting(f, A, B):
        checked.append(f)
        return is_colinear(f, A, B)

    monkeypatch.setattr(bhl.coend, "is_colinear", counting)
    D = reconstruction_diagram(build(name))
    res = compute_coend(D)
    assert res.certificate is not None
    assert checked == []


def test_colinear_map_off_the_formula_is_checked_by_product():
    # twice each formula map into the regular block is colinear but not
    # the formula map: is_colinear must accept it
    H = exterior_line()
    D = default_diagram(H)
    reg = D.blocks[D.regular]
    two = H.carrier.ctx.field.scalar(2)
    hom_space = bhl.coend.hom_space
    checked = []
    is_colinear = bhl.coend.is_colinear

    def doubled(A, B):
        basis = hom_space(A, B)
        if B != reg:
            return basis
        return [GradedMorphism(f.source, f.target, f.matrix.scale(two))
                for f in basis]

    def counting(f, A, B):
        checked.append(f)
        return is_colinear(f, A, B)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bhl.coend, "hom_space", doubled)
        patch.setattr(bhl.coend, "is_colinear", counting)
        res = compute_coend(D)
    assert checked
    assert res.certificate is not None
    assert_same_coend(res, eliminated(D))


def test_candidate_is_psi_bar_of_each_coaction():
    for name in ("group_algebra:2", "sweedler", "exterior_line",
                 "nichols_cyclic:3"):
        H = build(name)
        D = default_diagram(H)
        _, offsets, total = _block_spaces(D)
        P = _candidate(D, offsets, total)
        for B, off in zip(D.blocks, offsets):
            want = psi_bar(B.coaction, H.carrier, B.carrier).matrix
            cols = P[off:off + want.cols]
            got = Matrix.from_rows(want.field,
                                   [{j: col[h] for j, col in enumerate(cols)
                                     if h in col} for h in range(want.rows)],
                                   want.cols)
            assert got == want, name


def test_wrong_candidate_falls_back_to_elimination(monkeypatch):
    D = default_diagram(sweedler())
    candidate = bhl.coend._candidate

    def planted(diagram, offsets, total):
        P = candidate(diagram, offsets, total)
        col = P[offsets[diagram.regular] + 1]
        one = diagram.hopf.carrier.ctx.field.one
        col[0] = col[0] + one if 0 in col else one
        return P

    monkeypatch.setattr(bhl.coend, "_candidate", planted)
    res = compute_coend(D)
    assert res.certificate is None
    assert_same_coend(res, eliminated(D))
    assert res.dim == 4


def test_relation_the_candidate_does_not_kill_falls_back(monkeypatch):
    # a planted non-colinear map E_00 (1 -> 1, x -> 0) among the regular
    # block's endomorphisms: its dinaturality columns are not relations,
    # and P does not kill them.  The stream reaches that pair first, after
    # balancing, so the certificate's colinearity check must refuse it.
    H = exterior_line()
    D = default_diagram(H)
    field = H.carrier.ctx.field
    reg = D.blocks[D.regular]
    planted = GradedMorphism(H.carrier, H.carrier,
                             Matrix.from_dict(field, 2, 2, {(0, 0): field.one}))
    assert not is_comodule_morphism(planted, reg, reg)
    hom_space = bhl.coend.hom_space

    def with_planted(A, B):
        basis = hom_space(A, B)
        return basis + [planted] if A == B == reg else basis

    monkeypatch.setattr(bhl.coend, "hom_space", with_planted)
    res = compute_coend(D)
    assert res.certificate is None
    assert res.dim == H.carrier.dim - 1
    assert_same_coend(res, eliminated(D))
    planted_family = "dinaturality[%d->%d]" % (D.regular, D.regular)
    assert planted_family in [name for name, _ in
                              res.residual_report().checks]


def span_rank(maps):
    """The rank of a list of maps, each flattened to one row."""
    field = maps[0].matrix.field
    cols = maps[0].matrix.cols
    rows = [{i * cols + j: v for i, j, v in f.matrix.items()} for f in maps]
    return Matrix.from_rows(field, rows, maps[0].matrix.rows * cols).rank()


@pytest.mark.parametrize("name", STOCK)
def test_cofree_hom_bases_match_the_elimination_oracle(name):
    D = reconstruction_diagram(build(name))
    cofree = [bi for bi, B in enumerate(D.blocks)
              if cofree_degree(B) is not None]
    # among them the regular block and every block acting on it by a line
    assert {D.regular} | {ci for ci, wi, _ in D.acted
                          if wi == D.regular} <= set(cofree)
    for bi in cofree:
        B = D.blocks[bi]
        for A in D.blocks:
            basis = hom_space(A, B)
            oracle = hom_basis_by_elimination(A, B)
            assert len(basis) == len(oracle)
            for f in basis:
                assert is_comodule_morphism(f, A, B)
            if basis:
                assert span_rank(basis) == span_rank(basis + oracle) \
                    == len(basis)


@pytest.mark.parametrize("name", STOCK)
def test_certified_coend_eliminates_no_hom_space(name, monkeypatch):
    # at the rank bound the stream is still inside the cofree families, so
    # no hom space is eliminated; the presentation is elimination's
    D = reconstruction_diagram(build(name))
    eliminators = []

    class Counting(bhl.comodcat.SparseEliminator):
        def __init__(self, field):
            eliminators.append(self)
            super().__init__(field)

    with monkeypatch.context() as patch:
        patch.setattr(bhl.comodcat, "SparseEliminator", Counting)
        res = compute_coend(D)
    assert res.certificate is not None
    assert eliminators == []
    assert_same_coend(res, eliminated(D))


def test_certificate_streams_balancing_then_cofree_and_stops_at_the_bound(
        monkeypatch):
    D = default_diagram(build("nichols_cyclic:3"))
    spaces, offsets, total = _block_spaces(D)
    full = list(bhl.coend._relation_columns(D, spaces, offsets))
    relation_columns = bhl.coend._relation_columns
    streamed = []

    def recording(*args, **kwargs):
        for item in relation_columns(*args, **kwargs):
            streamed.append(item[0])
            yield item

    monkeypatch.setattr(bhl.coend, "_relation_columns", recording)
    res = compute_coend(D)
    assert res.certificate is not None
    # the stream is the full stream's prefix: balancing, then pairs with a
    # cofree target; it stops at the rank bound, before the end
    assert streamed == [name for name, _ in full[:len(streamed)]]
    assert len(streamed) < len(full)
    first = next(i for i, x in enumerate(streamed)
                 if x.startswith("dinaturality"))
    assert first and all(x.startswith("balancing") for x in streamed[:first])
    for x in streamed[first:]:
        target = int(x.split("->")[1].rstrip("]"))
        assert cofree_degree(D.blocks[target]) is not None, x


def test_glued_block_with_another_coaction_falls_back():
    # gluing the dual block onto the regular one breaks the lemma's premise
    # that a glued block coacts as its anchor does
    H = sweedler()
    D = reconstruction_diagram(H)
    dual = D.index(D.derived(comodule_dual, D.regular))
    assert D.blocks[dual].coaction.matrix != D.blocks[D.regular].coaction.matrix
    D.balance.append((dual, D.regular))
    res = compute_coend(D)
    assert res.certificate is None
    assert_same_coend(res, eliminated(D))


def test_relations_one_short_of_the_kernel_fall_back(monkeypatch):
    # without one balancing family the relations span a hyperplane of
    # ker P: P kills them all, and only the exact rank bound can tell
    H = exterior_line()
    D = default_diagram(H)
    relation_columns = bhl.coend._relation_columns

    def without_balancing_0(*args, **kwargs):
        return ((name, col) for name, col in relation_columns(*args, **kwargs)
                if name != "balancing[0]")

    monkeypatch.setattr(bhl.coend, "_relation_columns", without_balancing_0)
    res = compute_coend(D)
    assert res.certificate is None
    assert res.dim == H.carrier.dim + 1
    assert_same_coend(res, eliminated(D))


def rescaled_sweedler():
    """Sweedler's algebra in the basis whose last vector is 3 times the
    old one: its relation columns have denominators 3."""
    H = sweedler()
    V, n = H.carrier, H.carrier.dim
    t = GradedMorphism(V, V, rational_matrix(
        V.ctx.field, [[(3 if i == n - 1 else 1) if i == j else 0 for j in range(n)]
                      for i in range(n)]))
    ti = t.inverse()
    return HopfAlgebraData(V, t * H.m * (ti @ ti), t * H.u,
                           (t @ t) * H.delta * ti, H.eps * ti, t * H.S * ti)


def test_prime_dividing_a_denominator_is_skipped(monkeypatch):
    H = rescaled_sweedler()
    field = H.carrier.ctx.field
    third = field.scalar(1) / field.scalar(3)
    with pytest.raises(ZeroDivisionError):
        _ModpEliminator(field, 3, 1).add({0: third})
    primes = _modp_primes

    def three_first(field):
        yield 3, 1  # zeta -> 1 is a root of Phi_1 mod 3
        yield from primes(field)

    monkeypatch.setattr(bhl.coend, "_modp_primes", three_first)
    D = default_diagram(H)
    res = compute_coend(D)
    assert res.certificate == next(primes(field))[0]
    assert_same_coend(res, eliminated(D))


@pytest.mark.parametrize("short_primes", [1, bhl.coend._PRIME_TRIES])
def test_short_modp_rank_tries_the_next_prime(monkeypatch, short_primes):
    # a prime at which the image loses rank is planted by capping the rank
    D = default_diagram(exterior_line())
    field = D.hopf.carrier.ctx.field
    short = [p for p, _ in islice(_modp_primes(field), short_primes)]
    tried = []

    class Capped(_ModpEliminator):
        def __init__(self, field, p, root):
            super().__init__(field, p, root)
            tried.append(p)

        def add(self, vec):
            return self.p not in short and super().add(vec)

    monkeypatch.setattr(bhl.coend, "_ModpEliminator", Capped)
    res = compute_coend(D)
    assert_same_coend(res, eliminated(D))
    if short_primes < bhl.coend._PRIME_TRIES:
        assert tried == short + [res.certificate]
    else:
        assert res.certificate is None
        assert tried == short


def test_pi_not_surjective_guard():
    # a hand-made presentation that kills the whole regular block: the unit
    # block survives on its own, so the regular projection cannot cover it
    H = group_algebra(2)
    D = Diagram(H, [regular_comodule(H), unit_comodule(H)])
    spaces, offsets, total = _block_spaces(D)
    field = H.carrier.ctx.field
    rows = [(p, {p: field.one}) for p in range(spaces[0].dim)]
    pres = cokernel_from_rref(field, total, rows)
    quotient = GradedObject(H.carrier.ctx, [("c0", ())])
    res = CoendResult(D, spaces, offsets, pres, quotient)
    with pytest.raises(PiNotSurjectiveError) as err:
        res.check_regular_surjective()
    assert err.value.code == "PiNotSurjective"


def test_unit_block_class_matches_unit_of_regular_block():
    # the dinaturality relation along the unit map 1 -> reg identifies the
    # unit block's single class with the class of (1_H, eps-dual-slot)
    H = group_algebra(2)
    res = compute_coend(default_diagram(H))
    reg = regular_comodule(H)
    one = unit_comodule(H)
    pi_reg = res.pi(res.diagram.index(reg))
    pi_one = res.pi(res.diagram.index(one))
    # u: 1 -> H sends the base point to basis slot 0 (the identity of kG)
    q = res.dim
    assert [pi_one.matrix[i, 0] for i in range(q)] == \
        [pi_reg.matrix[i, 0] for i in range(q)]


def test_balancing_is_what_cuts_the_dimension():
    # dropping the balancing gluings (same blocks, no identifications)
    # inflates the quotient on graded examples
    for H, inflated in ((exterior_line(), 4), (build("nichols_cyclic:3"), 9)):
        D = default_diagram(H)
        assert compute_coend(D).dim == H.carrier.dim
        stripped = compute_coend(Diagram(H, D.blocks))
        assert stripped.dim == inflated


def test_prebalancing_unit_is_identity():
    H = sweedler()
    A, B = regular_comodule(H), unit_comodule(H)
    U = unit_object(H.carrier.ctx)
    beta = prebalancing(A, B, U)
    assert beta == identity_mor(beta.source)


def test_prebalancing_invertible_and_typed():
    H = exterior_line()
    ctx = H.carrier.ctx
    A = regular_comodule(H)
    B = comodule_tensor(A, A)
    X = line_object(ctx, "x1", (1,))
    beta = prebalancing(A, B, X)
    assert beta.source == tensor_obj(
        B.carrier, left_dual(act(A, X).carrier).space)
    assert beta.target == tensor_obj(
        act(B, left_dual(X).space).carrier, left_dual(A.carrier).space)
    inv = beta.inverse()
    assert inv * beta == identity_mor(beta.source)
    assert beta * inv == identity_mor(beta.target)
