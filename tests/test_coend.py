"""Coend quotients: dimensions, grading, surjectivity, stability."""

from itertools import islice

import pytest

import bhl.coend
from bhl.catalog import BUILTIN_NAMES, build, exterior_line, group_algebra, sweedler
from bhl.braidedhopf import HopfAlgebraData
from bhl.coend import (
    CoendResult, Diagram, PiNotSurjectiveError, check_stability, compute_coend,
    default_diagram, reconstruction_diagram, _block_spaces,
    _candidate, _eliminated,
)
from bhl.comodcat import (
    act, comodule_dual, comodule_tensor, direct_sum_comodule, regular_comodule,
    unit_comodule,
)
from bhl.exactalg import (InvalidStructureError, Matrix, _ModpEliminator,
                          _modp_primes, cokernel_from_rref)
from bhl.gradedcat import (GradedMorphism, GradedObject, identity_mor,
                           left_dual, line_object, tensor_obj, unit_object)
from oracles import prebalancing, psi_bar, rational_matrix


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

    def recording(*args):
        for item in relation_columns(*args):
            streamed.append(item)
            yield item

    monkeypatch.setattr(bhl.coend, "_relation_columns", recording)
    same = small.enlarged(base.blocks[base.regular])
    assert streamed == []
    assert same.diagram.blocks == base.blocks
    assert_same_coend(same, small)


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
    H = exterior_line()
    D = default_diagram(H)
    relation_columns = bhl.coend._relation_columns

    def with_extra(diagram, spaces, offsets, *prefix):
        yield from relation_columns(diagram, spaces, offsets, *prefix)
        # the unit of the regular block's pairing: its class is not zero
        yield "extra", {offsets[diagram.regular]: H.carrier.ctx.field.one}

    monkeypatch.setattr(bhl.coend, "_relation_columns", with_extra)
    res = compute_coend(D)
    assert res.certificate is None
    assert res.dim == H.carrier.dim - 1
    assert_same_coend(res, eliminated(D))
    assert "extra" in [name for name, _ in res.residual_report().checks]


def test_relations_one_short_of_the_kernel_fall_back(monkeypatch):
    # without one balancing family the relations span a hyperplane of
    # ker P: P kills them all, and only the exact rank bound can tell
    H = exterior_line()
    D = default_diagram(H)
    relation_columns = bhl.coend._relation_columns

    def without_balancing_0(*args):
        return ((name, col) for name, col in relation_columns(*args)
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
