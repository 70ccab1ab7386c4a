"""Coend quotients: dimensions, grading, surjectivity, stability."""

import copy
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

import bhl.cli
import bhl.coend
from bhl.catalog import BUILTIN_NAMES, build, exterior_line, group_algebra, sweedler
from bhl.braidedhopf import HopfAlgebraData
from bhl.cli import canonical_json, hopf_to_spec
from bhl.coend import (
    CoendNotCertifiedError, CoendResult, Diagram, PiNotSurjectiveError,
    check_stability, compute_coend, default_diagram, reconstruction_diagram,
    stability_blocks, _block_spaces, _candidate, _check_counit_lemma,
    _relation_columns,
)
from bhl.comodcat import (
    act, cofree_degree, comodule_dual, comodule_tensor, direct_sum_comodule,
    hom_space, regular_comodule, unit_comodule,
)
from bhl.exactalg import (InvalidStructureError, Matrix, QuotientPresentation,
                          SparseEliminator)
from bhl.gradedcat import (GradedMorphism, GradedObject, identity_mor,
                           left_dual, line_object, tensor_obj, unit_object)
from oracles import (coend_by_elimination, hom_basis_by_elimination,
                     is_comodule_morphism, null_space, prebalancing, psi_bar,
                     rational_matrix, seed0_spec_datum, stability_by_kappa)


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


STABILITY_CASES = {name: (lambda name=name: (build(name), ()))
                   for name in BUILTIN_NAMES + ["taft:3", "nichols_cyclic:5",
                                               "group_algebra:2,2"]}
STABILITY_CASES["nichols_cyclic:3 --probes 1"] = lambda: (
    build("nichols_cyclic:3"), ((1,),))
STABILITY_CASES["cyclo5-diag"] = lambda: (
    seed0_spec_datum("nichols_cyclic:5", False), ())


@pytest.mark.parametrize("case", STABILITY_CASES)
def test_stability_flags_by_lemma_are_the_computed_ones(case):
    # both coends certify, so the flags that `check_stability` reports by
    # the lemma are those the computed comparison kappa gives
    H, probes = STABILITY_CASES[case]()
    base = default_diagram(H, [H.carrier.ctx.group.element(d)
                               for d in probes])
    small = compute_coend(base)
    for _, block in stability_blocks(base):
        big = small.enlarged(block)
        assert (stability_by_kappa(small, big).checks
                == check_stability(small, big).checks)


def test_the_stability_oracle_fails_on_a_doubled_projection_row():
    # the big projection with its row 0 written twice, over row 1: the
    # computed kappa loses rank (the presentation is no longer the identity
    # on the free coordinates, so it is set in place, unverified); the lemma
    # reads no projection, so it still passes
    H = sweedler()
    base = default_diagram(H)
    small = compute_coend(base)
    big = small.enlarged(stability_blocks(base)[0][1])
    doubled = copy.copy(big)
    doubled.presentation = copy.copy(big.presentation)
    P = big.presentation.projection
    rows = list(P.data)
    rows[1] = rows[0]
    doubled.presentation.projection = Matrix.from_rows(P.field, rows, P.cols)
    failures = stability_by_kappa(small, doubled).failures()
    assert failures == ["comparison_iso"]
    assert check_stability(small, doubled).passed


def test_stability_against_a_diagram_that_is_no_enlargement_raises():
    # the lemma's one premise: the default diagram lacks the reconstruction
    # diagram's last block, the dual of the regular block
    H = sweedler()
    small = compute_coend(reconstruction_diagram(H))
    big = compute_coend(default_diagram(H))
    with pytest.raises(InvalidStructureError) as err:
        check_stability(small, big)
    assert err.value.code == "InvalidStructure"
    assert str(err.value) == ("block %d of the diagram is not a block of its "
                              "enlargement" % len(big.diagram.blocks))


STOCK = list(BUILTIN_NAMES) + ["nichols_cyclic:5"]


def assert_same_coend(a, b):
    for attr in ("projection", "free"):
        assert getattr(a.presentation, attr) == getattr(b.presentation, attr)
    assert a.quotient == b.quotient


def assert_is_the_eliminated_coend(res):
    """res's presentation is the one exact elimination of every relation
    column of its diagram gives."""
    pres = coend_by_elimination(res.diagram)
    assert res.presentation.free == pres.free
    assert res.presentation.projection == pres.projection


@pytest.mark.parametrize("name, probes", [(name, ()) for name in BUILTIN_NAMES]
                         + [("exterior_line", ((1,),)),
                            ("nichols_cyclic:5", ())])
def test_resumed_enlargement_equals_from_scratch(name, probes):
    # the certified presentations, of the base and of each enlargement
    # resumed from it, are the ones exact elimination gives
    H = build(name)
    base = default_diagram(H, [H.carrier.ctx.group.element(d)
                               for d in probes])
    small = compute_coend(base)
    assert_is_the_eliminated_coend(small)
    for _, block in stability_blocks(base):
        big = small.enlarged(block)
        assert_is_the_eliminated_coend(big)
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


def cofree_blocks(diagram):
    """{block index: degree} of the diagram's cofree blocks."""
    return {bi: d for bi, d in ((bi, cofree_degree(B))
                                for bi, B in enumerate(diagram.blocks))
            if d is not None}


@pytest.mark.parametrize("name", ["exterior_line", "nichols_cyclic:3",
                                  "taft:2"])
def test_resumed_enlargement_starts_from_the_base_rows(name, monkeypatch):
    # the enlargement resumes from the base's reduced rows on the cofree
    # blocks and streams only its own new cofree columns; certified from
    # scratch it streams every cofree column again, to the same result
    base = default_diagram(build(name))
    small = compute_coend(base)
    streamed = []
    relation_columns = bhl.coend._relation_columns

    def recording(*args, **kwargs):
        for item in relation_columns(*args, **kwargs):
            streamed.append(item)
            yield item

    monkeypatch.setattr(bhl.coend, "_relation_columns", recording)
    for _, block in stability_blocks(base):
        del streamed[:]
        big = small.enlarged(block)
        resumed = [family for family, _ in streamed]
        assert all(big.certificate[p] is row
                   for p, row in small.certificate.items())
        new = len(base.blocks)
        assert all(max(int(x) for x in re.findall(r"\d+", family)) >= new
                   for family in resumed)
        assert bool(resumed) == (new in cofree_blocks(big.diagram))
        del streamed[:]
        again = compute_coend(big.diagram)
        assert len(streamed) > len(resumed)
        assert_same_coend(again, big)


def test_candidate_is_psi_bar_of_each_coaction():
    for name in ("group_algebra:2", "sweedler", "exterior_line",
                 "nichols_cyclic:3"):
        H = build(name)
        D = default_diagram(H)
        offsets, total = _block_spaces(D)
        P = _candidate(D, offsets, total)
        for B, off in zip(D.blocks, offsets):
            want = psi_bar(B.coaction, H.carrier, B.carrier).matrix
            cols = P[off:off + want.cols]
            got = Matrix.from_rows(want.field,
                                   [{j: col[h] for j, col in enumerate(cols)
                                     if h in col} for h in range(want.rows)],
                                   want.cols)
            assert got == want, name


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
    # every hom space is the formula basis into a cofree block and none is
    # eliminated; the presentation is elimination's
    D = reconstruction_diagram(build(name))
    targets = []
    hom_space = bhl.coend.hom_space

    def recording(A, B):
        targets.append(B)
        return hom_space(A, B)

    with monkeypatch.context() as patch:
        patch.setattr(bhl.coend, "hom_space", recording)
        res = compute_coend(D)
    assert targets
    assert [B for B in targets if cofree_degree(B) is None] == []
    assert_is_the_eliminated_coend(res)


@pytest.mark.parametrize("name", STOCK)
def test_certificate_builds_no_hom_basis_out_of_a_non_cofree_block(
        name, monkeypatch):
    # the counit lemma reads degrees only and the stream runs between
    # cofree blocks, on the stock diagram and on each of its enlargements
    sources = []
    hom_space = bhl.coend.hom_space

    def recording(A, B):
        sources.append(A)
        return hom_space(A, B)

    monkeypatch.setattr(bhl.coend, "hom_space", recording)
    base = default_diagram(build(name))
    for D in [base] + [base.enlarged(block)
                       for _, block in stability_blocks(base)]:
        compute_coend(D)
    assert sources
    assert [A for A in sources if cofree_degree(A) is None] == []


def test_certificate_streams_balancing_then_cofree_and_stops_at_the_bound(
        monkeypatch):
    # the certificate streams only the relations between cofree blocks:
    # balancing first, then the cofree pairs by target and then by source,
    # and stops as soon as their rank reaches |T| - n; it keeps the reduced
    # rows it reached
    D = default_diagram(build("nichols_cyclic:3"))
    offsets, total = _block_spaces(D)
    T = cofree_blocks(D)
    on_T = list(_relation_columns(D, offsets, T))
    families = list(dict.fromkeys(name for name, _ in on_T))
    want = (["balancing[%d]" % k for k, (ci, wi) in enumerate(D.balance)
             if ci in T and wi in T]
            + ["dinaturality[%d->%d]" % (ai, bi) for bi in T for ai in T])
    # only the endomorphism families, of the identity, have no nonzero column
    assert families == [family for family in want if family in families]
    assert set(want) - set(families) == {"dinaturality[%d->%d]" % (bi, bi)
                                         for bi in T}
    streamed = []

    def recording(*args, **kwargs):
        for name, col in _relation_columns(*args, **kwargs):
            streamed.append((name, dict(col)))  # the eliminator consumes col
            yield name, col

    monkeypatch.setattr(bhl.coend, "_relation_columns", recording)
    res = compute_coend(D)
    assert streamed == on_T[:len(streamed)]
    assert len(streamed) < len(on_T)
    assert streamed[0][0].startswith("balancing")
    assert not streamed[-1][0].startswith("balancing")
    target = sum(D.blocks[bi].carrier.dim ** 2 for bi in T) - D.hopf.carrier.dim
    elim = SparseEliminator(D.hopf.carrier.ctx.field)
    grew = [elim.add(dict(col)) for _, col in streamed]
    assert grew[-1] and elim.rank == target
    assert res.certificate == elim.rows


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_counit_lemma_covers_every_builtin(name):
    # every degree of every non-cofree basis vector has a cofree block, in
    # the stock diagrams and in every enlargement `stability` makes, so
    # each of their coends is certified
    H = build(name)
    for D in (default_diagram(H), reconstruction_diagram(H)):
        _check_counit_lemma(D, cofree_blocks(D))
        res = compute_coend(D)
        for _, block in stability_blocks(D):
            big = res.enlarged(block)
            _check_counit_lemma(big.diagram, cofree_blocks(big.diagram))


def without_a_cofree_block_of_degree_1(H, probes=()):
    """exterior_line's regular block and its tensor square, with no action
    and no balancing: the square has basis vectors of degree 1, and the
    only cofree block, the regular one, has degree 0."""
    reg = regular_comodule(H)
    return Diagram(H, [reg, comodule_tensor(reg, reg)])


def test_block_of_a_degree_no_cofree_block_has_is_not_certified():
    # the counit lemma does not cover the square
    H = exterior_line()
    D = without_a_cofree_block_of_degree_1(H)
    T = cofree_blocks(D)
    V = D.blocks[1].carrier
    assert set(T.values()) == {H.carrier.ctx.group.zero}
    assert {V.degree(i) for i in range(V.dim)} - set(T.values()) == {(1,)}
    message = re.escape("block 1 has basis vectors of degree [1], and no "
                        "cofree block has that degree")
    with pytest.raises(CoendNotCertifiedError, match=message):
        _check_counit_lemma(D, T)
    with pytest.raises(CoendNotCertifiedError, match=message):
        compute_coend(D)


def glue_dual_onto_regular(D):
    """Glue the dual block onto the regular one, which coacts otherwise;
    the dual block's index."""
    dual = D.index(D.derived(comodule_dual, D.regular))
    D.balance.append((dual, D.regular))
    return dual


def test_glued_block_with_another_coaction_is_not_certified():
    # gluing the dual block onto the regular one breaks the lemma's premise
    # that a glued block coacts as its anchor does
    D = reconstruction_diagram(sweedler())
    dual = glue_dual_onto_regular(D)
    assert D.blocks[dual].coaction.matrix != D.blocks[D.regular].coaction.matrix
    with pytest.raises(CoendNotCertifiedError,
                       match="glued block %d coacts unlike its anchor %d"
                       % (dual, D.regular)):
        compute_coend(D)


def plant_missing_balancing(patch):
    """The relation stream without the family balancing[0]."""
    relation_columns = bhl.coend._relation_columns

    def without_balancing_0(*args, **kwargs):
        return ((name, col) for name, col in relation_columns(*args, **kwargs)
                if name != "balancing[0]")

    patch.setattr(bhl.coend, "_relation_columns", without_balancing_0)


def test_relations_one_short_of_the_kernel_are_not_certified(monkeypatch):
    # without one balancing family the relations span a hyperplane of
    # ker P: P kills them all, and only the exact rank bound can tell
    D = default_diagram(exterior_line())
    T = cofree_blocks(D)
    assert sum(D.blocks[bi].carrier.dim ** 2 for bi in T) - 2 == 10
    plant_missing_balancing(monkeypatch)
    with pytest.raises(CoendNotCertifiedError, match=re.escape(
            "the relations on the cofree blocks reach rank 8, and "
            "|T| - n = 10 is needed")):
        compute_coend(D)


def left_unit_coproduct(H):
    """H with the coproduct x |-> 1 (x) x: it fails the right counit law,
    and the candidate of any diagram over it has rank 1."""
    V = H.carrier
    delta = GradedMorphism.from_dict(V, tensor_obj(V, V), {
        (k, k): V.ctx.field.one for k in range(V.dim)})
    return HopfAlgebraData(V, H.m, H.u, delta, H.eps, H.S)


def test_candidate_of_rank_below_dim_h_is_not_certified():
    D = default_diagram(left_unit_coproduct(group_algebra(2)))
    with pytest.raises(CoendNotCertifiedError,
                       match="rank P is 1, below dim H = 2"):
        compute_coend(D)


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


def test_relation_columns_with_denominators_are_certified():
    # exact elimination on the cofree blocks needs no care for the
    # denominators 3 of the rescaled basis
    assert_is_the_eliminated_coend(compute_coend(default_diagram(
        rescaled_sweedler())))


def test_pi_not_surjective_guard():
    # a hand-made presentation that kills the whole regular block: the unit
    # block survives on its own, so the regular projection cannot cover it
    H = group_algebra(2)
    D = Diagram(H, [regular_comodule(H), unit_comodule(H)])
    offsets, total = _block_spaces(D)
    field = H.carrier.ctx.field
    rows = [(p, {p: field.one}) for p in range(offsets[1])]
    free, proj = null_space(field, total, rows)
    pres = QuotientPresentation(total, free, Matrix.from_rows(field, proj, total))
    quotient = GradedObject(H.carrier.ctx, [("c0", ())])
    res = CoendResult(D, offsets, pres, quotient, {}, None, None)
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


# each premise of the certificate, planted to fail under one command:
# premise -> plant(monkeypatch, tmp_path) -> (main's arguments, message)
def _cli_rank(patch, tmp_path):
    spec = tmp_path / "left-unit.json"
    spec.write_text(canonical_json(hopf_to_spec(
        left_unit_coproduct(group_algebra(2)))))
    patch.setattr(bhl.cli, "ensure_hopf", lambda datum: datum)
    return [str(spec)], "rank P is 1, below dim H = 2"


def _cli_glued(patch, tmp_path):
    diagram = bhl.coend.reconstruction_diagram

    def glued(H, probes=()):
        D = diagram(H, probes)
        glue_dual_onto_regular(D)
        return D

    patch.setattr(bhl.coend, "reconstruction_diagram", glued)
    D = glued(sweedler())
    return (["--builtin", "sweedler"],
            "glued block %d coacts unlike its anchor 0" % D.balance[-1][0])


def _cli_degree(patch, tmp_path):
    patch.setattr(bhl.coend, "reconstruction_diagram",
                  without_a_cofree_block_of_degree_1)
    return (["--builtin", "exterior_line"], "block 1 has basis vectors of "
            "degree [1], and no cofree block has that degree")


def _cli_short(patch, tmp_path):
    plant_missing_balancing(patch)
    # `stability` computes the coend of the default diagram first
    return (["--builtin", "exterior_line"], "the relations on the cofree "
            "blocks reach rank 8, and |T| - n = 10 is needed")


PREMISE_PLANTS = {
    "rank": ("verify-reconstruction", _cli_rank),
    "glued": ("verify-reconstruction", _cli_glued),
    "degree": ("verify-reconstruction", _cli_degree),
    "short": ("stability", _cli_short),
}


@pytest.mark.parametrize("premise", sorted(PREMISE_PLANTS))
def test_uncertified_coend_reaches_main_as_a_structured_error(
        premise, monkeypatch, tmp_path):
    command, plant = PREMISE_PLANTS[premise]
    args, premise_message = plant(monkeypatch, tmp_path)
    message = "coend not certified: " + premise_message
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = bhl.cli.main([command] + args)
    assert code == 1
    assert json.loads(out.getvalue()) == {
        "command": command, "status": "error",
        "error": {"code": "CoendNotCertified", "message": message}}
    assert err.getvalue() == "error[CoendNotCertified]: %s\n" % message


def test_balancing_is_what_cuts_the_dimension():
    # dropping the balancing gluings (same blocks, no identifications)
    # inflates the quotient on graded examples, past what the certificate
    # can cut out
    for H, inflated in ((exterior_line(), 4), (build("nichols_cyclic:3"), 9)):
        D = default_diagram(H)
        assert compute_coend(D).dim == H.carrier.dim
        stripped = Diagram(H, D.blocks)
        assert coend_by_elimination(stripped).quotient_dim == inflated
        with pytest.raises(CoendNotCertifiedError,
                           match="relations on the cofree blocks reach"):
            compute_coend(stripped)


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
