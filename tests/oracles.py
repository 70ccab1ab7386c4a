"""Oracles for the reconstruction theorem's hypotheses, and test inputs.

The relative coend reconstructs H only when the comodule category is a
monoidal module category over the ambient graded category and the forgetful
functor F has a monoidal section.  The engine relies on both without
checking them; these functions check them exactly on finite samples, and
build the prebalancing exchange that the balancing relations encode and
psi_bar, the map the certified coend's candidate is built from entrywise,
and `hom_basis_by_elimination`, the oracle for the hom bases that
`hom_space` writes down by formula.  `verify_presentation_by_product` is
the oracle for `QuotientPresentation.verify`, which compares each reduced
relation column with its pivot's projection column instead of forming the
product.  `parse_scalar_by_fractions` and
`format_scalar_by_fractions` read and write scalar literals with
`fractions.Fraction`, the oracle for the int-only `parse_scalar` and
`format_scalar`.  `perfbench_module` loads a module of the benchmark, whose
generator builds the seeded spec files.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from bhl.comodcat import (FlagReport, act, comodule_tensor, trivial_comodule,
                          unit_comodule)
from bhl.exactalg import Matrix, Scalar, SparseEliminator, _null_space, require
from bhl.gradedcat import (GradedMorphism, identity_mor, left_dual, phi_left,
                           tensor_obj, unit_object)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py, imported from its file (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def is_comodule_morphism(f, A, B):
    """Exact colinearity residual of f: F(A) -> F(B)."""
    iH = identity_mor(A.hopf.carrier)
    return (B.coaction * f - (iH @ f) * A.coaction).is_zero()


def hom_basis_by_elimination(A, B):
    """A basis of the comodule maps A -> B, by exact elimination: the null
    space of f |-> rho_B f - (id (x) f) rho_A on the degree-preserving
    maps F(A) -> F(B), one unknown per matrix unit E_ij."""
    VA, VB = A.carrier, B.carrier
    field = VA.ctx.field
    iH = Matrix.identity(field, A.hopf.carrier.dim)
    units = [(i, j) for i in range(VB.dim) for j in range(VA.dim)
             if VB.degree(i) == VA.degree(j)]
    columns = []
    for i, j in units:
        E = Matrix.from_dict(field, VB.dim, VA.dim, {(i, j): field.one})
        R = B.coaction.matrix * E - (iH @ E) * A.coaction.matrix
        columns.append({r * R.cols + c: v for r, c, v in R.items()})
    n_eq = A.hopf.carrier.dim * VB.dim * VA.dim
    elim = SparseEliminator(field)
    for row in Matrix.from_rows(field, columns, n_eq).transpose().data:
        elim.add(dict(row))
    _, basis = _null_space(field, len(units), elim.rref_rows())
    return [GradedMorphism(VA, VB, Matrix.from_dict(
                field, VB.dim, VA.dim, {units[k]: v for k, v in vec.items()}))
            for vec in basis]


def _default_l(B, X):
    return identity_mor(tensor_obj(B.carrier, X))


def check_monoidal_module(H, comodules, objects, l=None):
    """The comodule category as a module category over the ambient one.

    Verifies, for the given test comodules B and objects X, Y: the structure
    map l_{B,X}: F(B (|) X) -> F(B) (x) X is colinear into act(B, X), is the
    identity when either argument is the unit, and satisfies the strict
    mixed-associativity coherence.  `l` defaults to the identity (the module
    structure is strict); a perturbed l makes the report fail.
    """
    l = l or _default_l
    checks = []
    unit = unit_object(H.carrier.ctx)
    for bi, B in enumerate(comodules):
        lBu = l(B, unit)
        checks.append(("unit_object_law[%d]" % bi,
                       (lBu - identity_mor(B.carrier)).is_zero()))
        for xi, X in enumerate(objects):
            lBX = l(B, X)
            BX = act(B, X)
            checks.append(("l_colinear[%d,%d]" % (bi, xi),
                           lBX.source == BX.carrier
                           and is_comodule_morphism(lBX, BX, BX)))
            for yi, Y in enumerate(objects):
                lhs = (l(B, X) @ identity_mor(Y)) * l(act(B, X), Y)
                rhs = l(B, tensor_obj(X, Y))
                checks.append(("mixed_assoc[%d,%d,%d]" % (bi, xi, yi),
                               (lhs - rhs).is_zero()))
    return FlagReport(checks)


def check_section(H, objects):
    """The trivial-coaction functor G is a strict monoidal section of the
    forgetful functor F: F(G(V)) = V on the nose and G(V (x) W) equals
    G(V) (x) G(W) as comodules."""
    checks = []
    unitc = unit_comodule(H)
    checks.append(("unit_comodule", trivial_comodule(H, unit_object(H.carrier.ctx)) == unitc))
    for vi, V in enumerate(objects):
        GV = trivial_comodule(H, V)
        checks.append(("FG_identity[%d]" % vi, GV.carrier == V))
        checks.append(("G_unit_absorb[%d]" % vi,
                       comodule_tensor(unitc, GV) == GV
                       and comodule_tensor(GV, unitc) == GV))
        for wi, W in enumerate(objects):
            GW = trivial_comodule(H, W)
            lhs = comodule_tensor(GV, GW)
            rhs = trivial_comodule(H, tensor_obj(V, W))
            checks.append(("G_monoidal[%d,%d]" % (vi, wi), lhs == rhs))
    return FlagReport(checks)


def prebalancing(A, B, X):
    """The canonical invertible exchange

        F(B) (x) *F(A (|) X)  ->  F(B (|) *X) (x) *F(A)

    for comodules A, B over the same Hopf algebra and an object X of the
    ambient graded category.  The forgetful functor is the identity on
    carriers, so the exchange is just the dual-of-a-tensor identification
    on the right leg; it is the map along which a glued block's ambient
    coordinates correspond to its anchor's."""
    require(A.hopf == B.hopf,
            "prebalancing needs comodules over the same Hopf algebra")
    return identity_mor(B.carrier) @ phi_left(A.carrier, X).inverse()


def psi_bar(g, Z, Y):
    """Turn g: X -> Z (x) Y back into X (x) *Y -> Z (inverse of psi)."""
    dual = left_dual(Y)
    require(g.target == tensor_obj(Z, Y), "psi_bar: target must be Z (x) Y")
    return (identity_mor(Z) @ dual.ev) * (g @ identity_mor(dual.space))


def verify_presentation_by_product(pres):
    """QuotientPresentation.verify with the relations killed checked by
    forming projection x relation matrix, entry for entry."""
    q, amb = pres.quotient_dim, pres.ambient_dim
    require(pres.projection.rows == q and pres.projection.cols == amb,
            "projection is not quotient x ambient")
    free_pos = {j: k for k, j in enumerate(pres.free)}
    require(len(free_pos) == q and all(0 <= j < amb for j in free_pos),
            "free coordinates are not distinct ambient coordinates")
    one = pres.projection.field.one
    require(all({free_pos[j]: v for j, v in row.items() if j in free_pos}
                == {k: one} for k, row in enumerate(pres.projection.data)),
            "projection is not the identity on the free coordinates")
    require(not pres.relation_matrix.cols
            or (pres.projection * pres.relation_matrix).is_zero(),
            "projection does not kill the relations")
    rel = pres.relation_matrix
    unit_rows = {k for row in rel.data if len(row) == 1
                 for k, v in row.items() if v == one}
    require(len(unit_rows) == rel.cols,
            "relation columns are not in reduced form")
    require(rel.cols + q == amb,
            "relation rank + quotient dimension != ambient dimension")


def rational_matrix(field, rows):
    """The matrix over `field` with the given rational entries, row by row."""
    return Matrix(field, [[field.scalar(v) for v in row] for row in rows])


def format_scalar_by_fractions(s):
    """format_scalar with every coefficient written by str(Fraction)."""
    terms = []
    for k, n in enumerate(s.num):
        if not n:
            continue
        c = Fraction(n, s.den)
        if k == 0:
            terms.append(str(c))
        else:
            z = "z" if k == 1 else "z^%d" % k
            if c == 1:
                terms.append(z)
            elif c == -1:
                terms.append("-" + z)
            else:
                terms.append("%s*%s" % (c, z))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += "+" + t if not t.startswith("-") else t
    return out


def parse_scalar_by_fractions(field, text):
    """parse_scalar with every coefficient read by Fraction(literal)."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty scalar literal")
    coeffs = [Fraction(0)] * field.degree
    extra = {}
    terms, cur = [], ""
    for ch in text:
        if ch in "+-" and cur and cur[-1] not in "+-*/^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    for term in terms:
        if not term or term in "+-":
            raise ValueError("bad scalar literal %r" % text)
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign, term = -1, term[1:]
        if "z" in term:
            head, _, tail = term.partition("z")
            if head.endswith("*"):
                head = head[:-1]
            coef = Fraction(head) if head else Fraction(1)
            if tail.startswith("^"):
                power = int(tail[1:])
            elif tail == "":
                power = 1
            else:
                raise ValueError("bad scalar term %r" % term)
        else:
            coef = Fraction(term)
            power = 0
        coef *= sign
        if 0 <= power < field.degree:
            coeffs[power] += coef
        else:
            extra[power] = extra.get(power, Fraction(0)) + coef
    s = Scalar(field, coeffs)
    for power, coef in sorted(extra.items()):
        s = s + field.zeta(power) * coef
    return s
