"""The relative coend of the forgetful functor on a finite comodule diagram.

The ambient space is the direct sum, over the diagram's comodule blocks B,
of F(B) (x) *F(B), of which only the offsets are kept (`pi` builds a
block's labelled object when asked).  Two relation families are divided
out, exactly:

* dinaturality, one column per basis morphism f: A -> B and basis pair
  (a, b):  sum_i f[i,a] e_{B,(i,b)}  -  sum_j f[b,j] e_{A,(a,j)};
* balancing, gluing a block B (|) *L (L a line of the ambient category)
  back onto its anchor B through the evaluation pairing, which makes the
  quotient relative to the inert right action of the graded category.

Every relation column is homogeneous, so the quotient inherits a grading
and the projections are morphisms of the graded category.  The reduced
relation basis is canonical for the relation span, hence so is the whole
presentation -- results do not depend on assembly order or thread count.

The quotient map is written down, then proved exact.  By the
reconstruction theorem the coend is H itself, and pi_B sends
F(B) (x) *F(B) to B's matrix coefficients: the candidate P is psi_bar of
each block's coaction, an n x N matrix (n = dim H, N the ambient
dimension) that is never formed whole -- block B's part is built from
rho_B alone.  The certificate trusts the two computations it is built
from -- `_block_candidate`, which writes B's part of P down from rho_B,
and `hom_space`, whose basis into a cofree block is the formula basis
below -- and the tests check both against oracles.  It shows

* (a) span R is inside ker P, by a lemma instead of a pass over the
  columns.  P kills the dinaturality columns of f: A -> B exactly when
  rho_B f = (id (x) f) rho_A, which every map of a hom basis satisfies;
  it kills a balancing family exactly when the glued block's columns of P
  equal its anchor's, that is when their coaction matrices agree.
* (b) rank R >= N - n, by a lemma and one exact elimination.  Split the
  ambient coordinates into T, those of the cofree blocks (`cofree_degree`
  not None), and S, the rest.  Let A be a block in S, a' a basis vector of
  A of degree d, and B a cofree block of degree d.  The formula map
  f = (id (x) E_a') rho_A is in B's hom basis (see `comodcat`), so for each
  a the sum  sum_b eps(h_b) col(f, a, b)  of its columns is a relation.  Its
  part in A's block is  - sum_j sum_b eps(h_b) rho_A[(b, a'), j] e_(a, j),
  which is -e_(a, a') by A's counit axiom (eps (x) id) rho_A = id (a block
  is a comodule by the theorem its `comodcat` constructor names, over a
  checked Hopf algebra); the rest lies in B's block, in T.
  So if every degree of every basis vector of a block in S is the degree of
  some cofree block, these sums restrict to S as a signed permutation:
  every relation is a combination of them plus a relation supported on T,
  and rank R = |S| + rank(R restricted to relations supported on T).  The
  lemma reads degrees only, so no hom basis out of a block in S is built.
  The relation columns supported on T -- balancing and dinaturality
  between cofree blocks, in `_relation_columns` order -- are eliminated
  exactly, and the stream stops as soon as their rank reaches |T| - n.
  Then rank R >= |S| + |T| - n = N - n.

With rank P = n, (a) and (b) give span R = ker P exactly.  Its canonical
presentation, the one exact elimination of the relations would give, is
read off P: coordinate j is free iff P e_j is independent of the columns
after j, found by a backward scan of one block's candidate at a time
that stops at n free coordinates, and the projection is P_F^-1 P.  The
coend stores F, P_F and P_F^-1 -- the comparison H -> Q by H's counit
axiom (see `reconstruct`) -- and no projection: pi_B = P_F^-1
psi_bar(rho_B) is built from block B's coaction when asked, and is the
identity on F once P_F^-1 P_F = I is checked.  The certificate is the
only way a coend is computed.  It checks the four premises that an input
or a hand-built `Diagram` can break, and CoendNotCertifiedError names the
first that fails with its witness: a glued block that coacts unlike its
anchor, a block in S with a degree that no cofree block has, rank P < n,
or relations on T short of |T| - n (a non-Hopf input, a diagram too small
to cut H out).  Every input of the command line is proved Hopf before its
diagram is built, and the stock diagrams have a cofree block at every
degree, so their coends are certified.  The presentation is read off P
alone, so the stream order changes no output.

An enlargement certifies itself from its own candidate:
`Diagram.enlarged` only appends blocks and gluings, so the base's offsets
stay and its relations are relations of the enlargement.  The elimination
on T resumes from the base's reduced rows on T, and only the new columns
supported on T are streamed.  Both projections are P_F^-1 P of one P, so
`check_stability` reports its flags by that lemma, and the computed
comparison kappa is the tests' oracle.
"""

import copy
from bisect import bisect_right

from .exactalg import (EngineError, InvalidStructureError, Matrix,
                       QuotientPresentation, SparseEliminator, require)
from .gradedcat import (GradedMorphism, GradedObject, dual_object,
                        line_object, tensor_obj)
from .comodcat import (Comodule, FlagReport, act, cofree_degree,
                       comodule_dual, comodule_tensor, direct_sum_comodule,
                       hom_space, regular_comodule, unit_comodule)


class PiNotSurjectiveError(EngineError):
    code = "PiNotSurjective"


class CoendNotCertifiedError(EngineError):
    """A premise of the certificate fails (see the module docstring)."""
    code = "CoendNotCertified"

    def __init__(self, premise):
        super().__init__("coend not certified: " + premise)


class Diagram:
    """A finite family of comodule blocks with balancing gluings.

    `comodules` are deduplicated by value; the regular comodule must be
    among them, and `regular` is its index.  Each action entry (W, X) adds
    the block W (|) X; each balancing entry (W, L) -- W a listed comodule,
    L a one-dimensional object -- adds the glued block W (|) *L and an
    exact identification of its classes with W's.

    The diagram owns block identity: `index` finds a block by value,
    `derived` builds a comodule made from blocks once
    -- `index(derived(...))` is its block, or KeyError if it is none -- and
    `hom_basis` computes the hom basis between two blocks once.
    """

    def __init__(self, hopf, comodules, balance=(), actions=()):
        self.hopf = hopf
        self.blocks = []
        self.acted = []  # (acted block index, anchor index, inert object)
        self.balance = []  # (glued block index, anchor index)
        self._index = {}  # (carrier, coaction) -> block index
        self._derived = {}  # (constructor, operands...) -> comodule
        self._homs = {}  # (source index, target index) -> hom basis
        self._extend(comodules, balance, actions)
        # the regular comodule is (H, Delta) itself, found without a rebuild
        self.regular = self._index.get((hopf.carrier, hopf.delta))
        require(self.regular is not None,
                "the diagram must contain the regular comodule")

    def _extend(self, comodules, balance, actions):
        balance, actions = tuple(balance), tuple(actions)
        for B in comodules:
            self._add(B)
        for W, X in actions:
            require(isinstance(X, GradedObject),
                    "an action must be by a graded object")
            wi = self._add(W)
            self.acted.append((self._add(self.derived(act, wi, X)), wi, X))
        for W, L in balance:
            require(isinstance(L, GradedObject) and L.dim == 1,
                    "balancing probes must be one-dimensional")
            dual_line = dual_object(L)
            wi = self._add(W)
            ci = self._add(self.derived(act, wi, dual_line))
            self.balance.append((ci, wi))
            self.acted.append((ci, wi, dual_line))

    def index(self, B):
        """The index of the block equal to B; KeyError if there is none."""
        key = (B.carrier, B.coaction)
        if B.hopf != self.hopf or key not in self._index:
            raise KeyError("comodule is not a block of the diagram")
        return self._index[key]

    def _add(self, B):
        require(isinstance(B, Comodule), "a block must be a comodule")
        require(B.hopf == self.hopf, "block over a different Hopf algebra")
        if (B.carrier, B.coaction) not in self._index:
            self._index[(B.carrier, B.coaction)] = len(self.blocks)
            self.blocks.append(B)
        return self.index(B)

    def derived(self, construct, *operands):
        """construct(H) without operands, else construct applied to the
        operands with block indices replaced by their blocks (act's object
        passes as is); built once per diagram and its enlargements."""
        key = (construct,) + operands
        if key not in self._derived:
            args = [self.blocks[x] if isinstance(x, int) else x
                    for x in operands]
            self._derived[key] = construct(*(args or [self.hopf]))
        return self._derived[key]

    def hom_basis(self, ai, bi):
        """The hom basis from block ai to block bi, computed once."""
        if (ai, bi) not in self._homs:
            self._homs[(ai, bi)] = hom_space(self.blocks[ai], self.blocks[bi])
        return self._homs[(ai, bi)]

    def enlarged(self, *extra, balance=(), actions=()):
        """A copy with more blocks and gluings appended; it keeps this
        diagram's blocks, gluings, derived comodules and hom bases."""
        big = copy.copy(self)
        for name in ("blocks", "acted", "balance", "_index", "_derived",
                     "_homs"):
            setattr(big, name, copy.copy(getattr(self, name)))
        big._extend(extra, balance, actions)
        return big


def default_diagram(H, probes=()):
    """The stock diagram: regular and unit blocks, the square of the regular
    block, one inert action block, and balancing probes at every nonzero
    degree of the grading group.  Extra probe degrees add further balancing
    lines against the same anchors."""
    ctx = H.carrier.ctx
    core = Diagram(H, [regular_comodule(H)])
    reg, one = core.blocks[core.regular], core.derived(unit_comodule)
    nonzero = [d for d in ctx.group.elements() if d != ctx.group.zero]
    act_deg = nonzero[0] if nonzero else ctx.group.zero
    actions = [(reg, line_object(ctx, "t", act_deg))]
    balance = []
    for k, d in enumerate(nonzero):
        L = line_object(ctx, "l%d" % k, d)
        balance.append((reg, L))
        balance.append((one, L))
    for k, d in enumerate(probes):
        L = line_object(ctx, "p%d" % k, d)
        balance.append((reg, L))
        balance.append((one, L))
    return core.enlarged(one, core.derived(comodule_tensor, core.regular,
                                           core.regular),
                         balance=balance, actions=actions)


def reconstruction_diagram(H, probes=()):
    """The default diagram plus the dual of the regular block (the extra
    block the antipode extraction needs)."""
    base = default_diagram(H, probes)
    return base.enlarged(base.derived(comodule_dual, base.regular))


def derived_block(D, name, construct, *operands):
    """D.index(D.derived(...)), or InvalidStructureError naming the block."""
    try:
        return D.index(D.derived(construct, *operands))
    except KeyError:
        raise InvalidStructureError("the %s is not a block of the diagram"
                                    % name) from None


def stability_blocks(base):
    """The enlargements `bhl stability` checks, as (name, block): the
    regular block acted on by a degree-zero line, its sum with the unit
    block, and its dual."""
    ctx = base.hopf.carrier.ctx
    reg = base.regular
    one = derived_block(base, "unit comodule", unit_comodule)
    line = line_object(ctx, "s", ctx.group.zero)
    return [("action_line_block", base.derived(act, reg, line)),
            ("direct_sum_block", base.derived(direct_sum_comodule, reg, one)),
            ("dual_block", base.derived(comodule_dual, reg))]


def _block_spaces(diagram):
    """(each block's offset in the ambient space, the ambient dimension)"""
    offsets, total = [], 0
    for B in diagram.blocks:
        offsets.append(total)
        total += B.carrier.dim ** 2
    return offsets, total


def _block_at(offsets, p):
    """(block index, coordinate within the block) of ambient coordinate p."""
    bi = bisect_right(offsets, p) - 1
    return bi, p - offsets[bi]


def _relation_columns(diagram, offsets, cofree, blocks_done=0,
                      balance_done=0):
    """Yield ("family-name", column-dict) for every relation between two
    cofree blocks -- the keys of `cofree`, in block order -- that the
    prefix of `blocks_done` blocks and `balance_done` gluings lacks, in a
    fixed deterministic order: balancing, then dinaturality by target
    block, then by source block; within a pair the columns run over
    `hom_space`'s formula basis, then a, then b."""
    blocks = diagram.blocks
    one = diagram.hopf.carrier.ctx.field.one
    neg_one = -one
    for k in range(balance_done, len(diagram.balance)):
        ci, wi = diagram.balance[k]
        if ci not in cofree or wi not in cofree:
            continue
        n = blocks[wi].carrier.dim
        offC, offW = offsets[ci], offsets[wi]
        name = "balancing[%d]" % k
        for b in range(n):
            for a in range(n):
                yield name, {offC + b * n + a: one, offW + b * n + a: neg_one}
    for bi in cofree:
        for ai in cofree:
            if ai < blocks_done and bi < blocks_done:
                continue
            dA, dB = blocks[ai].carrier.dim, blocks[bi].carrier.dim
            offA, offB = offsets[ai], offsets[bi]
            name = "dinaturality[%d->%d]" % (ai, bi)
            for f in diagram.hom_basis(ai, bi):
                f_cols = f.matrix.transpose().data
                neg_rows = [{j: -v for j, v in row.items()}
                            for row in f.matrix.data]
                for a in range(dA):
                    for b in range(dB):
                        col = {offB + i * dB + b: v
                               for i, v in f_cols[a].items()}
                        for j, v in neg_rows[b].items():
                            c = offA + a * dA + j
                            col[c] = col[c] + v if c in col else v
                        if ai == bi:  # only then can the two sums cancel
                            col = {c: v for c, v in col.items() if v}
                        if col:
                            yield name, col


class CoendResult:
    """The computed quotient with its canonical presentation.

    `quotient` is a graded object (basis c0, c1, ... with the degrees of the
    free ambient coordinates); `pi(i)` is the universal projection from
    block i's F(B) (x) *F(B) as a morphism of the graded category.
    `certificate` holds the reduced rows {pivot: row} of the relations
    supported on the cofree blocks that certified the presentation (see the
    module docstring), from which `enlarged` resumes.  `presentation`
    stores the free coordinates F, P_F -- the candidate's columns at F, H's
    basis by the quotient's -- and P_F^-1; no projection is stored, and
    each pi_B is built from B's own coaction.
    """

    def __init__(self, diagram, offsets, presentation, quotient, certificate):
        self.diagram = diagram
        self.offsets = offsets
        self.presentation = presentation
        self.quotient = quotient
        self.certificate = certificate

    @property
    def dim(self):
        return self.presentation.quotient_dim

    def enlarged(self, *extra):
        """compute_coend(self.diagram.enlarged(*extra)), certified from the
        enlargement's own candidate.  The elimination on the cofree blocks
        resumes from this coend's certificate rows, and only the columns
        the enlargement adds are streamed."""
        return _certify(self.diagram.enlarged(*extra), base=self)

    def pi(self, i):
        """The universal map F(B) (x) *F(B) -> quotient of block i."""
        V = self.diagram.blocks[i].carrier
        return GradedMorphism(tensor_obj(V, dual_object(V)), self.quotient,
                              self.pi_matrix(i))

    def pi_matrix(self, i):
        """The matrix of `pi(i)`, P_F^-1 times block i's candidate, for
        callers that need no labelled source object."""
        return self.presentation.p_free_inverse * _block_candidate(
            self.diagram.blocks[i], self.diagram.hopf.carrier.dim)

    def check_regular_surjective(self):
        """The regular block alone must already cover the quotient."""
        r = self.pi_matrix(self.diagram.regular).rank()
        if r < self.dim:
            raise PiNotSurjectiveError(
                "regular block covers only %d of %d quotient dimensions"
                % (r, self.dim))

    def residual_report(self):
        """Whether the presentation identities hold.  That every relation
        column projects to zero is lemma (a) of the module docstring, whose
        premises the certificate checked."""
        try:
            self.presentation.verify()
            ok = True
        except InvalidStructureError:
            ok = False
        return FlagReport([("presentation", ok)])


def _block_candidate(B, n):
    """Block B's columns of the matrix-coefficient map P, psi_bar of its
    coaction: the n x dB^2 matrix with P[h][c*dB + k] = coaction[h*dB + k][c],
    read off the coaction's nonzeros."""
    d = B.carrier.dim
    rows = [{} for _ in range(n)]
    for row, entries in enumerate(B.coaction.matrix.data):
        h, k = divmod(row, d)
        for c, v in entries.items():
            rows[h][c * d + k] = v
    return Matrix.from_rows(B.carrier.ctx.field, rows, d * d)


def _free_coordinates(diagram, offsets, n):
    """(F, P_F) for F the coordinates j whose column P e_j is independent
    of the later columns -- the free coordinates of the canonical
    presentation of ker P -- and P_F the n x n matrix of P's columns at F.
    The scan runs backwards, one block's candidate at a time, and stops at
    n; CoendNotCertifiedError if rank P < n."""
    elim = SparseEliminator(diagram.hopf.carrier.ctx.field)
    free, rows = [], [{} for _ in range(n)]
    for bi in range(len(diagram.blocks) - 1, -1, -1):
        cols = _block_candidate(diagram.blocks[bi], n).transpose().data
        for j in range(len(cols) - 1, -1, -1):
            if cols[j] and elim.add(dict(cols[j])):
                for h, v in cols[j].items():
                    rows[h][n - 1 - len(free)] = v
                free.append(offsets[bi] + j)
                if len(free) == n:
                    return free[::-1], Matrix.from_rows(elim.field, rows, n)
    raise CoendNotCertifiedError("rank P is %d, below dim H = %d"
                                 % (len(free), n))


def _check_counit_lemma(diagram, cofree):
    """That the counit lemma of the module docstring covers every block
    that is not cofree: each degree of its basis vectors is the degree of a
    cofree block.  `cofree` maps each cofree block's index to its degree;
    CoendNotCertifiedError names the first block the lemma misses."""
    degrees = set(cofree.values())
    for ai, A in enumerate(diagram.blocks):
        V = A.carrier
        for a in range(V.dim):
            if ai not in cofree and V.degree(a) not in degrees:
                raise CoendNotCertifiedError(
                    "block %d has basis vectors of degree %s, and no cofree "
                    "block has that degree" % (ai, list(V.degree(a))))


def _certify(diagram, base=None):
    """The coend certified from the candidate; CoendNotCertifiedError names
    the premise that fails.  `base` is the coend of a diagram that this one
    enlarges: its relations are not streamed again (see
    `CoendResult.enlarged`)."""
    offsets, total = _block_spaces(diagram)
    ctx = diagram.hopf.carrier.ctx
    n = diagram.hopf.carrier.dim
    blocks = diagram.blocks
    for ci, wi in diagram.balance:  # the premise of lemma (a)
        if blocks[ci].coaction.matrix != blocks[wi].coaction.matrix:
            raise CoendNotCertifiedError(
                "glued block %d coacts unlike its anchor %d" % (ci, wi))
    cofree = {bi: d for bi, d in ((bi, cofree_degree(B))
                                  for bi, B in enumerate(blocks))
              if d is not None}
    _check_counit_lemma(diagram, cofree)
    free, p_free = _free_coordinates(diagram, offsets, n)

    elim, prefix = SparseEliminator(ctx.field), ()
    if base is not None:
        elim.rows = dict(base.certificate)
        prefix = (len(base.diagram.blocks), len(base.diagram.balance))
    target = sum(blocks[bi].carrier.dim ** 2 for bi in cofree) - n
    if elim.rank < target:
        for _, col in _relation_columns(diagram, offsets, cofree, *prefix):
            if elim.add(col) and elim.rank >= target:
                break
    if elim.rank < target:
        raise CoendNotCertifiedError(
            "the relations on the cofree blocks reach rank %d, and "
            "|T| - n = %d is needed" % (elim.rank, target))

    pres = QuotientPresentation(total, free, p_free, p_free.inverse())

    def coord_degree(p):  # deg v_c - deg v_k at v_c (x) *v_k
        bi, q = _block_at(offsets, p)
        V = blocks[bi].carrier
        c, k = divmod(q, V.dim)
        return ctx.group.add(V.degree(c), ctx.group.neg(V.degree(k)))

    quotient = GradedObject(ctx, [("c%d" % k, coord_degree(p))
                                  for k, p in enumerate(free)])
    return CoendResult(diagram, offsets, pres, quotient, elim.rows)


def compute_coend(diagram):
    """The canonical quotient, certified from the matrix-coefficient
    candidate (see the module docstring); CoendNotCertifiedError names the
    premise that fails.  For an enlargement of a diagram with a known
    coend, use its `enlarged`."""
    return _certify(diagram)


def check_stability(small, big):
    """Compare the coends of a diagram and an enlargement of it: the
    comparison kappa, which sends each small quotient basis vector at its
    free ambient coordinate through the big projection, must be an
    isomorphism commuting with every shared universal map.  Both projections
    are P_F^-1 P of one candidate P, so kappa = Pb_F^-1 Ps_F is invertible
    when the dimensions agree, and kappa pi_small,i = Pb_F^-1 P|_i =
    pi_big,j.  The flags hold by that lemma once its premise is checked: each
    block of small is one of big (InvalidStructureError naming the first
    that is not).  The tests' oracle `stability_by_kappa` computes kappa."""
    blocks = small.diagram.blocks
    for i, B in enumerate(blocks):
        try:
            big.diagram.index(B)
        except KeyError:
            raise InvalidStructureError(
                "block %d of the diagram is not a block of its enlargement"
                % i) from None
    same = small.dim == big.dim
    return FlagReport([("dims_match", same), ("comparison_iso", same)] + [
        ("intertwines_pi[%d]" % i, True) for i in range(len(blocks))])
