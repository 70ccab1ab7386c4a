"""The relative coend of the forgetful functor on a finite comodule diagram.

The ambient space is the direct sum, over the diagram's comodule blocks B,
of F(B) (x) *F(B).  Two relation families are divided out, exactly:

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
dimension).  The certificate checks

* (a) span R is inside ker P, by a lemma instead of a pass over the
  columns.  P kills the dinaturality columns of f: A -> B exactly when
  rho_B f = (id (x) f) rho_A, which every comodule map satisfies; it
  kills a balancing family exactly when the glued block's columns of P
  equal its anchor's, that is when their coaction matrices agree.  So (a)
  holds once P is checked against psi_bar of each coaction and each glued
  block's coaction against its anchor's.
* (b) the columns' images mod p reach rank N - n, for a prime p = 1 (mod
  the field order) at which zeta maps to a root of Phi_n and which divides
  no denominator met.  That map is a ring map, and a ring map never raises
  rank, so rank R >= N - n.  The columns are streamed balancing first;
  then, along the maps into cofree blocks (whose hom bases are written
  down, not eliminated; see `comodcat`), only the columns (a, b) with
  eps(h_b) != 0; then every other column, in `_hom_pairs` order.  The
  stream stops as soon as the rank reaches N - n.  The counit columns
  come first because by the counit axiom they are nearly triangular: the
  k-th formula map f = (id (x) E_a') rho_A has sum_b eps(h_b) f[b, j] =
  [j = a'], so where eps(h_b0) = 1 and eps vanishes on the other basis
  vectors, column (a, b0) has a single entry in A's block, at (a, a'),
  and almost every such column raises the rank.  (A group algebra has
  eps != 0 on every basis vector, so its order is `_hom_pairs` order.)
  Each hom-basis map the stream uses is checked to be colinear, once,
  before its first column, so every streamed column is a relation.  A
  map into a cofree block is checked by formula: it must be the k-th map
  (id (x) E_a) rho_A of `hom_space`'s basis, row for row, which is
  colinear because A's coaction is coassociative (checked when A was
  built) and the block's coaction is Delta (checked by `cofree_degree`).
  Any other map is checked by the product, `is_colinear`.

With rank P = n, (a) and (b) give span R = ker P exactly.  The canonical
presentation of ker P is read off P: coordinate j is free iff P e_j is
independent of the columns after j, the projection is P_F^-1 P, and the
reduced relation row of a pivot p is e_p - sum_k proj[k][p] e_(free k).
It is what eliminating the relations would give, entry for entry.  If
rank P < n, if a premise of (a) fails, if a streamed map is not colinear,
or if (b) fails at a few primes (a non-Hopf input, a diagram too small to
cut H out), every relation column is eliminated exactly instead, in the
same stream order, so every output, error paths included, is as
elimination gives it.  The reduced rows are canonical, so the stream
order changes no output.

An enlargement certifies itself from its own candidate:
`Diagram.enlarged` only appends blocks and gluings, so the base's relations
are relations of the enlargement, and only the new columns are streamed.
At the base's prime the rank bound resumes from the base's rows mod p; at
any other prime the base's reduced relation rows are streamed first.
"""

import copy
from itertools import chain, islice

from .exactalg import (EngineError, InvalidStructureError, Matrix,
                       QuotientPresentation, SparseEliminator,
                       _ModpEliminator, _modp_primes, cokernel_from_rref,
                       require)
from .gradedcat import (GradedMorphism, GradedObject, dual_object,
                        line_object, tensor_obj)
from .comodcat import (Comodule, FlagReport, act, cofree_degree,
                       comodule_dual, comodule_tensor, hom_space,
                       is_colinear, regular_comodule, unit_comodule)


class PiNotSurjectiveError(EngineError):
    code = "PiNotSurjective"


class Diagram:
    """A finite family of comodule blocks with balancing gluings.

    `comodules` are deduplicated by value; the regular comodule must be
    among them, and `regular` is its index.  Each action entry (W, X) adds
    the block W (|) X; each balancing entry (W, L) -- W a listed comodule,
    L a one-dimensional object -- adds the glued block W (|) *L and an
    exact identification of its classes with W's.

    The diagram owns block identity: `index` finds a block by value,
    `derived` builds (and so axiom-checks) a comodule made from blocks once
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


def _block_spaces(diagram):
    spaces, offsets, total = [], [], 0
    for B in diagram.blocks:
        S = tensor_obj(B.carrier, dual_object(B.carrier))
        spaces.append(S)
        offsets.append(total)
        total += S.dim
    return spaces, offsets, total


def _hom_pairs(diagram):
    """Ordered block pairs whose dinaturality relations are imposed: every
    source, targets no larger than the Hopf algebra itself (maps out of big
    blocks are what absorb them; maps into them add nothing new).  Pairs
    with a cofree target, whose hom bases need no elimination, come first."""
    n = diagram.hopf.carrier.dim
    targets = [bi for bi, B in enumerate(diagram.blocks) if B.carrier.dim <= n]
    targets.sort(key=lambda bi: cofree_degree(diagram.blocks[bi]) is None)
    return [(ai, bi) for bi in targets for ai in range(len(diagram.blocks))]


class _NotColinear(Exception):
    """A hom-basis element that the certificate was to use is not colinear."""


def _is_cofree_formula(f, k, A, B_degree):
    """Whether f is the k-th map of `hom_space`'s formula basis into a
    cofree block of degree B_degree: row h of f is row (h, a) of rho_A, a
    the k-th basis vector of A of that degree.  Such a map f is colinear:
    rho_B f = (Delta (x) E_a) rho_A = (id (x) f) rho_A is A's
    coassociativity, checked when A was built."""
    VA = A.carrier
    dA = VA.dim
    shifted = [a for a in range(dA) if VA.degree(a) == B_degree]
    if k >= len(shifted) or f.matrix.cols != dA:
        return False
    rho, a = A.coaction.matrix.data, shifted[k]
    return list(f.matrix.data) == [rho[h * dA + a]
                                   for h in range(A.hopf.carrier.dim)]


def _relation_columns(diagram, spaces, offsets, blocks_done=0,
                      balance_done=0, colinear=False):
    """Yield ("family-name", column-dict) for every relation that the
    prefix of `blocks_done` blocks and `balance_done` gluings lacks, in a
    fixed deterministic order: balancing; then, over the pairs with a
    cofree target in `_hom_pairs` order, the dinaturality columns (a, b)
    with eps(h_b) != 0; then every other dinaturality column, in
    `_hom_pairs` order.  Within a pair the columns run over the hom basis,
    then a, then b.  With `colinear`, each hom-basis map is checked to be
    colinear before its first column is yielded, and _NotColinear is
    raised if not: a map into a cofree block by comparing it with the
    formula map, any other by `is_colinear`."""
    blocks = diagram.blocks
    one = diagram.hopf.carrier.ctx.field.one
    neg_one = -one
    for k in range(balance_done, len(diagram.balance)):
        ci, wi = diagram.balance[k]
        n = blocks[wi].carrier.dim
        require(blocks[ci].carrier.dim == n,
                "a glued block must have its anchor's dimension")
        offC, offW = offsets[ci], offsets[wi]
        name = "balancing[%d]" % k
        for b in range(n):
            for a in range(n):
                yield name, {offC + b * n + a: one, offW + b * n + a: neg_one}
    pairs = [(ai, bi) for ai, bi in _hom_pairs(diagram)
             if ai >= blocks_done or bi >= blocks_done]
    cofree = {bi: cofree_degree(blocks[bi]) for _, bi in pairs}
    counit = sorted(diagram.hopf.eps.matrix.data[0])  # b with eps(h_b) != 0

    def columns(ai, bi, bs, check):
        A, B = blocks[ai], blocks[bi]
        dA, dB = A.carrier.dim, B.carrier.dim
        offA, offB = offsets[ai], offsets[bi]
        name = "dinaturality[%d->%d]" % (ai, bi)
        for k, f in enumerate(diagram.hom_basis(ai, bi)):
            if check and not ((cofree[bi] is not None
                               and _is_cofree_formula(f, k, A, cofree[bi]))
                              or is_colinear(f, A, B)):
                raise _NotColinear(name)
            f_cols = f.matrix.transpose().data
            neg_rows = [{j: -v for j, v in row.items()}
                        for row in f.matrix.data]
            for a in range(dA):
                for b in bs:
                    col = {offB + i * dB + b: v for i, v in f_cols[a].items()}
                    for j, v in neg_rows[b].items():
                        c = offA + a * dA + j
                        col[c] = col[c] + v if c in col else v
                    if ai == bi:  # only then can the two sums cancel
                        col = {c: v for c, v in col.items() if v}
                    if col:
                        yield name, col

    # the counit columns first: nearly triangular by the counit axiom (see
    # the module docstring), almost every one of them raises the rank.  The
    # maps into cofree blocks are checked there, before their first column
    for ai, bi in pairs:
        if cofree[bi] is not None:
            yield from columns(ai, bi, counit, colinear)
    for ai, bi in pairs:
        dB = blocks[bi].carrier.dim
        if cofree[bi] is None:
            yield from columns(ai, bi, range(dB), colinear)
        else:
            yield from columns(ai, bi, [b for b in range(dB)
                                        if b not in counit], False)


class CoendResult:
    """The computed quotient with its canonical presentation.

    `quotient` is a graded object (basis c0, c1, ... with the degrees of the
    free ambient coordinates); `pi(i)` is the universal projection from
    block i's F(B) (x) *F(B) as a morphism of the graded category.
    `certificate` is the prime of the rank bound when the presentation was
    certified (see the module docstring), None when it was eliminated.
    `modp_rows` are the rank bound's rows mod that prime, from which
    `enlarged` resumes; a caller that enlarges nothing may set them to
    None to free them (then `enlarged` streams the reduced relation rows).
    """

    def __init__(self, diagram, spaces, offsets, presentation, quotient,
                 certificate=None, modp_rows=None):
        self.diagram = diagram
        self.spaces = spaces
        self.offsets = offsets
        self.presentation = presentation
        self.quotient = quotient
        self.certificate = certificate
        self.modp_rows = modp_rows

    @property
    def dim(self):
        return self.presentation.quotient_dim

    def enlarged(self, *extra):
        """compute_coend(self.diagram.enlarged(*extra)), certified from the
        enlargement's own candidate.  Only the relations the enlargement
        adds are streamed.  The base's relations seed the rank bound: at
        the base's prime its mod-p rows are resumed as they are, at any
        other prime its reduced relation rows are streamed first.  Without
        a certificate the enlargement is eliminated from scratch."""
        big = self.diagram.enlarged(*extra)
        layout = _block_spaces(big)
        return _certified(big, *layout, base=self) or _eliminated(big, *layout)

    def pi(self, i):
        """The universal map F(B) (x) *F(B) -> quotient of block i."""
        S, off = self.spaces[i], self.offsets[i]
        end = off + S.dim
        P = self.presentation.projection
        rows = [{k - off: v for k, v in row.items() if off <= k < end}
                for row in P.data]
        return GradedMorphism(S, self.quotient,
                              Matrix.from_rows(P.field, rows, S.dim))

    def check_regular_surjective(self):
        """The regular block alone must already cover the quotient."""
        r = self.pi(self.diagram.regular).matrix.rank()
        if r < self.dim:
            raise PiNotSurjectiveError(
                "regular block covers only %d of %d quotient dimensions"
                % (r, self.dim))

    def residual_report(self):
        """Every relation column must project to zero, and the presentation
        identities must hold.  Under a certificate the lemma proved it for
        every dinaturality pair and balancing gluing (no hom basis is
        needed); otherwise every column is re-streamed through the
        projection."""
        if self.certificate is not None:
            checks = [("dinaturality[%d->%d]" % pair, True)
                      for pair in _hom_pairs(self.diagram)]
            checks += [("balancing[%d]" % k, True)
                       for k in range(len(self.diagram.balance))]
        else:
            P_cols = self.presentation.projection.transpose().data
            streamed, bad = set(), set()
            for name, col in _relation_columns(self.diagram, self.spaces,
                                               self.offsets):
                streamed.add(name)
                if name not in bad and not _kills(P_cols, col):
                    bad.add(name)
            # each family once, balancing first, then in `_hom_pairs` order
            names = ["balancing[%d]" % k
                     for k in range(len(self.diagram.balance))]
            names += ["dinaturality[%d->%d]" % pair
                      for pair in _hom_pairs(self.diagram)]
            checks = [(name, name not in bad) for name in names
                      if name in streamed]
        try:
            self.presentation.verify()
            checks.append(("presentation", True))
        except InvalidStructureError:
            checks.append(("presentation", False))
        return FlagReport(checks)


def _kills(cols, col):
    """Whether the map given by its columns `cols` sends col to zero."""
    image = {}
    for k, v in col.items():
        for q, p in cols[k].items():
            image[q] = image[q] + p * v if q in image else p * v
    return not any(image.values())


def _candidate(diagram, offsets, total):
    """The columns {h: value} of the matrix-coefficient map P: block B's
    columns are psi_bar of its coaction, P[h][off + c*dB + k] =
    coaction[h*dB + k][c], read off the coaction's nonzeros."""
    cols = [{} for _ in range(total)]
    for B, off in zip(diagram.blocks, offsets):
        d = B.carrier.dim
        for row, entries in enumerate(B.coaction.matrix.data):
            h, k = divmod(row, d)
            for c, v in entries.items():
                cols[off + c * d + k][h] = v
    return cols


def _canonical_projection(field, P, n):
    """(P_F^-1 P as columns, F) for F the coordinates j whose column P e_j
    is independent of the later columns -- the free coordinates of the
    canonical presentation of ker P -- or None if rank P < n."""
    elim = SparseEliminator(field)
    free = []
    for j in range(len(P) - 1, -1, -1):
        if P[j] and elim.add(dict(P[j])):
            free.append(j)
            if len(free) == n:
                break
    if len(free) < n:
        return None
    free.reverse()
    rows = [{} for _ in range(n)]
    for k, j in enumerate(free):
        for h, v in P[j].items():
            rows[h][k] = v
    inv = Matrix.from_rows(field, rows, n).inverse()
    return (Matrix.from_rows(field, P, n) * inv.transpose()).data, free


def _lemma_holds(diagram, offsets, P):
    """The premises under which P kills every relation: block B's columns
    of P are psi_bar of B's coaction, and each glued block's coaction
    matrix is its anchor's."""
    blocks = diagram.blocks
    for B, off in zip(blocks, offsets):
        d = B.carrier.dim
        nnz = 0
        for row, entries in enumerate(B.coaction.matrix.data):
            h, k = divmod(row, d)
            for c, v in entries.items():
                x = P[off + c * d + k].get(h)
                if x is None or x != v:
                    return False
            nnz += len(entries)
        if sum(map(len, P[off:off + d * d])) != nnz:
            return False
    return all(blocks[ci].coaction.matrix == blocks[wi].coaction.matrix
               for ci, wi in diagram.balance)


_PRIME_TRIES = 3  # primes tried for the rank bound before eliminating


def _rank_bound(field, target, rows, resume=None):
    """(p, rows mod p) for a prime p at which the images of the rows of
    rows(p) reach rank `target`, or None.  `resume` is (p, rows mod p) of
    an earlier bound, the starting rows at its own prime.  The stream stops
    as soon as the rank reaches the target; a prime dividing a denominator,
    or one at which the rank falls short, is replaced by the next,
    re-streaming the rows."""
    for p, root in islice(_modp_primes(field), _PRIME_TRIES):
        modp = _ModpEliminator(field, p, root)
        if resume is not None and resume[0] == p:
            modp.rows = dict(resume[1])
        if modp.rank < target:
            try:
                for row in rows(p):
                    if modp.add(row) and modp.rank >= target:
                        break
            except ZeroDivisionError:
                continue
        if modp.rank >= target:
            return p, modp.rows
    return None


def _presentation(field, total, proj, free):
    """The canonical presentation of ker P from (P_F^-1 P as columns, F):
    the reduced relation row of a pivot p is e_p - sum_k proj[p][k]
    e_(free k), and the projection is P_F^-1 P itself."""
    free_at = set(free)
    one = field.one
    rel = [{} for _ in range(total)]
    k = 0
    for p, col in enumerate(proj):
        if p not in free_at:
            rel[p][k] = one
            for q, v in col.items():
                rel[free[q]][k] = -v
            k += 1
    return QuotientPresentation(
        ambient_dim=total,
        relation_matrix=Matrix.from_rows(field, rel, k),
        free=free,
        projection=Matrix.from_rows(field, proj, len(free)).transpose(),
    )


def _certified(diagram, spaces, offsets, total, base=None):
    """The coend certified from the candidate, or None.  `base` is the
    coend of a diagram that this one enlarges: its relations are not
    streamed again (see `CoendResult.enlarged`)."""
    field = diagram.hopf.carrier.ctx.field
    n = diagram.hopf.carrier.dim
    P = _candidate(diagram, offsets, total)
    if not _lemma_holds(diagram, offsets, P):
        return None
    found = _canonical_projection(field, P, n)
    del P  # not needed by the presentation: lower its peak memory
    if found is None:
        return None

    resume, prefix = None, ()
    if base is not None:
        prefix = (len(base.diagram.blocks), len(base.diagram.balance))
        if base.modp_rows is not None:
            resume = (base.certificate, base.modp_rows)

    def rows(p):
        columns = _relation_columns(diagram, spaces, offsets, *prefix,
                                    colinear=True)
        columns = (col for _, col in columns)
        if base is None or (resume is not None and p == resume[0]):
            return columns
        # the base's relations, spanned by its reduced relation rows
        return chain(base.presentation.relation_matrix.transpose().data,
                     columns)

    try:
        bound = _rank_bound(field, total - n, rows, resume)
    except _NotColinear:
        return None
    if bound is None:
        return None
    return _result(diagram, spaces, offsets,
                   _presentation(field, total, *found), *bound)


def _eliminated(diagram, spaces, offsets, total):
    """The coend by exact elimination of every relation column."""
    field = diagram.hopf.carrier.ctx.field
    elim = SparseEliminator(field)
    for _, col in _relation_columns(diagram, spaces, offsets):
        elim.add(col)
    return _result(diagram, spaces, offsets,
                   cokernel_from_rref(field, total, elim.rref_rows()))


def _result(diagram, spaces, offsets, pres, certificate=None,
            modp_rows=None):
    def coord_degree(p):
        for S, off in zip(reversed(spaces), reversed(offsets)):
            if p >= off:
                return S.degree(p - off)
        raise IndexError(p)

    quotient = GradedObject(diagram.hopf.carrier.ctx,
                            [("c%d" % k, coord_degree(p))
                             for k, p in enumerate(pres.free)])
    return CoendResult(diagram, spaces, offsets, pres, quotient, certificate,
                       modp_rows)


def compute_coend(diagram):
    """The canonical quotient: certified from the matrix-coefficient
    candidate when the certificate holds, else by eliminating every
    relation column (see the module docstring).  For an enlargement of a
    diagram with a known coend, use its `enlarged`."""
    layout = _block_spaces(diagram)
    return _certified(diagram, *layout) or _eliminated(diagram, *layout)


def check_stability(small, big):
    """Compare the coends of a diagram and an enlargement of it.

    The comparison sends each small quotient basis vector, at its free
    ambient coordinate, through the big projection; it must be an
    isomorphism commuting with every shared universal map.
    """
    checks = [("dims_match", small.dim == big.dim)]
    shared = [big.diagram.index(B) for B in small.diagram.blocks]
    inj = {}
    for i, j in enumerate(shared):
        for k in range(small.spaces[i].dim):
            inj[small.offsets[i] + k] = big.offsets[j] + k
    Pb = big.presentation.projection
    Pb_cols = Pb.transpose().data
    kappa = Matrix.from_rows(
        Pb.field, [Pb_cols[inj[p]] for p in small.presentation.free],
        big.dim).transpose()
    checks.append(("comparison_iso",
                   small.dim == big.dim and kappa.rank() == small.dim))
    for i, j in enumerate(shared):
        lhs = kappa * small.pi(i).matrix
        rhs = big.pi(j).matrix
        checks.append(("intertwines_pi[%d]" % i, lhs == rhs))
    return FlagReport(checks)
