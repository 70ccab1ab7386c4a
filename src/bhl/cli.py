"""Command-line front end for the exact Hopf-algebra engine.

The commands are the keys of ``HANDLERS``; ``bhl --help`` lists them with
their one-line help.

Input is either ``--builtin NAME`` (see ``bhl.catalog.BUILTIN_NAMES``; a
parameter is spelled in canonical decimal, as in ``taft:2``) or a JSON spec
file giving the ambient category (field / group / bicharacter),
named graded objects, a Hopf datum (a builtin reference or explicit
structure matrices with entries like ``"1/2"`` or ``"2*z^3-1"``), and
optional Yetter-Drinfeld modules.

Options may come before or after the command.  ``--probes`` adds balancing
probe degrees to the diagram of ``reconstruct``, ``verify-reconstruction``
and ``stability``, and the report's inputs record them; the other commands
refuse it as a usage error.

Reports are canonical JSON: sorted keys, two-space indent, LF endings, and
no volatile fields (timing appears only in the human summary), so equal
inputs yield byte-identical report files.  The digest is the sha256 of a
spec file's bytes, or of the canonical JSON of the inputs for a builtin;
with ``--probes``, a spec file's digest is that of the canonical JSON of
its sha256 and the probe degrees, so it covers what the report's inputs
record.

Each command runs in a process of its own, so this module imports only the
layers every command needs (`exactalg`, `gradedcat`, `braidedhopf`).  The
catalog loads only at `_builtin`, when an input names a builtin, and
`coend`, `comodcat` and `reconstruct` only in the commands that run them.
``python -m bhl`` and ``python -m bhl.cli`` end by `exit_after_flush`:
once stdout and stderr are flushed, ``os._exit`` skips the interpreter's
teardown.  The ``bhl`` console script calls `main` and keeps the
interpreter's normal exit, as in-process callers of `main` do.

Each input is verified once, in `main`, as soon as it is loaded: for the
commands of ``ENTRY_CHECKED`` it must pass `ensure_hopf` (its Hopf axioms
are checked; a datum without S is checked as a bialgebra and S is solved
for), and a datum that fails ends with ``error[NotHopf]``.  No command
checks its input itself: ``check-hopf`` reports the axioms and
``antipode`` solves for S, so neither runs the entry check.  The catalog
builds its entries by formula and checks nothing, and what the commands
build from a checked input (comodules, their tensor products,
duals and sums) holds by theorem and is not checked again.

The ``BHL_THREADS`` environment variable is validated but reserved: when
set it must be a positive integer in canonical decimal, the one spelling
that builtin parameters and probe coordinates accept too (``02``, ``+3``,
`` 2`` and ``1_0`` are usage errors, as is anything else), yet it
drives no parallelism -- the engine runs in one thread -- and never affects
results.  Exit status: 0 all checks pass, 1 a check failed or a
computation error was reported (among them ``NotHopf``, an input that
fails the entry check), 2 usage or input errors.
"""

import argparse
import hashlib
import json
import os
import sys
import time

from .braidedhopf import (
    BialgebraData, CheckReport, HopfAlgebraData, YDModuleData,
    antipode_residual, bosonize_with_maps, braid_relation, check_bialgebra,
    check_hopf, check_hopf_morphism, check_yd, solve_antipode, yd_braiding,
    yd_braiding_inverse, yd_samples,
)
from .exactalg import (CycloField, EngineError, InvalidStructureError,
                       Matrix, canonical_int, format_scalar, parse_scalar)
from .gradedcat import (AbelianGroup, Bicharacter, Context, GradedMorphism,
                        GradedObject, identity_mor, tensor_obj, unit_object)

# The catalog is imported at one site, `_builtin`, and the coend and
# reconstruction modules only by the commands that use them: each command is
# a process of its own, and loading a module it does not run (a compile,
# when bytecode is not cached) costs its start-up for nothing.  A
# function-local import reads the module's attribute at each call, so a
# caller that rebinds `bhl.catalog.build` is still heard.


class SchemaError(ValueError):
    """A spec file or flag violates the input schema."""


def _require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _entry(doc, key, default):
    """doc[key], or default if the key is absent or null: a falsy value of
    another type is not taken for an absent one."""
    value = doc.get(key)
    return default if value is None else value


def _is_int(x):
    """A JSON integer (JSON true/false load as bool, which is not one)."""
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# spec-file (de)serialization
# ---------------------------------------------------------------------------

def context_from_spec(doc):
    fspec = doc.get("field")
    _require(isinstance(fspec, dict) and "cyclotomic_order" in fspec,
             "missing field.cyclotomic_order")
    order = fspec["cyclotomic_order"]
    _require(_is_int(order) and order >= 1,
             "field.cyclotomic_order must be a positive integer")
    field = CycloField(order)
    gspec = _entry(doc, "group", {})
    _require(isinstance(gspec, dict), "group must be an object")
    factors = _entry(gspec, "invariant_factors", [])
    _require(isinstance(factors, list)
             and all(_is_int(n) and n >= 1 for n in factors),
             "group.invariant_factors must be positive integers")
    group = AbelianGroup(factors)
    bspec = doc.get("bicharacter")
    if bspec is None:
        return Context(field, group, Bicharacter.trivial(group))
    _require(isinstance(bspec, dict) and "root_order" in bspec
             and "exponent_matrix" in bspec,
             "bicharacter needs root_order and exponent_matrix")
    r, E = bspec["root_order"], bspec["exponent_matrix"]
    _require(_is_int(r) and r >= 1,
             "bicharacter.root_order must be a positive integer")
    _require(isinstance(E, list)
             and all(isinstance(row, list) and all(map(_is_int, row))
                     for row in E),
             "bicharacter.exponent_matrix must be a list of integer rows")
    _require(r <= 2 or field.order % r == 0,
             "bicharacter root order %d unavailable in Q(zeta_%d)"
             % (r, field.order))
    try:
        chi = Bicharacter(group, r, E)
    except (ValueError, InvalidStructureError) as exc:
        raise SchemaError("bad bicharacter: %s" % exc) from None
    return Context(field, group, chi)


def context_to_spec(ctx):
    return {
        "field": {"cyclotomic_order": ctx.field.order},
        "group": {"invariant_factors": list(ctx.group.invariant_factors)},
        "bicharacter": {
            "root_order": ctx.chi.root_order,
            "exponent_matrix": [list(row) for row in ctx.chi.exponent_matrix],
        },
    }


def object_from_spec(ctx, name, doc):
    _require(isinstance(doc, dict) and isinstance(doc.get("labels"), list),
             "object %r needs a labels list" % name)
    labels = doc["labels"]
    degrees = doc.get("degrees")
    if degrees is None:
        degrees = [[0] * ctx.group.rank] * len(labels)
    _require(isinstance(degrees, list) and len(degrees) == len(labels),
             "object %r: degrees must match labels" % name)
    _require(all(isinstance(d, list) and len(d) == ctx.group.rank
                 and all(_is_int(x) for x in d) for d in degrees),
             "object %r: each degree must be a list of %d integer(s)"
             % (name, ctx.group.rank))
    try:
        return GradedObject(ctx, [(str(l), tuple(d))
                                  for l, d in zip(labels, degrees)])
    except (InvalidStructureError, TypeError) as exc:
        raise SchemaError("object %r: %s" % (name, exc)) from None


def objects_from_spec(ctx, doc):
    """The named graded objects of a spec document."""
    specs = _entry(doc, "objects", {})
    _require(isinstance(specs, dict), "objects must map names to objects")
    return {name: object_from_spec(ctx, name, od)
            for name, od in specs.items()}


def object_to_spec(V):
    return {"labels": [l for l, _ in V.basis],
            "degrees": [list(d) for _, d in V.basis]}


def matrix_from_spec(field, doc, rows, cols, what):
    _require(isinstance(doc, list) and len(doc) == rows
             and all(isinstance(r, list) and len(r) == cols for r in doc),
             "%s must be a %dx%d array" % (what, rows, cols))
    try:
        ents = [[parse_scalar(field, str(e)) for e in row] for row in doc]
    except ValueError as exc:
        raise SchemaError("%s: %s" % (what, exc)) from None
    except ZeroDivisionError:
        raise SchemaError("%s: an entry divides by zero" % what) from None
    return Matrix(field, ents, cols=cols)


def matrix_to_spec(m):
    return [[format_scalar(e) for e in row] for row in m.entries]


def morphism_from_spec(field, doc, source, target, what):
    mat = matrix_from_spec(field, doc, target.dim, source.dim, what)
    try:
        return GradedMorphism(source, target, mat)
    except InvalidStructureError:
        raise SchemaError("%s is not degree-preserving" % what) from None


def _builtin(name):
    """The catalog entry `name`, for ``--builtin`` and ``hopf.builtin``
    alike; a name the catalog refuses is a SchemaError."""
    from .catalog import build
    try:
        return build(name)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def datum_from_spec(doc):
    """The Hopf (or bialgebra) datum of a spec document plus its named
    objects.  A ``hopf.builtin`` reference supplies its own context."""
    _require(isinstance(doc, dict), "spec root must be a JSON object")
    block = doc.get("hopf")
    _require(isinstance(block, dict), "missing hopf block")
    if "builtin" in block:
        datum = _builtin(str(block["builtin"]))
        return datum, objects_from_spec(datum.carrier.ctx, doc)
    ctx = context_from_spec(doc)
    objects = objects_from_spec(ctx, doc)
    cname = block.get("carrier")
    _require(isinstance(cname, str) and cname in objects,
             "hopf.carrier must name one of the objects")
    H = objects[cname]
    unit = unit_object(ctx)
    HH = tensor_obj(H, H)
    field = ctx.field
    m = morphism_from_spec(field, block.get("m"), HH, H, "hopf.m")
    u = morphism_from_spec(field, block.get("u"), unit, H, "hopf.u")
    delta = morphism_from_spec(field, block.get("delta"), H, HH, "hopf.delta")
    eps = morphism_from_spec(field, block.get("eps"), H, unit, "hopf.eps")
    if block.get("S") is None:
        return BialgebraData(H, m, u, delta, eps), objects
    S = morphism_from_spec(field, block.get("S"), H, H, "hopf.S")
    return HopfAlgebraData(H, m, u, delta, eps, S), objects


def hopf_to_spec(H):
    """A spec document for a Hopf or bialgebra datum; round-trips through
    datum_from_spec entrywise."""
    doc = context_to_spec(H.carrier.ctx)
    doc["objects"] = {"H": object_to_spec(H.carrier)}
    block = {
        "carrier": "H",
        "m": matrix_to_spec(H.m.matrix),
        "u": matrix_to_spec(H.u.matrix),
        "delta": matrix_to_spec(H.delta.matrix),
        "eps": matrix_to_spec(H.eps.matrix),
    }
    if isinstance(H, HopfAlgebraData):
        block["S"] = matrix_to_spec(H.S.matrix)
    doc["hopf"] = block
    return doc


def yd_from_spec(doc, hopf, objects):
    mods = []
    field = hopf.carrier.ctx.field
    specs = _entry(doc, "yd_modules", [])
    _require(isinstance(specs, list), "yd_modules must be a list")
    for k, md in enumerate(specs):
        _require(isinstance(md, dict), "yd_modules entries must be objects")
        name = str(md.get("name", "yd%d" % k))
        cname = md.get("carrier")
        _require(isinstance(cname, str) and cname in objects,
                 "yd module %r: carrier must name one of the objects" % name)
        V = objects[cname]
        HV = tensor_obj(hopf.carrier, V)
        action = morphism_from_spec(field, md.get("action"), HV, V,
                                    "%s.action" % name)
        coaction = morphism_from_spec(field, md.get("coaction"), V, HV,
                                      "%s.coaction" % name)
        mods.append((name, YDModuleData(hopf, V, action, coaction)))
    return mods


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def canonical_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def checks_from_residuals(report, prefix=""):
    out = []
    for name, r in report.checks:
        zero = r.is_zero()
        entry = {"name": prefix + name,
                 "residual": "zero" if zero else "nonzero",
                 "status": "pass" if zero else "fail"}
        if not zero:
            i, j, v = report.witness(name)
            entry["witness"] = {"row": i, "col": j, "value": format_scalar(v)}
        out.append(entry)
    return out


def checks_from_flags(report, prefix=""):
    return [{"name": prefix + name, "status": "pass" if ok else "fail"}
            for name, ok in report.checks]


class NotHopfError(EngineError):
    code = "NotHopf"


def _require_passed(report):
    """NotHopfError naming every failing check of `report`, with the
    witness (row, col, value) of the first, unless it passed."""
    failures = report.failures()
    if failures:
        i, j, v = report.witness(failures[0])
        raise NotHopfError("not a Hopf algebra: %s fail%s; %s at row %d, "
                           "col %d: %s" % (", ".join(failures),
                                           "" if len(failures) > 1 else "s",
                                           failures[0], i, j,
                                           format_scalar(v)))


def ensure_hopf(datum):
    """The one check of an input: a Hopf datum must pass `check_hopf`; a
    bialgebra datum must pass `check_bialgebra`, and is then promoted by
    solving for the antipode (`solve_antipode` proves it two-sided).
    Raises NotHopfError on a failed check."""
    if isinstance(datum, HopfAlgebraData):
        _require_passed(check_hopf(datum))
        return datum
    _require_passed(check_bialgebra(datum))
    S = solve_antipode(datum)
    return HopfAlgebraData(datum.carrier, datum.m, datum.u, datum.delta,
                           datum.eps, S)


def _read_probes(args, datum, inputs):
    """Parse a given --probes list into args.probes, degrees reduced in the
    datum's group, and record them in `inputs`.  A coordinate must be
    spelled as str() writes its int (`canonical_int`, signed)."""
    if args.probes is None:
        return
    group, out = datum.carrier.ctx.group, []
    for item in args.probes.split(","):
        parts = item.split(":")
        degree = [canonical_int(x, signed=True) for x in parts]
        _require(None not in degree,
                 "bad probe %r: coordinates must be canonical decimal "
                 "integers" % item)
        _require(len(parts) == group.rank,
                 "probe %r must have %d coordinate(s)" % (item, group.rank))
        out.append(group.element(degree))
    args.probes = tuple(out)
    inputs["probes"] = [list(d) for d in out]


# ---------------------------------------------------------------------------
# subcommands: each returns (payload-body, passed)
# ---------------------------------------------------------------------------

def cmd_check_hopf(datum, args, doc, objects):
    if isinstance(datum, HopfAlgebraData):
        rep = check_hopf(datum)
    else:
        rep = check_bialgebra(datum)
    return ({"dimensions": {"hopf": datum.carrier.dim},
             "checks": checks_from_residuals(rep)}, rep.passed)


def cmd_antipode(datum, args, doc, objects):
    B = BialgebraData(datum.carrier, datum.m, datum.u, datum.delta, datum.eps)
    S = solve_antipode(B)
    rep = CheckReport([("antipode_" + side, antipode_residual(B, S, side))
                       for side in ("left", "right")])
    checks = checks_from_residuals(rep)
    ok = rep.passed
    if isinstance(datum, HopfAlgebraData):
        same = S == datum.S
        checks.append({"name": "matches_given_antipode",
                       "status": "pass" if same else "fail"})
        ok = ok and same
    return ({"dimensions": {"hopf": B.carrier.dim},
             "antipode": matrix_to_spec(S.matrix), "checks": checks}, ok)


def cmd_yd_check(H, args, doc, objects):
    mods = (yd_samples(H) if _entry(doc or {}, "yd_modules", None) is None
            else yd_from_spec(doc, H, objects))
    rows, all_ok = [], True
    for name, yd in mods:
        rep = check_yd(yd)
        c = yd_braiding(yd, yd)
        cinv = yd_braiding_inverse(yd, yd)
        braid_rep = CheckReport([
            ("braid_relation", braid_relation(c, yd.carrier)),
            ("braiding_inverse", c * cinv - identity_mor(c.source)),
        ])
        checks = checks_from_residuals(rep) + checks_from_residuals(braid_rep)
        ok = rep.passed and braid_rep.passed
        all_ok = all_ok and ok
        rows.append({"name": name, "dimension": yd.carrier.dim,
                     "checks": checks, "status": "pass" if ok else "fail"})
    return ({"dimensions": {"hopf": H.carrier.dim}, "modules": rows}, all_ok)


def cmd_bosonize(R, args, doc, objects):
    bos = bosonize_with_maps(R)
    checks = checks_from_residuals(check_hopf(bos.hopf), "hopf:")
    checks += checks_from_residuals(
        check_hopf_morphism(bos.projection, bos.hopf, bos.group_hopf),
        "projection:")
    checks += checks_from_residuals(
        check_hopf_morphism(bos.inclusion, bos.group_hopf, bos.hopf),
        "inclusion:")
    retract = (bos.projection * bos.inclusion
               == identity_mor(bos.group_hopf.carrier))
    checks.append({"name": "projection_retracts_inclusion",
                   "status": "pass" if retract else "fail"})
    ok = retract and all(c["status"] == "pass" for c in checks)
    return ({"dimensions": {"input": R.carrier.dim,
                            "group": bos.group_hopf.carrier.dim,
                            "bosonization": bos.hopf.carrier.dim},
             "hopf_datum": hopf_to_spec(bos.hopf),
             "checks": checks}, ok)


def _run_reconstruction(H, args, emit_datum):
    from .coend import reconstruction_diagram
    from .reconstruct import reconstruct
    r = reconstruct(H, diagram=reconstruction_diagram(H, args.probes or ()))
    body = {
        "dimensions": {
            "hopf": H.carrier.dim,
            "coend": r.coend.dim,
            "ambient": r.coend.presentation.ambient_dim,
            "blocks": len(r.coend.diagram.blocks),
        },
        "comparison": matrix_to_spec(r.comparison.matrix),
        "checks": checks_from_flags(r.checks),
    }
    if emit_datum:
        body["hopf_datum"] = hopf_to_spec(r.quotient_hopf)
    return body, r.passed


def cmd_reconstruct(H, args, doc, objects):
    return _run_reconstruction(H, args, emit_datum=True)


def cmd_verify_reconstruction(H, args, doc, objects):
    return _run_reconstruction(H, args, emit_datum=False)


def cmd_stability(H, args, doc, objects):
    from .coend import (check_stability, compute_coend, default_diagram,
                        stability_blocks)
    base = default_diagram(H, args.probes or ())
    small = compute_coend(base)
    small.check_regular_surjective()
    rows, all_ok = [], True
    for name, block in stability_blocks(base):
        big = small.enlarged(block)
        rep = check_stability(small, big)
        ok = rep.passed and big.dim == H.carrier.dim
        all_ok = all_ok and ok
        rows.append({"name": name, "dimension": big.dim,
                     "checks": checks_from_flags(rep),
                     "status": "pass" if ok else "fail"})
    return ({"dimensions": {"hopf": H.carrier.dim, "coend": small.dim},
             "enlargements": rows}, all_ok)


HANDLERS = {
    "check-hopf": cmd_check_hopf,
    "antipode": cmd_antipode,
    "yd-check": cmd_yd_check,
    "bosonize": cmd_bosonize,
    "reconstruct": cmd_reconstruct,
    "verify-reconstruction": cmd_verify_reconstruction,
    "stability": cmd_stability,
}

# the commands that read --probes; the others refuse it
PROBES_READ_BY = ("reconstruct", "verify-reconstruction", "stability")
# the commands whose input `main` passes through `ensure_hopf` first
ENTRY_CHECKED = ("yd-check", "bosonize", "reconstruct",
                 "verify-reconstruction", "stability")

_HELP = {
    "check-hopf": "run the exact axiom suite on a Hopf datum",
    "antipode": "solve for the antipode by convolution inversion",
    "yd-check": "check Yetter-Drinfeld axioms and braiding relations",
    "bosonize": "bosonize a braided Hopf algebra and verify the maps",
    "reconstruct": "rebuild the Hopf datum from its comodule category",
    "verify-reconstruction": "run the full reconstruction verification",
    "stability": "check coend invariance under diagram enlargements",
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="bhl",
        usage="%(prog)s COMMAND [SPECFILE | --builtin NAME] [--probes LIST] "
              "[--out PATH]",
        description="exact checks and coend reconstruction for Hopf "
                    "algebras\nin braided graded categories",
        epilog="commands:\n" + "".join("  %-23s %s\n" % item
                                       for item in _HELP.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", choices=HANDLERS, metavar="COMMAND",
                   help="one of the commands listed below")
    p.add_argument("spec", nargs="?", metavar="SPECFILE",
                   help="JSON spec file describing the input")
    p.add_argument("--builtin", metavar="NAME",
                   help="catalog entry, e.g. sweedler or taft:2")
    p.add_argument("--probes", metavar="LIST",
                   help="extra probe degrees, comma-separated (coordinates "
                        "colon-separated); only for " + ", ".join(PROBES_READ_BY))
    p.add_argument("--out", metavar="PATH",
                   help="write the JSON report here instead of stdout")
    return p


def _threads_from_env():
    raw = os.environ.get("BHL_THREADS")
    if raw is None:
        return
    val = canonical_int(raw)
    _require(val is not None and val >= 1,
             "BHL_THREADS must be a positive integer, got %r" % raw)


def _digest(description):
    return hashlib.sha256(canonical_json(description).encode()).hexdigest()


def _load_input(args):
    if args.builtin and args.spec:
        raise SchemaError("give either --builtin or a spec file, not both")
    if args.builtin:
        datum = _builtin(args.builtin)
        desc = {"builtin": args.builtin}
        _read_probes(args, datum, desc)
        return datum, None, {}, desc, _digest(desc)
    if not args.spec:
        raise SchemaError("provide --builtin NAME or a spec file path")
    with open(args.spec, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError("parse error at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg)) from None
    except UnicodeDecodeError as exc:
        raise SchemaError("spec file is not UTF-8: %s" % exc) from None
    except (ValueError, RecursionError) as exc:  # an over-long int, deep nesting
        raise SchemaError("parse error: %s" % exc) from None
    datum, objects = datum_from_spec(doc)
    desc = {"file": os.path.basename(args.spec)}
    _read_probes(args, datum, desc)
    digest = hashlib.sha256(raw).hexdigest()
    if "probes" in desc:  # they change the diagram, so the digest covers them
        digest = _digest({"sha256": digest, "probes": desc["probes"]})
    return datum, doc, objects, desc, digest


def _emit(payload, out_path):
    text = canonical_json(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails here, not at exit


def _summary(payload, elapsed, out_path):
    stream = sys.stdout if out_path else sys.stderr
    print("%s: %s (%.2fs)" % (payload["command"], payload["status"], elapsed),
          file=stream)
    for c in payload.get("checks", []):
        print("  %-44s %s" % (c["name"], c["status"]), file=stream)
    for m in payload.get("modules", []):
        print("  module %-37s %s" % (m["name"], m["status"]), file=stream)
    for e in payload.get("enlargements", []):
        print("  enlargement %-32s dim %d %s"
              % (e["name"], e["dimension"], e["status"]), file=stream)
    stream.flush()


def _silence_stdout():
    """Point stdout at os.devnull, so that the interpreter's final flush
    of what a closed pipe refused stays quiet."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    parser = build_parser()
    # intermixed: options may come before COMMAND, and SPECFILE after them
    args = parser.parse_intermixed_args(argv)
    if args.probes is not None and args.command not in PROBES_READ_BY:
        parser.error("%s does not take --probes" % args.command)
    started = time.monotonic()
    try:
        try:
            _threads_from_env()
            datum, doc, objects, desc, digest = _load_input(args)
            if args.command in ENTRY_CHECKED:
                datum = ensure_hopf(datum)
            body, passed = HANDLERS[args.command](datum, args, doc, objects)
        except EngineError as exc:
            payload = {"command": args.command,
                       "error": {"code": exc.code, "message": str(exc)},
                       "status": "error"}
            _emit(payload, args.out)
            print("error[%s]: %s" % (exc.code, exc), file=sys.stderr)
            return 1
        payload = {"command": args.command, "inputs": desc, "digest": digest,
                   "status": "pass" if passed else "fail"}
        payload.update(body)
        _emit(payload, args.out)
        _summary(payload, time.monotonic() - started, args.out)
        return 0 if passed else 1
    except SchemaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            _silence_stdout()
        print("error: %s" % exc, file=sys.stderr)
        return 2


def exit_after_flush(code):
    """End the process with `code` as soon as stdout and stderr are
    flushed, skipping the interpreter's teardown of every module and
    object, which costs a short command more than its engine work.

    That is safe because nothing in bhl registers an atexit handler,
    starts a thread or leaves a file open: every report goes through
    `_emit` (a closed file, or a flushed stdout) and `_summary` (flushed).
    Keep it so.  If a flush fails (say, stdout is a closed pipe), the
    process ends by sys.exit as before."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stream, or a closed one
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    exit_after_flush(main())
