"""Command-line front end: parse group/representation specs, run one
computation or verification suite, and emit a deterministic JSON artifact.

Exit codes: 0 success, 1 user error, 2 check failure, 3 internal invariant
violation.  All error paths print a structured JSON object to stderr.
"""

import argparse
import json
import os
import sys
from math import lcm

from .errors import (
    MAX_TABLE_ORDER,
    InertialError,
    TheoremViolation,
    UserError,
    parse_int,
    parse_rational,
)
from .inertia import build_double_sectors, build_sectors, triple_sectors

# The group, scalar, character, log-trace, ring and Chern layers (and
# Fraction) are imported by the functions that use them, so a command
# compiles and loads only the layers it runs: verify --algebra, which reads
# no group, loads none of them but rings.

# The default cap on |G| of the commands that build pair classes or number
# the K basis (the character table of every centralizer).
PAIR_CLASS_ORDER = 200


def _read_json_spec(spec, what):
    """A spec is inline JSON (starts with '{') or a path to a JSON file."""
    if spec.lstrip().startswith("{"):
        text = spec
    else:
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise UserError("cannot read %s file %r: %s" % (what, spec, exc))
    try:
        data = json.loads(
            text, parse_int=lambda literal: parse_int(literal, "integer literal"))
    except (ValueError, RecursionError) as exc:
        raise UserError("malformed %s JSON: %s" % (what, exc))
    if not isinstance(data, dict):
        raise UserError("%s JSON must be an object" % what)
    return data


def _int_list(obj):
    return isinstance(obj, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in obj)


def _int_rows(obj):
    """Whether obj is a non-empty list of lists of integers."""
    return isinstance(obj, list) and bool(obj) and all(map(_int_list, obj))


def _spec_names(data, valid, what):
    """The optional "names" object of a JSON group spec, each value checked."""
    names = data.get("names")
    if names is not None and not (
            isinstance(names, dict) and all(map(valid, names.values()))):
        raise UserError('group "names" must map each name to %s' % what)
    return names


def _spec_label(data):
    """The optional "label" of a JSON group spec, which the artifacts echo."""
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise UserError('group "label" must be a string')
    return label


def load_group(spec, max_order=MAX_TABLE_ORDER):
    """The group a --group spec names, refused above max_order elements."""
    from .groups import (FiniteGroup, catalog_group, check_order,
                         group_from_permutations)

    spec = spec.strip()
    if spec.startswith("catalog:"):
        return catalog_group(spec[len("catalog:"):], max_order)
    data = _read_json_spec(spec, "group")
    kind = data.get("kind")
    if kind == "catalog":
        if not isinstance(data.get("name"), str):
            raise UserError('group kind "catalog" needs a "name" string')
        return catalog_group(data["name"], max_order)
    if kind == "table":
        table = data.get("table")
        if not _int_rows(table):
            raise UserError('group kind "table" needs a "table" list of '
                            "integer rows")
        n = len(table)
        names = _spec_names(data, lambda x: _int_list([x]) and 0 <= x < n,
                            "an element index below %d" % n)
        check_order(n, max_order)
        return FiniteGroup(table, names=names, label=_spec_label(data))
    if kind == "perm":
        gens = data.get("generators")
        if not _int_rows(gens):
            raise UserError('group kind "perm" needs a "generators" list of '
                            "integer permutations")
        names = _spec_names(data, _int_list, "a permutation")
        return group_from_permutations(
            [tuple(p) for p in gens], names=names, label=_spec_label(data),
            max_order=max_order,
        )
    raise UserError(
        'group spec must be "catalog:NAME" or JSON with kind table/perm/catalog'
    )


def _parse_value(obj, group):
    """A character value of group from JSON input."""
    from .cyclotomic import Cyclotomic, cyc

    if isinstance(obj, bool):
        raise UserError("character values must be numbers, not booleans")
    if isinstance(obj, int):
        return cyc(obj)
    if isinstance(obj, str):
        try:
            return cyc(parse_rational(obj))
        except (ValueError, ZeroDivisionError):
            raise UserError("cannot parse %.40r as a rational number" % obj)
    if isinstance(obj, dict):
        # a character value lies in Q(zeta_e), e the exponent; refuse any
        # other conductor before field work that grows with it
        n, e = obj.get("conductor"), group.exponent()
        if isinstance(n, int) and n > 0 and lcm(2, e) % n:
            raise UserError("conductor %d does not divide the group exponent "
                            "%d (or twice it, when it is odd)" % (n, e))
        try:
            return Cyclotomic.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise UserError("bad cyclotomic value %r: %s" % (obj, exc))
    raise UserError("cannot interpret %r as a character value" % (obj,))


_CATALOG_REPS = ("trivial", "zero", "regular", "sl2", "std")


def load_rep(spec, group):
    from .characters import (
        ClassFunction, assert_genuine_character, catalog_character)

    spec = spec.strip()
    if spec.startswith("catalog:"):
        return catalog_character(group, spec[len("catalog:"):])
    if spec.lower() in _CATALOG_REPS:
        return catalog_character(group, spec)
    data = _read_json_spec(spec, "representation")
    kind = data.get("kind")
    if kind == "catalog_rep":
        if not isinstance(data.get("name"), str):
            raise UserError('rep kind "catalog_rep" needs a "name" string')
        return catalog_character(group, data["name"])
    if kind == "character":
        values = data.get("values_by_class")
        if not isinstance(values, list):
            raise UserError('rep kind "character" needs "values_by_class"')
        r = len(group.conjugacy_classes())
        if len(values) != r:
            raise UserError(
                "expected one value per conjugacy class (%d classes in the "
                "emitted order, got %d values)" % (r, len(values))
            )
        v = ClassFunction(group, [_parse_value(x, group) for x in values])
        assert_genuine_character(v, "the supplied character")
        return v
    raise UserError(
        'rep spec must be "zero", "catalog:NAME", or JSON with kind '
        "character/catalog_rep"
    )


def check_chartable(group, path):
    """Refuse a user-supplied character table unless its rows are the
    irreducible characters of the group, in any order."""
    from .characters import ClassFunction, character_table

    data = _read_json_spec(path, "character table")
    rows = data.get("table")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise UserError("character table must be a list of rows")
    chars = [ClassFunction(group, [_parse_value(x, group) for x in row])
             for row in rows]
    table = character_table(group)
    if len(chars) != len(table) or set(chars) != set(table):
        raise UserError("supplied table is not the character table of %s"
                        % group.label)


def _frac(q):
    from fractions import Fraction

    return str(Fraction(q))


def _cf_json(v):
    return v.to_json()["values_by_class"]


# -- subcommand handlers ---------------------------------------------------------
#
# Every handler takes (G, v, args): the group and character that main's load
# step read for it, as add() declared, and the parsed options.


def cmd_group_info(G, v, args):
    sectors = build_sectors(G)
    classes = sectors.to_json()
    for entry in classes:
        entry["element_order"] = G.order_of(entry["representative"])
    return {
        "command": "group-info",
        "label": G.label,
        "order": G.n,
        "exponent": G.exponent(),
        "abelian": G.is_abelian(),
        "element_names": dict(sorted(G.names.items())),
        "classes": classes,
    }, 0


def cmd_chartable(G, v, args):
    from .characters import character_table

    if args.chartable_file:
        check_chartable(G, args.chartable_file)
    table = character_table(G)
    sectors = build_sectors(G)
    return {
        "command": "chartable",
        "order": G.n,
        "classes": [s.rep for s in sectors.sectors],
        "class_sizes": [len(c) for c in G.conjugacy_classes()],
        "element_orders": [G.order_of(s.rep) for s in sectors.sectors],
        "degrees": [int(chi.values[0].to_rational()) for chi in table],
        "table": [_cf_json(chi) for chi in table],
    }, 0


def cmd_age(G, v, args):
    from .logtrace import age

    x = G.element_from_string(args.element)
    return {
        "command": "age",
        "element": x,
        "class": G.class_of(x),
        "age": _frac(age(v, x)),
    }, 0


def cmd_logtrace(G, v, args):
    from .logtrace import log_trace

    x = G.element_from_string(args.element)
    lt = log_trace(v, x)
    return {
        "command": "logtrace",
        "element": x,
        "class": G.class_of(x),
        "centralizer_order": lt.sub.order,
        "rank": _frac(lt.rank),
        "values_by_class": _cf_json(lt.char),
        "scaled_integral": _frac(G.order_of(x)),
    }, 0


def cmd_obstruction(G, v, args):
    from .logtrace import twisted_pullback

    ms = tuple(G.element_from_string(t) for t in args.tuple.split(","))
    tc = twisted_pullback(v, ms)
    return {
        "command": "obstruction",
        "elements": list(tc.elements),
        "centralizer_order": tc.sub.order,
        "rank": _frac(tc.rank),
        "multiplicities": [_frac(m) for m in tc.mults],
        "values_by_class": _cf_json(tc.char),
        "is_zero": tc.is_zero(),
    }, 0


def cmd_ring(G, v, args):
    """chow-ring, k-ring and lusztig (the K ring of the zero character):
    the ring the command names, checked; exit 2 when a check fails."""
    from .rings import chow_ring, k_ring, verify

    alg = (chow_ring if args.command == "chow-ring" else k_ring)(G, v)
    checks = verify(alg, ["identity", "commutativity", "associativity",
                          "grading"])
    out = alg.to_json()
    out["command"] = args.command
    return out, 0 if all(checks.values()) else 2


def cmd_eta(G, v, args):
    from .rings import eta_pairing

    out = eta_pairing(G, args.mode).to_json()
    out["command"] = "eta"
    out["mode"] = args.mode
    return out, 0


def cmd_chern(G, v, args):
    from .chern import orbifold_chern
    from .rings import k_basis

    basis = k_basis(G)
    vectors = [
        [_frac(c) for c in orbifold_chern(G, {i: 1})]
        for i in range(basis.size)
    ]
    return {
        "command": "chern",
        "basis": basis.labels,
        "sectors": [s.rep for s in build_sectors(G).sectors],
        "vectors": vectors,
    }, 0


def cmd_star_t(G, v, args):
    """The transplanted product on the class-supported delta functions; the
    identity-class delta, index 0, is its unit."""
    from fractions import Fraction

    from .characters import trivial_character
    from .chern import star_T, support_project
    from .rings import GradedAlgebra, verify

    r = len(G.conjugacy_classes())
    one = trivial_character(G)
    deltas = [support_project(one, i) for i in range(r)]
    table = {}
    for i, a in enumerate(deltas):
        for j, b in enumerate(deltas):
            prod = star_T(a, b, G, v)
            terms = {}
            for k, val in enumerate(prod.values):
                q = val.to_rational()
                if q is None:
                    # a rational v has rational normal factors (products
                    # of norms), so only an irrational v can get here
                    if all(x.is_rational() for x in v.values):
                        raise TheoremViolation(
                            "transplanted product produced a non-rational "
                            "constant")
                    raise UserError(
                        "star-t writes rational constants, and this "
                        "character's transplanted constants are not "
                        "rational: the first is (i, j, k) = (%d, %d, %d)"
                        % (i, j, k))
                if q:
                    terms[k] = q
            if terms:
                table[(i, j)] = terms
    labels = ["d[%s]" % G.element_label(G.class_reps()[i]) for i in range(r)]
    alg = GradedAlgebra(labels, [Fraction(0)] * r, table, "rational", 0)
    checks = verify(alg, ["identity", "commutativity", "associativity"])
    out = alg.to_json()
    out["command"] = "star-t"
    out["identity_class_function"] = _cf_json(deltas[0])
    code = 0 if all(checks.values()) else 2
    return out, code


_VERIFY_FLAGS = (
    "associativity", "frobenius", "fw", "nonnegativity",
    "grading", "v_identities", "rr", "multiproduct",
)
# what verify --algebra cannot honor: a ring file has no group or character
_ALGEBRA_REFUSES = ("group", "rep", "max_order") + tuple(
    flag for flag in _VERIFY_FLAGS if flag not in ("associativity", "grading"))


def _verify_rings(G, v, names):
    report = {}
    ring_checks = [n for n in
                   ("identity", "commutativity", "associativity", "grading",
                    "frobenius", "multiproduct") if n in names]
    if not ring_checks and "rr" not in names:
        return report
    from .rings import chow_ring, k_ring, verify

    chow = chow_ring(G, v)
    kr = k_ring(G, v)
    if ring_checks:
        report["chow"] = verify(chow, ring_checks)
        report["k"] = verify(kr, ring_checks)
    if "rr" in names:
        from .chern import orbifold_chern

        chern = [{s: c for s, c in enumerate(orbifold_chern(G, {i: 1})) if c}
                 for i in range(kr.dim)]
        ok = True
        for i in range(kr.dim):
            for j in range(kr.dim):
                lhs = orbifold_chern(G, kr.table.get((i, j), {}))
                rhs_vec = chow.mul(chern[i], chern[j])
                rhs = [rhs_vec.get(s, 0) for s in range(chow.dim)]
                if lhs != rhs:
                    ok = False
        report["rr"] = {"chern_homomorphism": ok}
    return report


def _verify_tuples(G, v, names):
    """The checks over tuples of elements, each run on one tuple per class
    of simultaneous conjugation: conjugation moves every age, log trace,
    fixed space and obstruction class of a tuple onto those of its
    conjugate, so a check holds on a whole class or on none of it.  The
    counts are still of element tuples, the class sizes |G| / |Z(m)|: the
    age-sum bound's sectors s and pairs (a, b), which fw_check pads to
    (s, s^-1) and (a, b, (ab)^-1), must add up to |G| + |G|^2, and the
    identity family's triples to |G|^3."""
    from .logtrace import fw_check, twisted_pullback, v_identity_check

    report = {}
    if "nonnegativity" in names:
        # twisted_pullback raises TheoremViolation unless every coordinate
        # is a non-negative integer, so building each class's is the check
        classes = build_double_sectors(G)
        for cls in classes:
            twisted_pullback(v, cls.rep)
        report["nonnegativity"] = {"double_classes": len(classes),
                                   "holds": True}
    if "fw" in names:
        ok = True
        count = 0
        classes = [((s.rep,), s.centralizer)
                   for s in build_sectors(G).sectors]
        classes += [(c.rep, c.centralizer) for c in build_double_sectors(G)]
        for ms, Z in classes:
            rep = fw_check(v, ms)
            count += G.n // Z.order
            ok = ok and rep["holds"]
        if count != G.n + G.n ** 2:
            raise TheoremViolation(
                "sector and pair classes cover %d tuples, not |G| + |G|^2 = %d"
                % (count, G.n + G.n ** 2))
        report["fw"] = {"tuples": count, "holds": ok}
    if "v_identities" in names:
        ok = True
        count = 0
        for cls in triple_sectors(G):
            rep = v_identity_check(v, cls.rep)
            count += G.n // cls.centralizer.order
            ok = ok and rep["holds"]
        if count != G.n ** 3:
            raise TheoremViolation(
                "triple classes cover %d triples, not |G|^3 = %d"
                % (count, G.n ** 3))
        report["v_identities"] = {"triples": count, "holds": ok}
    return report


def _collect_bools(obj):
    """Every boolean verdict in a nested report (counts are ignored)."""
    if isinstance(obj, bool):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            for b in _collect_bools(value):
                yield b


def verify_algebra(args):
    """verify --algebra: the table checks on a serialized ring, which needs
    no group; verify without --algebra needs --group."""
    if not args.algebra:
        raise UserError("verify needs --group (or --algebra FILE)")
    refused = ["--" + flag.replace("_", "-") for flag in _ALGEBRA_REFUSES
               if getattr(args, flag) is not None
               and getattr(args, flag) is not False]
    if refused:
        raise UserError(
            "verify --algebra takes no %s: it re-checks a ring file with "
            "--associativity, --grading or --all" % ", ".join(refused))
    from .rings import algebra_from_json, verify

    data = _read_json_spec(args.algebra, "algebra")
    alg = algebra_from_json(data)
    names = []
    if args.all or args.associativity:
        names.extend(["identity", "commutativity", "associativity"])
    if args.all or args.grading:
        names.append("grading")
    if not names:
        raise UserError("select checks to run (e.g. --associativity or --all)")
    report = verify(alg, names)
    ok = all(report.values())
    return {"command": "verify", "algebra": args.algebra,
            "checks": report, "holds": ok}, (0 if ok else 2)


def cmd_verify(G, v, args):
    names = set()
    for flag in _VERIFY_FLAGS:
        if args.all or getattr(args, flag):
            names.add(flag)
    if not names:
        raise UserError("select checks to run (e.g. --associativity or --all)")
    if "frobenius" in names and v.dim() != 0:
        if args.frobenius:
            raise UserError(
                "the Frobenius check needs the complete quotient (--rep zero)"
            )
        names.discard("frobenius")  # --all on a non-complete quotient
    if names & {"multiproduct", "v_identities"}:
        triple_sectors(G)  # refuses |G|^3 over its cap before any ring
    expanded = set(names)
    if "associativity" in names:
        expanded.update(("identity", "commutativity"))
    report = {}
    report.update(_verify_rings(G, v, expanded))
    report.update(_verify_tuples(G, v, names))
    ok = all(_collect_bools(report))
    out = {
        "command": "verify",
        "group": args.group,
        "rep": args.rep or "zero",
        "checks": report,
        "holds": ok,
    }
    return out, (0 if ok else 2)


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(message)


def build_parser():
    parser = _Parser(
        prog="inertial",
        description="Exact inertial products for finite quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, rep=None, cap=MAX_TABLE_ORDER, element=False,
            tuple_arg=False):
        """A subcommand and what it reads: --group and --max-order always;
        rep "required" or "optional" (zero by default) adds --rep, "zero"
        reads the zero character, None no character; cap is the command's
        |G| cap, which load applies when --max-order is not given (so that
        verify --algebra can refuse a given one)."""
        p = sub.add_parser(name)
        p.set_defaults(fn=fn, character=rep, cap=cap)
        p.add_argument("--group", required=(name != "verify"))
        if rep in ("required", "optional"):
            p.add_argument("--rep", required=(rep == "required"))
        p.add_argument("--max-order", type=int, default=None,
                       help="override the group size cap (default %d)" % cap)
        p.add_argument("--out", default=None, help="write the artifact here")
        if element:
            p.add_argument("--element", required=True)
        if tuple_arg:
            p.add_argument("--tuple", required=True,
                           help="comma-separated element tokens, e.g. g,g")
        return p

    p = add("group-info", cmd_group_info)
    p = add("chartable", cmd_chartable)
    p.add_argument("--chartable-file", default=None,
                   help="check this character table against the computed "
                   "one (never used in its place)")
    add("age", cmd_age, rep="required", element=True)
    add("logtrace", cmd_logtrace, rep="required", element=True)
    add("obstruction", cmd_obstruction, rep="required", tuple_arg=True)
    add("chow-ring", cmd_ring, rep="required", cap=PAIR_CLASS_ORDER)
    add("k-ring", cmd_ring, rep="required", cap=PAIR_CLASS_ORDER)
    add("lusztig", cmd_ring, rep="zero", cap=PAIR_CLASS_ORDER)
    p = add("eta", cmd_eta, cap=PAIR_CLASS_ORDER)
    p.add_argument("--mode", choices=("chow", "k"), default="chow")
    add("chern", cmd_chern, cap=PAIR_CLASS_ORDER)
    add("star-t", cmd_star_t, rep="required", cap=PAIR_CLASS_ORDER)
    p = add("verify", cmd_verify, rep="optional", cap=PAIR_CLASS_ORDER)
    p.add_argument("--algebra", default=None,
                   help="re-check a serialized ring JSON file")
    p.add_argument("--all", action="store_true")
    for flag in _VERIFY_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), action="store_true")
    return parser


def load(args):
    """The group and character a command reads, as add() declared them:
    G under --max-order, or under the command's cap when it is not given;
    v from --rep, the zero character where --rep is optional and not given
    or where the command takes none, or None.  A given --rep is always
    read, so an empty one is refused like any other unreadable spec."""
    cap = args.cap if args.max_order is None else args.max_order
    if cap < 1:
        raise UserError("--max-order must be at least 1 (got %d)" % cap)
    G = load_group(args.group, cap)
    v = None
    if args.character == "zero" or (args.character == "optional"
                                    and args.rep is None):
        from .characters import zero_character

        v = zero_character(G)
    elif args.character:
        v = load_rep(args.rep, G)
    return G, v


def _emit(obj, path):
    """Write the artifact to path, or to stdout and flush it, so a write
    that fails is a UserError while main can still report it."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UserError("cannot write --out file %r: %s" % (path, exc))
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise UserError("cannot write to stdout: %s" % exc)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify" and (args.algebra or not args.group):
            obj, code = verify_algebra(args)
        else:
            obj, code = args.fn(*load(args), args)
        _emit(obj, args.out)
        return code
    except InertialError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return exc.exit_code
    except Exception as exc:  # never a bare crash
        _emit_error("InternalError", "%s: %s" % (type(exc).__name__, exc))
        return 3


def _emit_error(kind, message):
    sys.stderr.write(
        json.dumps({"error": {"kind": kind, "message": message}},
                   sort_keys=True, indent=2) + "\n"
    )


def run():
    """Process entry of `python -m inertial` and the `inertial` script: exit
    with main's code, skipping the interpreter's teardown.

    The package registers no atexit handler and closes every file it opens
    with `with`, and _emit has flushed stdout, so what is left is to flush
    both streams.  A stdout flush fails only after _emit has reported the
    same failure (exit 1), its bytes still buffered.  Under a profiler or a
    tracer (cProfile, trace, a debugger), which report at exit, and on
    SystemExit (--help, usage), the process exits normally.  main itself
    returns, for callers in the same process.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    if sys.getprofile() is None and sys.gettrace() is None:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
