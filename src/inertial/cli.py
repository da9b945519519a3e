"""Command-line front end: parse group/representation specs, run one
computation or verification suite, and emit a deterministic JSON artifact.

Exit codes: 0 success, 1 user error, 2 check failure, 3 internal invariant
violation.  All error paths print a structured JSON object to stderr.
"""

import argparse
import json
import sys
from fractions import Fraction

from .cyclotomic import Cyclotomic, cyc
from .errors import InertialError, UserError, CheckFailure, TheoremViolation
from .groups import (
    MAX_TABLE_ORDER,
    FiniteGroup,
    catalog_group,
    group_from_permutations,
)
from .characters import (
    ClassFunction,
    character_table,
    trivial_character,
    zero_character,
    catalog_character,
    assert_genuine_character,
    inner_product,
)
from .logtrace import age, log_trace, twisted_pullback, fw_check, v_identity_check
from .inertia import build_sectors, build_double_sectors, DOUBLE_SECTOR_CAP
from .rings import (
    GradedAlgebra,
    chow_ring,
    k_ring,
    lusztig_ring,
    eta_pairing,
    verify,
    algebra_from_json,
)
from .chern import orbifold_chern, star_T, star_T_identity, support_project


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
        data = json.loads(text)
    except ValueError as exc:
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


def load_group(spec, max_order=MAX_TABLE_ORDER):
    """The group a --group spec names, refused above max_order elements."""
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
        return FiniteGroup(table, names=names, label=data.get("label"),
                           max_order=max_order)
    if kind == "perm":
        gens = data.get("generators")
        if not _int_rows(gens):
            raise UserError('group kind "perm" needs a "generators" list of '
                            "integer permutations")
        names = _spec_names(data, _int_list, "a permutation")
        return group_from_permutations(
            [tuple(p) for p in gens], names=names, label=data.get("label"),
            max_order=max_order,
        )
    raise UserError(
        'group spec must be "catalog:NAME" or JSON with kind table/perm/catalog'
    )


def _parse_value(obj):
    if isinstance(obj, bool):
        raise UserError("character values must be numbers, not booleans")
    if isinstance(obj, int):
        return cyc(obj)
    if isinstance(obj, str):
        try:
            return cyc(Fraction(obj))
        except ValueError:
            raise UserError("cannot parse %r as a rational number" % obj)
    if isinstance(obj, dict):
        try:
            return Cyclotomic.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise UserError("bad cyclotomic value %r: %s" % (obj, exc))
    raise UserError("cannot interpret %r as a character value" % (obj,))


_CATALOG_REPS = ("trivial", "zero", "regular", "sl2", "std")


def load_rep(spec, group):
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
        v = ClassFunction(group, [_parse_value(x) for x in values])
        assert_genuine_character(v, "the supplied character")
        return v
    raise UserError(
        'rep spec must be "zero", "catalog:NAME", or JSON with kind '
        "character/catalog_rep"
    )


def install_chartable(group, path):
    """Validate a user-supplied character table and attach it to the group."""
    data = _read_json_spec(path, "character table")
    rows = data.get("table")
    r = len(group.conjugacy_classes())
    if not isinstance(rows, list) or len(rows) != r:
        raise UserError("character table must have one row per class (%d)" % r)
    chars = []
    for row in rows:
        if not isinstance(row, list) or len(row) != r:
            raise UserError("character table rows must have %d values" % r)
        chars.append(ClassFunction(group, [_parse_value(x) for x in row]))
    total = 0
    for i, a in enumerate(chars):
        deg = a.values[0].to_rational()
        if deg is None or deg.denominator != 1 or deg <= 0:
            raise UserError("row %d has a non-positive-integer degree" % i)
        total += deg * deg
        for j, b in enumerate(chars):
            want = cyc(1 if i == j else 0)
            if inner_product(a, b) != want:
                raise UserError(
                    "supplied table fails orthogonality at rows %d, %d" % (i, j)
                )
    if total != group.n:
        raise UserError("supplied degrees square-sum to %s, not |G| = %d"
                        % (total, group.n))
    chars.sort(key=lambda chi: (chi.values[0].to_rational(),
                                json.dumps(chi.to_json()["values_by_class"])))
    group._char_table = tuple(chars)


def _frac(q):
    return str(Fraction(q))


def _cf_json(v):
    return v.to_json()["values_by_class"]


# -- subcommand handlers ---------------------------------------------------------


def cmd_group_info(args):
    G = load_group(args.group, args.max_order)
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
        "element_names": {k: v for k, v in sorted(G.names.items())},
        "classes": classes,
    }, 0


def cmd_chartable(args):
    G = load_group(args.group, args.max_order)
    if args.chartable_file:
        install_chartable(G, args.chartable_file)
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


def cmd_age(args):
    G = load_group(args.group, args.max_order)
    v = load_rep(args.rep, G)
    x = G.element_from_string(args.element)
    return {
        "command": "age",
        "element": x,
        "class": G.class_of(x),
        "age": _frac(age(v, x)),
    }, 0


def cmd_logtrace(args):
    G = load_group(args.group, args.max_order)
    v = load_rep(args.rep, G)
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


def cmd_obstruction(args):
    G = load_group(args.group, args.max_order)
    v = load_rep(args.rep, G)
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


def _ring_json(alg, command):
    out = alg.to_json()
    out["command"] = command
    return out


def cmd_chow_ring(args):
    G = load_group(args.group, args.max_order)
    v = load_rep(args.rep, G)
    build_double_sectors(G, args.max_double)
    alg = chow_ring(G, v)
    verify(alg, ["identity", "commutativity", "associativity", "grading"])
    return _ring_json(alg, "chow-ring"), 0


def cmd_k_ring(args):
    G = load_group(args.group, args.max_order)
    v = load_rep(args.rep, G)
    build_double_sectors(G, args.max_double)
    alg = k_ring(G, v)
    verify(alg, ["identity", "commutativity", "associativity", "grading"])
    return _ring_json(alg, "k-ring"), 0


def cmd_lusztig(args):
    G = load_group(args.group, args.max_order)
    build_double_sectors(G, args.max_double)
    alg = lusztig_ring(G)
    verify(alg, ["identity", "commutativity", "associativity", "grading"])
    return _ring_json(alg, "lusztig"), 0


def cmd_eta(args):
    G = load_group(args.group, args.max_order)
    v = load_rep(args.rep, G) if args.rep else zero_character(G)
    build_double_sectors(G, args.max_double)
    alg = chow_ring(G, v) if args.mode == "chow" else k_ring(G, v)
    pairing = eta_pairing(alg)
    out = pairing.to_json()
    out["command"] = "eta"
    out["mode"] = args.mode
    return out, 0


def cmd_chern(args):
    G = load_group(args.group, args.max_order)
    v = load_rep(args.rep, G)
    build_double_sectors(G, args.max_double)
    K = k_ring(G, v)
    vectors = [
        [_frac(c) for c in orbifold_chern(K, {i: Fraction(1)})]
        for i in range(K.dim)
    ]
    return {
        "command": "chern",
        "basis": K.labels,
        "sectors": [s.rep for s in K.context["sectors"].sectors],
        "vectors": vectors,
    }, 0


def cmd_star_t(args):
    G = load_group(args.group, args.max_order)
    v = load_rep(args.rep, G)
    build_double_sectors(G, args.max_double)
    r = len(G.conjugacy_classes())
    one = ClassFunction(G, [cyc(1)] * r)
    deltas = [support_project(one, i) for i in range(r)]
    table = {}
    for i, a in enumerate(deltas):
        for j, b in enumerate(deltas):
            prod = star_T(a, b, G, v)
            terms = {}
            for k, val in enumerate(prod.values):
                q = val.to_rational()
                if q is None:
                    raise TheoremViolation(
                        "transplanted product produced a non-rational constant"
                    )
                if q:
                    terms[k] = q
            if terms:
                table[(i, j)] = terms
    labels = ["d[%s]" % G.element_label(G.class_reps()[i]) for i in range(r)]
    ident = star_T_identity(G, v)
    id_idx = next(
        i for i in range(r)
        if deltas[i] == ident
    )
    alg = GradedAlgebra(labels, [Fraction(0)] * r, table, "rational", id_idx)
    checks = verify(alg, ["identity", "commutativity", "associativity"])
    out = alg.to_json()
    out["command"] = "star-t"
    out["identity_class_function"] = _cf_json(ident)
    code = 0 if all(checks.values()) else 2
    return out, code


_VERIFY_FLAGS = (
    "associativity", "frobenius", "fw", "nonnegativity",
    "grading", "v_identities", "rr", "multiproduct",
)


def _verify_rings(G, v, names):
    report = {}
    ring_checks = [n for n in
                   ("identity", "commutativity", "associativity", "grading",
                    "frobenius", "multiproduct") if n in names]
    if not ring_checks and "rr" not in names:
        return report
    chow = chow_ring(G, v)
    kr = k_ring(G, v)
    if ring_checks:
        report["chow"] = verify(chow, ring_checks)
        report["k"] = verify(kr, ring_checks)
    if "rr" in names:
        ok = True
        for i in range(kr.dim):
            chi = orbifold_chern(kr, {i: Fraction(1)})
            vi = {s: c for s, c in enumerate(chi) if c != 0}
            for j in range(kr.dim):
                chj = orbifold_chern(kr, {j: Fraction(1)})
                vj = {s: c for s, c in enumerate(chj) if c != 0}
                lhs = orbifold_chern(
                    kr, kr.mul({i: Fraction(1)}, {j: Fraction(1)})
                )
                rhs_vec = chow.mul(vi, vj)
                rhs = [rhs_vec.get(s, Fraction(0)) for s in range(chow.dim)]
                if lhs != rhs:
                    ok = False
        report["rr"] = {"chern_homomorphism": ok}
    return report


def _verify_tuples(G, v, names):
    report = {}
    if "nonnegativity" in names:
        ok = True
        count = 0
        for cls in build_double_sectors(G).classes:
            tc = twisted_pullback(v, cls.rep)
            count += 1
            for m in tc.mults:
                if not isinstance(m, int) or m < 0:
                    ok = False
        report["nonnegativity"] = {"double_classes": count, "holds": ok}
    if "fw" in names:
        ok = True
        count = 0
        for a in range(G.n):
            inv_a = G.inv[a]
            rep = fw_check(v, (a, inv_a))
            count += 1
            ok = ok and rep["holds"]
            for b in range(G.n):
                c = G.inv[G.op(a, b)]
                rep = fw_check(v, (a, b, c))
                count += 1
                ok = ok and rep["holds"]
        report["fw"] = {"tuples": count, "holds": ok}
    if "v_identities" in names:
        ok = True
        count = 0
        for a in range(G.n):
            for b in range(G.n):
                for c in range(G.n):
                    rep = v_identity_check(v, (a, b, c))
                    count += 1
                    ok = ok and rep["holds"]
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


def cmd_verify(args):
    if args.algebra:
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
    if not args.group:
        raise UserError("verify needs --group (or --algebra FILE)")
    G = load_group(args.group, args.max_order)
    v = load_rep(args.rep, G) if args.rep else zero_character(G)
    build_double_sectors(G, args.max_double)
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

    def add(name, fn, rep=False, rep_optional=False, element=False,
            tuple_arg=False):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--group", required=(name != "verify"))
        if rep:
            p.add_argument("--rep", required=not rep_optional)
        p.add_argument("--max-order", type=int, default=MAX_TABLE_ORDER,
                       help="override the group size cap (default 512)")
        p.add_argument("--max-double", type=int, default=DOUBLE_SECTOR_CAP,
                       help="override the double-sector cap (default 200)")
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
                   help="validate and use this character table")
    add("age", cmd_age, rep=True, element=True)
    add("logtrace", cmd_logtrace, rep=True, element=True)
    add("obstruction", cmd_obstruction, rep=True, tuple_arg=True)
    add("chow-ring", cmd_chow_ring, rep=True)
    add("k-ring", cmd_k_ring, rep=True)
    add("lusztig", cmd_lusztig)
    p = add("eta", cmd_eta, rep=True, rep_optional=True)
    p.add_argument("--mode", choices=("chow", "k"), default="chow")
    add("chern", cmd_chern, rep=True)
    add("star-t", cmd_star_t, rep=True)
    p = add("verify", cmd_verify, rep=True, rep_optional=True)
    p.add_argument("--algebra", default=None,
                   help="re-check a serialized ring JSON file")
    p.add_argument("--all", action="store_true")
    for flag in _VERIFY_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), action="store_true")
    return parser


def _emit(obj, path):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        obj, code = args.fn(args)
        _emit(obj, getattr(args, "out", None))
        return code
    except InertialError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return exc.exit_code
    except AssertionError as exc:
        _emit_error("InternalInvariantViolation", str(exc) or "assertion failed")
        return 3
    except Exception as exc:  # never a bare crash
        _emit_error("InternalError", "%s: %s" % (type(exc).__name__, exc))
        return 3


def _emit_error(kind, message):
    sys.stderr.write(
        json.dumps({"error": {"kind": kind, "message": message}},
                   sort_keys=True, indent=2) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
