"""The handlers of the commands that build rings or run checks: chow-ring,
k-ring, lusztig, eta, chern, star-t and verify.

The command line imports this module only when one of these commands runs,
so a lookup (group-info, chartable, age, logtrace, obstruction) never
compiles it.  Every handler takes (G, v, args) as cli.main passes them;
verify without a group runs verify_algebra, which reads a ring file.
"""

from .cli import _VERIFY_FLAGS, _cf_json, _read_json_spec
from .errors import TheoremViolation, UserError
from .inertia import build_double_sectors, build_sectors, triple_sectors


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
        [str(c) for c in orbifold_chern(G, {i: 1})]
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
    if G is None:  # load read no group: --algebra, or no --group
        return verify_algebra(args)
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
