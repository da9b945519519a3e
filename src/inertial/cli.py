"""Command-line front end: parse one command's options and specs, run it,
and emit a deterministic JSON artifact.  Exit codes: 0 success, 1 user
error, 2 check failure, 3 internal invariant violation; every error path
prints a structured JSON object to stderr.
"""

import json
import os
import re
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import MAX_TABLE_ORDER, InertialError, UserError, parse_int

# The default |G| cap of the commands that build pair classes or the K basis.
PAIR_CLASS_ORDER = 200

# Option kinds: a value, a value that must be given, an int, a flag; a tuple
# of strings is a choice, its first member the default.
VALUE, REQUIRED, INT, FLAG = "value", "required", "int", "flag"

_VERIFY_FLAGS = ("associativity", "frobenius", "fw", "nonnegativity",
                 "grading", "v_identities", "rr", "multiproduct")

# command -> (handler "module.function", character, |G| cap, own options).
# A command loads its handler's module and the layers the handler imports.
# The character: "required" or "optional" (zero when not given) adds --rep,
# "zero" reads the zero character, None none.  The cap applies when
# --max-order is not given, so that verify --algebra can refuse a given one.
# Every command takes --group (required), --max-order and --out; an own
# option of the same name overrides one of them.
COMMANDS = {
    "group-info": ("cli.cmd_group_info", None, MAX_TABLE_ORDER, {}),
    "chartable": ("cli.cmd_chartable", None, MAX_TABLE_ORDER,
                  {"chartable-file": VALUE}),
    "age": ("cli.cmd_age", "required", MAX_TABLE_ORDER, {"element": REQUIRED}),
    "logtrace": ("cli.cmd_logtrace", "required", MAX_TABLE_ORDER,
                 {"element": REQUIRED}),
    "obstruction": ("cli.cmd_obstruction", "required", MAX_TABLE_ORDER,
                    {"tuple": REQUIRED}),
    "chow-ring": ("commands.cmd_ring", "required", PAIR_CLASS_ORDER, {}),
    "k-ring": ("commands.cmd_ring", "required", PAIR_CLASS_ORDER, {}),
    "lusztig": ("commands.cmd_ring", "zero", PAIR_CLASS_ORDER, {}),
    "eta": ("commands.cmd_eta", None, PAIR_CLASS_ORDER,
            {"mode": ("chow", "k")}),
    "chern": ("commands.cmd_chern", None, PAIR_CLASS_ORDER, {}),
    "star-t": ("commands.cmd_star_t", "required", PAIR_CLASS_ORDER, {}),
    "verify": ("commands.cmd_verify", "optional", PAIR_CLASS_ORDER,
               dict({"group": VALUE, "algebra": VALUE, "all": FLAG},
                    **{f.replace("_", "-"): FLAG for f in _VERIFY_FLAGS})),
}


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


def load_group(spec, max_order=MAX_TABLE_ORDER):
    """The group a --group spec names, refused above max_order elements: a
    catalog name here, JSON in specs."""
    spec = spec.strip()
    if not spec.startswith("catalog:"):
        from .specs import group_from_json
        return group_from_json(spec, max_order)
    from .groups import catalog_group
    return catalog_group(spec[len("catalog:"):], max_order)


def _cf_json(v):
    return v.to_json()["values_by_class"]


# -- the lookup handlers: each takes (G, v, args) from main ----------------------


def cmd_group_info(G, v, args):
    from .inertia import build_sectors

    classes = build_sectors(G).to_json()
    for entry in classes:
        entry["element_order"] = G.order_of(entry["representative"])
    return {"command": "group-info", "label": G.label, "order": G.n,
            "exponent": G.exponent(), "abelian": G.is_abelian(),
            "element_names": dict(sorted(G.names.items())),
            "classes": classes}, 0


def cmd_chartable(G, v, args):
    from .characters import character_table, dim_int

    if args.chartable_file:
        from .specs import check_chartable
        check_chartable(G, args.chartable_file)
    table = character_table(G)
    reps = G.class_reps()  # the sector representatives
    return {"command": "chartable", "order": G.n, "classes": list(reps),
            "class_sizes": [len(c) for c in G.conjugacy_classes()],
            "element_orders": [G.order_of(x) for x in reps],
            "degrees": [dim_int(chi) for chi in table],
            "table": [_cf_json(chi) for chi in table]}, 0


def cmd_age(G, v, args):
    from .logtrace import age

    x = G.element_from_string(args.element)
    return {"command": "age", "element": x, "class": G.class_of(x),
            "age": str(age(v, x))}, 0


def cmd_logtrace(G, v, args):
    from .logtrace import log_trace

    x = G.element_from_string(args.element)
    lt = log_trace(v, x)
    return {"command": "logtrace", "element": x, "class": G.class_of(x),
            "centralizer_order": lt.sub.order, "rank": str(lt.rank),
            "values_by_class": _cf_json(lt.char),
            "scaled_integral": str(G.order_of(x))}, 0


def cmd_obstruction(G, v, args):
    from .logtrace import twisted_pullback

    tc = twisted_pullback(v, tuple(G.element_from_string(t)
                                   for t in args.tuple.split(",")))
    return {"command": "obstruction", "elements": list(tc.elements),
            "centralizer_order": tc.sub.order, "rank": str(tc.rank),
            "multiplicities": [str(m) for m in tc.mults],
            "values_by_class": _cf_json(tc.char), "is_zero": tc.is_zero()}, 0


# -- argument parsing ------------------------------------------------------------

# a token argparse read as an option, not a value: not "-", "-1" or "-a b",
# but "-h..." always, and "--opt=a b" where --opt is an option string
_OPTION = re.compile(r"(?s)-h.*|-(?!\d+$|\d*\.\d+$)[^ ]+")


class _Parser:
    """Reads an argv against COMMANDS: the command, then its options as
    `--opt value` or `--opt=value` in any order, the last of a repeated one
    counting.  Usage errors raise UserError in argparse's wording."""

    def options(self, command):
        """name -> kind of every option command takes, in usage order."""
        _, character, _, own = COMMANDS[command]
        options = {"group": REQUIRED}
        if character in ("required", "optional"):
            options["rep"] = REQUIRED if character == "required" else VALUE
        options.update({"max-order": INT, "out": VALUE}, **own)
        return options

    def usage(self, command):
        """Print the usage of command, or of the package; exit 0."""
        text = "usage: inertial {%s} --help\n" % ",".join(COMMANDS)
        if command:
            words = []
            for name, kind in self.options(command).items():
                word = "--" + name if kind == FLAG else "--%s %s" % (
                    name, "{%s}" % ",".join(kind) if isinstance(kind, tuple)
                    else name.upper())
                words.append(word if kind == REQUIRED else "[%s]" % word)
            text = "usage: inertial %s %s\n\n--max-order defaults to %d.\n" % (
                command, " ".join(words), COMMANDS[command][2])
        sys.stdout.write(text)
        raise SystemExit(0)

    def parse_args(self, argv):
        command = argv[0] if argv else None
        if command in ("-h", "--help"):
            self.usage(None)
        if command not in COMMANDS:
            raise UserError(
                "argument command: invalid choice: %r (choose from %s)"
                % (command, ", ".join(map(repr, COMMANDS))) if argv else
                "the following arguments are required: command")
        options = self.options(command)
        values = {name: False if kind == FLAG else kind[0]
                  if isinstance(kind, tuple) else None
                  for name, kind in options.items()}
        strings = {"--" + name for name in options} | {"--help"}
        rest, extras = list(argv[1:]), []
        while rest:
            token = rest.pop(0)
            if token == "--":  # the rest is positional; no command takes any
                extras += [token] + rest
                break
            if token in ("-h", "--help"):
                self.usage(command)
            name, eq, value = token[2:].partition("=")
            kind = options.get(name) if token.startswith("--") else None
            error = "argument --%s: " % name
            if kind is None:
                extras.append(token)
                continue
            if kind == FLAG and eq:
                raise UserError(error + "ignored explicit argument %r" % value)
            if kind != FLAG and not eq:
                if not rest or _OPTION.fullmatch(rest[0]) or (
                        rest[0].partition("=")[0] in strings):
                    raise UserError(error + "expected one argument")
                value = rest.pop(0)
            if kind == INT:
                try:
                    value = int(value)
                except ValueError:
                    raise UserError(error + "invalid int value: %r" % value)
            elif isinstance(kind, tuple) and value not in kind:
                raise UserError(error + "invalid choice: %r (choose from %s)"
                                % (value, ", ".join(map(repr, kind))))
            values[name] = value if kind != FLAG else True
        missing = ["--" + name for name, kind in options.items()
                   if kind == REQUIRED and values[name] is None]
        if missing:
            raise UserError("the following arguments are required: "
                            + ", ".join(missing))
        if extras:
            raise UserError("unrecognized arguments: " + " ".join(extras))
        handler, character, cap, _ = COMMANDS[command]
        return SimpleNamespace(
            command=command, handler=handler, character=character, cap=cap,
            **{name.replace("-", "_"): x for name, x in values.items()})


def load(args):
    """The group a command reads, under --max-order or else its cap, and
    its character as COMMANDS declares it: --rep (always read when given),
    the zero character where --rep is optional and not given, or None.
    verify --algebra, and verify without --group, read neither."""
    if args.command == "verify" and (args.algebra or not args.group):
        return None, None
    cap = args.cap if args.max_order is None else args.max_order
    if cap < 1:
        raise UserError("--max-order must be at least 1 (got %d)" % cap)
    G = load_group(args.group, cap)
    if not args.character:
        return G, None
    from .characters import CATALOG_REPS, catalog_character
    spec = ("zero" if args.character == "zero" or args.rep is None
            else args.rep.strip())
    if spec.lower() not in CATALOG_REPS:
        from .specs import rep_from_json
        return G, rep_from_json(spec, G)
    return G, catalog_character(G, spec)


def _emit(obj, path):
    """Write the artifact to path, or to stdout and flush it, so a write
    that fails is a UserError while main can still report it."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    try:
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise UserError("cannot write --out file %r: %s" % (path, exc) if path
                        else "cannot write to stdout: %s" % exc)


def main(argv=None):
    try:
        args = _Parser().parse_args(sys.argv[1:] if argv is None else argv)
        module, _, name = args.handler.partition(".")
        handler = getattr(import_module("." + module, __package__), name)
        obj, code = handler(*load(args), args)
        _emit(obj, args.out)
        return code
    except InertialError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return exc.exit_code
    except Exception as exc:  # never a bare crash
        _emit_error("InternalError", "%s: %s" % (type(exc).__name__, exc))
        return 3


def _emit_error(kind, message):
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}},
                                sort_keys=True, indent=2) + "\n")


def run():
    """Process entry of `python -m inertial` and the `inertial` script: exit
    with main's code, skipping the interpreter's teardown (no atexit
    handler, every file closed, stdout flushed by _emit), except under a
    profiler or a tracer, which report at exit, and on SystemExit."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    if sys.getprofile() is None and sys.gettrace() is None:
        os._exit(code)
    sys.exit(code)

