"""A seeded corpus of malformed JSON input.

Each case starts from a valid document (a group spec of kind table or
perm, a rep spec of kind character, a ring file for verify --algebra, a
--chartable-file table) and applies one mutation built to make it invalid:
a wrong type, an out-of-range index, a missing key, an empty value or a
wrong length, a duplicate key whose last value is bad (JSON keeps the last
one), a NaN or Infinity literal or an over-long number, or a top level that
is not an object.  The retired catalog spellings of --group and --rep are
cases too.  Every case must exit 1 with a JSON error on stderr; none may
exit 3.  The cases run in process through cli.main, and a fixed sample of
them runs again in one `python -O` process.
"""

import io
import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from inertial.cli import main
from inertial.groups import catalog_group

from test_cli import child_env

# the corpus seed: the i-th base document of _bases() deals out its
# mutations with random.Random(SEED + i)
SEED = 35
# mutations sampled per base document
PER_BASE = 55
# every SAMPLE_STRIDE-th case, and every retired spelling, also runs under -O
SAMPLE_STRIDE = 11


class Base(NamedTuple):
    name: str
    doc: dict
    argv: object  # path of the spec file -> command line
    slots: tuple  # (path pattern, slot kind); "*" matches a list index
    required: tuple  # (path pattern of a dict, keys it cannot lose)


def _artifact(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 0, err.getvalue()
    return json.loads(out.getvalue())


def _group_argv(path):
    return ["group-info", "--group", path]


def _rep_argv(group):
    return lambda path: ["age", "--group", "catalog:" + group, "--rep", path,
                         "--element", "0"]


def _chartable_argv(group):
    return lambda path: ["chartable", "--group", "catalog:" + group,
                         "--chartable-file", path]


def _ring_argv(path):
    return ["verify", "--algebra", path, "--all"]


GROUP_SLOTS = (("kind",), "kind"), (("label",), "label"), (("names",), "names")
RING_SLOTS = (
    (("basis",), "list"), (("basis", "*"), "label"), (("grading",), "list"),
    (("grading", "*"), "number"), (("table",), "entries"),
    (("table", "*"), "dict"), (("table", "*", "i"), "index"),
    (("table", "*", "j"), "index"), (("table", "*", "terms"), "entries"),
    (("table", "*", "terms", "*"), "dict"),
    (("table", "*", "terms", "*", "k"), "index"),
    (("table", "*", "terms", "*", "c"), "number"), (("identity",), "index"),
)
RING_REQUIRED = (((), ("basis", "grading", "table")),
                 (("table", "*"), ("i", "j", "terms")),
                 (("table", "*", "terms", "*"), ("k", "c")))
VALUE_SLOTS = (
    (("values_by_class",), "list"), (("values_by_class", "*"), "number"),
    (("values_by_class", "*", "conductor"), "conductor"),
    (("values_by_class", "*", "coeffs"), "list"),
    (("values_by_class", "*", "coeffs", "*"), "number"),
)
CHARTABLE_SLOTS = (
    (("table",), "list"), (("table", "*"), "list"),
    (("table", "*", "*"), "number"),
    (("table", "*", "*", "conductor"), "conductor"),
    (("table", "*", "*", "coeffs"), "list"),
    (("table", "*", "*", "coeffs", "*"), "number"),
)
CYCLOTOMIC_REQUIRED = ("conductor", "coeffs")


def _bases():
    s3 = catalog_group("symmetric(3)")
    omega = {"conductor": 3, "coeffs": ["0/1", "1/1"]}
    omega2 = {"conductor": 3, "coeffs": ["-1/1", "-1/1"]}
    return (
        Base("table cyclic(3)",
             {"kind": "table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
              "names": {"g": 1}, "label": "C3"}, _group_argv,
             GROUP_SLOTS + ((("table",), "list"), (("table", "*"), "list"),
                            (("table", "*", "*"), "index"),
                            (("names", "g"), "index")),
             (((), ("kind", "table")),)),
        Base("table symmetric(3)",
             {"kind": "table", "table": [list(row) for row in s3.table],
              "label": "S3"}, _group_argv,
             GROUP_SLOTS + ((("table",), "list"), (("table", "*"), "list"),
                            (("table", "*", "*"), "index")),
             (((), ("kind", "table")),)),
        Base("perm symmetric(3)",
             {"kind": "perm", "generators": [[1, 0, 2], [0, 2, 1]],
              "names": {"a": [1, 0, 2], "b": [0, 2, 1]}, "label": "S3"},
             _group_argv,
             GROUP_SLOTS + ((("generators",), "generators"),
                            (("generators", "*"), "list"),
                            (("generators", "*", "*"), "index"),
                            (("names", "*"), "list"),
                            (("names", "*", "*"), "index")),
             (((), ("kind", "generators")),)),
        Base("perm square",
             {"kind": "perm", "generators": [[1, 2, 3, 0], [0, 3, 2, 1]]},
             _group_argv,
             GROUP_SLOTS + ((("generators",), "generators"),
                            (("generators", "*"), "list"),
                            (("generators", "*", "*"), "index")),
             (((), ("kind", "generators")),)),
        Base("character symmetric(3)",
             {"kind": "character", "values_by_class": [3, "0", "1/1"]},
             _rep_argv("symmetric(3)"), ((("kind",), "kind"),) + VALUE_SLOTS,
             (((), ("kind", "values_by_class")),)),
        Base("character cyclic(3)",
             {"kind": "character", "values_by_class": [1, omega, omega2]},
             _rep_argv("cyclic(3)"), ((("kind",), "kind"),) + VALUE_SLOTS,
             (((), ("kind", "values_by_class")),
              (("values_by_class", "*"), CYCLOTOMIC_REQUIRED))),
        Base("chow-ring symmetric(3) std",
             _artifact(["chow-ring", "--group", "catalog:symmetric(3)",
                        "--rep", "std"]), _ring_argv, RING_SLOTS,
             RING_REQUIRED),
        Base("k-ring cyclic(2) sl2",
             _artifact(["k-ring", "--group", "catalog:cyclic(2)", "--rep",
                        "sl2"]), _ring_argv, RING_SLOTS, RING_REQUIRED),
        Base("chartable symmetric(3)",
             _artifact(["chartable", "--group", "catalog:symmetric(3)"]),
             _chartable_argv("symmetric(3)"), CHARTABLE_SLOTS,
             (((), ("table",)), (("table", "*", "*"), CYCLOTOMIC_REQUIRED))),
        Base("chartable cyclic(3)",
             _artifact(["chartable", "--group", "catalog:cyclic(3)"]),
             _chartable_argv("cyclic(3)"), CHARTABLE_SLOTS,
             (((), ("table",)), (("table", "*", "*"), CYCLOTOMIC_REQUIRED))),
    )


# raw JSON texts that no slot of its kind takes
LITERALS = ("NaN", "Infinity", "-Infinity", "1e400", "9" * 5000)
BAD = {
    "index": ("null", "true", "1.5", '"1"', "[]", "{}"),
    "number": ("null", "true", "1.5", "[]", "[1]", "{}", '"x"', '"1/0"',
               '"9%s"' % ("9" * 5000)),
    "conductor": ("null", "true", "1.5", '"3"', "[]", "0", "-1"),
    "kind": ('"nonsense"', "null", "5", '"Table"'),
    "label": ("5", "[]", "{}", "true"),
    "names": ("5", "[]", '"x"', "true", '{"a b": 1}', '{"1": 1}'),
    "list": ("null", "5", '"x"', "{}"),
    "generators": ("null", "5", '"x"', "{}"),
    "entries": ("null", "5", '"x"', "true"),
    "dict": ("null", "5", '"x"', "[]", "true"),
}


class Case(NamedTuple):
    category: str
    what: str  # "<base>: <category> at <path>"
    text: object  # the spec file's text, or None for an argv-only case
    argv: object  # path -> command line


def _matches(pattern, path):
    return len(pattern) == len(path) and all(
        p == "*" and isinstance(x, int) or p == x
        for p, x in zip(pattern, path))


def _nodes(node, path=()):
    yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _render(node, path, mode, raw):
    """node as JSON text with the value at path replaced by raw, its key
    dropped ("delete"), or a second copy of its key bound to raw
    ("duplicate")."""
    if not path:
        return raw
    key, rest = path[0], path[1:]
    if isinstance(node, list):
        return "[%s]" % ", ".join(
            _render(x, rest, mode, raw) if i == key else json.dumps(x)
            for i, x in enumerate(node))
    items = []
    for k, x in node.items():
        pair = json.dumps(k) + ": "
        if k != key:
            items.append(pair + json.dumps(x))
        elif rest or mode == "replace":
            items.append(pair + _render(x, rest, mode, raw))
        elif mode == "duplicate":
            items += [pair + json.dumps(x), pair + raw]
    return "{%s}" % ", ".join(items)


def _mutations(base):
    """(category, path, mode, raw) for every mutation of base's document."""
    for path, node in _nodes(base.doc):
        kind = next((k for p, k in base.slots if _matches(p, path)), None)
        keyed = bool(path) and isinstance(path[-1], str)
        raws = [("type", raw) for raw in BAD.get(kind, ())]
        if kind == "index":
            raws += [("range", r) for r in ("-1", "1000000", str(_bound(
                base.doc)))] + [("literal", r) for r in LITERALS]
        if kind == "number":
            raws += [("literal", r) for r in LITERALS]
        if kind == "kind":
            raws.append(("empty", '""'))
        if kind == "list":
            raws += [("empty", "[]"), ("length", json.dumps(node[:-1])),
                     ("length", json.dumps(node + node[-1:]))]
        if kind == "entries":
            raws.append(("length", json.dumps(node + node[:1])))
        for category, raw in raws:
            yield category, path, "replace", raw
            if keyed:
                yield "duplicate", path, "duplicate", raw
        for pattern, keys in base.required:
            if _matches(pattern, path) and isinstance(node, dict):
                for key in keys:
                    yield "missing", path + (key,), "delete", None


def _bound(doc):
    """The first index out of range in doc: the ring's dimension, or the
    table's or the permutations' size."""
    if "basis" in doc:
        return len(doc["basis"])
    if "table" in doc:
        return len(doc["table"])
    return len(doc["generators"][0])


def corpus():
    cases = []
    for position, base in enumerate(_bases()):
        # shuffle each category's mutations, then deal them out one
        # category at a time, so a small category is not sampled away
        rng = random.Random(SEED + position)
        by_category = {}
        for mutation in sorted(set(_mutations(base)), key=repr):
            by_category.setdefault(mutation[0], []).append(mutation)
        for found in by_category.values():
            rng.shuffle(found)
        dealt = [m for row in itertools.zip_longest(*by_category.values())
                 for m in row if m is not None]
        for category, path, mode, raw in dealt[:PER_BASE]:
            cases.append(Case(category, "%s: %s at %s" % (
                base.name, category, "/".join(map(str, path))),
                _render(base.doc, path, mode, raw), base.argv))
        text = json.dumps(base.doc)
        for raw in ("[%s]" % text, "5", "null", '"x"', "true", "1.5"):
            cases.append(Case("top-level", "%s: top-level %s" % (
                base.name, raw[:5]), raw, base.argv))
    # the retired spellings: a catalog group or character as JSON, and a
    # character written catalog:NAME
    for name in ("cyclic(2)", "symmetric(3)", "quaternion8", "klein4"):
        cases.append(Case("retired", "group kind catalog %s" % name,
                          json.dumps({"kind": "catalog", "name": name}),
                          _group_argv))
    for name in ("trivial", "zero", "regular", "std"):
        cases.append(Case("retired", "rep kind catalog_rep %s" % name,
                          json.dumps({"kind": "catalog_rep", "name": name}),
                          _rep_argv("symmetric(3)")))
        cases.append(Case(
            "retired", "--rep catalog:%s" % name, None,
            lambda path, name=name: _rep_argv("symmetric(3)")(
                "catalog:" + name)))
    return cases


def _argvs(cases, directory):
    """Each case's command line, its spec written to a file in directory."""
    out = []
    for i, case in enumerate(cases):
        path = str(directory / ("%d.json" % i))
        if case.text is not None:
            with open(path, "w") as fh:
                fh.write(case.text)
        out.append(case.argv(path))
    return out


def _faults(cases, results):
    """The cases whose (code, stdout, stderr) is not exit 1, no stdout and
    a JSON UserError on stderr."""
    faults = []
    for case, (code, out, err) in zip(cases, results):
        try:
            kind = json.loads(err)["error"]["kind"]
        except (ValueError, KeyError, TypeError):
            kind = None
        if (code, out, kind) != (1, "", "UserError"):
            faults.append((case.what, code, err[:300]))
    return faults


# reads a JSON list of command lines on stdin, runs each through cli.main
# and writes [[code, stdout, stderr], ...]
LOOP = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from inertial.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
sys.__stdout__.write(json.dumps(results))
"""


def test_the_corpus_covers_every_mutation():
    cases = corpus()
    assert len(cases) >= 500
    counts = Counter(case.category for case in cases)
    for category in ("type", "range", "missing", "empty", "length",
                     "duplicate", "literal", "top-level", "retired"):
        assert counts[category] >= 10, (category, counts)
    for base in _bases():
        assert sum(case.what.startswith(base.name + ":")
                   for case in cases) > PER_BASE // 2, base.name


def test_every_malformed_input_exits_1(tmp_path):
    cases = corpus()
    argvs = _argvs(cases, tmp_path)
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        results.append((code, out.getvalue(), err.getvalue()))
    assert _faults(cases, results) == []


def test_a_sample_exits_1_under_optimize(tmp_path):
    cases = corpus()
    argvs = _argvs(cases, tmp_path)
    sample = [i for i, case in enumerate(cases)
              if i % SAMPLE_STRIDE == 0 or case.category == "retired"]
    assert len(sample) >= 50
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LOOP], input=json.dumps(
            [argvs[i] for i in sample]),
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert _faults([cases[i] for i in sample], results) == []
