import hashlib
import importlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from inertial import (
    characters, chern, cli, commands, groups, inertia, logtrace, rings)
from inertial.characters import (
    ClassFunction,
    assert_genuine_character,
    catalog_character,
    normal_factor,
    trivial_character,
)
from inertial.cli import load_group, main
from inertial.cyclotomic import root_of_unity
from inertial.errors import TheoremViolation, UserError
from inertial.groups import catalog_group
from inertial.inertia import build_double_sectors, triple_sectors
from inertial.logtrace import v_identity_check
from oracles import reference_fw, reference_v_identities, resolve_diag_class

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def child_env():
    """This environment with the package's sources on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, *flags, timeout=None, env=None, stdout=subprocess.PIPE):
    """Run the CLI in a fresh interpreter started with the given flags."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "inertial", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env or child_env(),
        cwd=ROOT, timeout=timeout,
    )


def buffered_env():
    """child_env with stdout block-buffered, as it is by default when
    redirected, so output the process fails to flush before it exits is
    lost."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_group_info_success():
    code, out, err = run_cli(["group-info", "--group", "catalog:symmetric(3)"])
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["order"] == 6
    assert out.endswith("\n")


def test_byte_identical_determinism():
    argv = ["k-ring", "--group", "catalog:symmetric(3)", "--rep", "zero"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert first[0] == 0
    argv = ["chow-ring", "--group", "catalog:quaternion8", "--rep", "sl2"]
    assert run_cli(argv) == run_cli(argv)


def test_out_flag_writes_file(tmp_path):
    path = str(tmp_path / "ring.json")
    code, out, err = run_cli(
        ["chow-ring", "--group", "catalog:symmetric(3)", "--rep", "zero",
         "--out", path]
    )
    assert code == 0 and out == "" and err == ""
    blob = json.load(open(path))
    assert blob["command"] == "chow-ring"
    assert open(path).read().endswith("\n")


BIG_CONDUCTOR = [
    "chow-ring", "--group", "catalog:cyclic(2)", "--rep",
    '{"kind": "character", "values_by_class": '
    '[{"conductor": 30000001, "coeffs": ["1"]}, "1"]}',
]

# 5000 digits, past the 4300 that int(str) accepts by default
HUGE = "9" * 5000
HUGE_POWER = ["age", "--group", "catalog:quaternion8", "--rep", "sl2",
              "--element", "i^" + HUGE]
DEEP_JSON = ["group-info", "--group",
             '{"kind": "table", "table": ' + "[" * 100_000]


# a faithful linear character of cyclic(3): its normal factors, and so its
# transplanted constants, are not rational
STAR_T_IRRATIONAL = [
    "star-t", "--group", "catalog:cyclic(3)", "--rep",
    '{"kind":"character","values_by_class":[1,'
    '{"conductor":3,"coeffs":["0/1","1/1"]},'
    '{"conductor":3,"coeffs":["-1/1","-1/1"]}]}']


def test_user_errors_exit_1():
    cases = [
        ["group-info", "--group", "catalog:sporadic(1)"],
        ["group-info", "--group", '{"kind": "nonsense"}'],
        ["age", "--group", "catalog:symmetric(3)", "--rep", "std",
         "--element", "zz"],
        ["age", "--group", "catalog:symmetric(3)", "--rep", "sl2",
         "--element", "s1"],
        ["chow-ring", "--group", "catalog:symmetric(3)", "--rep",
         '{"kind": "character", "values_by_class": ["1", "5", "1"]}'],
        ["group-info"],
        ["no-such-command"],
        ["group-info", "--group", '{"kind": "table", "table": 5}'],
        ["group-info", "--group", '{"kind": "catalog"}'],
        ["group-info", "--group",
         '{"kind": "table", "table": [[0, 1], [1, 0]], "names": {"g": 9}}'],
        ["group-info", "--group", '{"kind": "perm", "generators": 5}'],
        # a label is echoed into the artifact, so only a string is taken
        ["group-info", "--group",
         '{"kind": "table", "table": [[0]], "label": [1, 2]}'],
        ["group-info", "--group",
         '{"kind": "perm", "generators": [[1, 0]], "label": 5}'],
        ["age", "--group", "catalog:symmetric(3)", "--rep",
         '{"kind": "catalog_rep"}', "--element", "s1"],
        # numbers whose parsing would grow with their size: a conductor
        # far above the group exponent, and a huge decimal exponent
        BIG_CONDUCTOR,
        ["chow-ring", "--group", "catalog:cyclic(2)", "--rep",
         '{"kind": "character", "values_by_class": ["1e10000000", "1"]}'],
        ["chow-ring", "--group", "catalog:cyclic(2)", "--rep",
         '{"kind": "character", "values_by_class": ["1/0", "1"]}'],
        # tokens too long for int(), and JSON nested past the parser's
        # recursion limit
        ["age", "--group", "catalog:quaternion8", "--rep", "sl2",
         "--element", HUGE],
        HUGE_POWER,
        ["group-info", "--group", "catalog:cyclic(%s)" % HUGE],
        DEEP_JSON,
        # a cap below 1 is refused as a bad option, not as a group too big
        ["group-info", "--group", "catalog:cyclic(3)", "--max-order", "-1"],
        ["chow-ring", "--group", "catalog:cyclic(3)", "--rep", "zero",
         "--max-order", "0"],
        STAR_T_IRRATIONAL,
    ]
    for argv in cases:
        code, out, err = run_cli(argv)
        assert code == 1, f"{[a[:60] for a in argv]} exited {code}"
        assert out == ""
        body = json.loads(err)
        assert body["error"]["kind"] == "UserError"
        assert isinstance(body["error"]["message"], str)
        if "--max-order" in argv:
            assert body["error"]["message"].startswith("--max-order "), argv
    proc = run_process(STAR_T_IRRATIONAL, "-O")
    assert (proc.returncode, proc.stdout) == (1, b""), proc.stderr
    assert json.loads(proc.stderr)["error"] == {
        "kind": "UserError",
        "message": "star-t writes rational constants, and this character's "
                   "transplanted constants are not rational: the first is "
                   "(i, j, k) = (1, 1, 2)"}


def test_oversized_numbers_exit_1_promptly_under_optimize(tmp_path):
    huge_entry = tmp_path / "huge_entry.json"
    huge_entry.write_text('{"kind": "table", "table": [[%s]]}' % ("9" * 400_000))
    huge_exponent = (
        ["verify", "--group", "catalog:cyclic(2)", "--rep",
         '{"kind": "character", "values_by_class": '
         '[{"conductor": 1, "coeffs": ["1e-10000000"]}, "1"]}'],
        "decimal exponent")
    # the bound is the library's own: lifting Python's limit on int(str)
    # must not let 10**10000000 be built
    for flags, (argv, why) in (
            (("-O",), (BIG_CONDUCTOR, "does not divide the group exponent 2")),
            (("-O",), huge_exponent),
            (("-O", "-X", "int_max_str_digits=0"), huge_exponent),
            (("-O", "-X", "int_max_str_digits=0"),
             (["chow-ring", "--group", "catalog:cyclic(2)", "--rep",
               '{"kind": "character", "values_by_class": ["1e10000000", "1"]}'],
              "cannot parse")),
            # without the limit int() would read the exponent and the power
            # would succeed
            (("-O", "-X", "int_max_str_digits=0"),
             (HUGE_POWER, "element token of 5002 characters")),
            (("-O", "-X", "int_max_str_digits=0"),
             (DEEP_JSON, "malformed group JSON")),
            # json.loads would build the int and the error would echo it
            (("-O", "-X", "int_max_str_digits=0"),
             (["group-info", "--group", str(huge_entry)],
              "integer literal of 400000 digits"))):
        proc = run_process(argv, *flags, timeout=5)
        assert proc.returncode == 1, proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["kind"] == "UserError"
        assert why in error["message"], error["message"]


def test_digit_strings_past_the_interpreter_limit_exit_1():
    # a lowered int(str) limit makes int() refuse a string the library's
    # own bound lets through: that is bad input (exit 1), not an internal
    # error, with and without -O
    nines = "9" * 1000
    for argv in (["group-info", "--group", "catalog:cyclic(%s)" % nines],
                 ["age", "--group", "catalog:cyclic(3)", "--rep", "sl2",
                  "--element", nines],
                 ["age", "--group", "catalog:cyclic(3)", "--rep", "sl2",
                  "--element", "g^" + nines]):
        for flags in ((), ("-O",)):
            proc = run_process(argv, *flags, "-X", "int_max_str_digits=640",
                               timeout=5)
            assert (proc.returncode, proc.stdout) == (1, b""), proc.stderr
            error = json.loads(proc.stderr)["error"]
            assert error["kind"] == "UserError", error
            assert "640 digits" in error["message"], error["message"]


def test_group_json_inputs():
    table = [[0, 1], [1, 0]]
    spec = json.dumps({"kind": "table", "table": table, "label": "pair"})
    code, out, _ = run_cli(["group-info", "--group", spec])
    assert code == 0
    assert json.loads(out)["order"] == 2
    perm = json.dumps({"kind": "perm", "generators": [[1, 2, 0]]})
    code, out, _ = run_cli(["group-info", "--group", perm])
    assert code == 0
    assert json.loads(out)["order"] == 3


def test_obstruction_and_age_examples():
    code, out, _ = run_cli(
        ["obstruction", "--group", "catalog:cyclic(3)", "--rep", "sl2",
         "--tuple", "g,g"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == "1"
    code, out, _ = run_cli(
        ["age", "--group", "catalog:symmetric(3)", "--rep", "std",
         "--element", "s1"]
    )
    assert json.loads(out)["age"] == "1/2"


def test_std_on_the_smallest_alternating_groups():
    # alternating(1) and alternating(2) are the trivial group on one and two
    # points, where std, the permutation representation less the trivial
    # one, is zero and trivial: the same artifacts as those reps give
    for n, same in ((1, "zero"), (2, "trivial")):
        for command in (["k-ring"], ["age", "--element", "0"]):
            argv = command + ["--group", "catalog:alternating(%d)" % n]
            code, out, err = run_cli(argv + ["--rep", "std"])
            assert (code, err) == (0, ""), err
            assert (code, out, err) == run_cli(argv + ["--rep", same]), argv


def test_std_needs_a_group_given_by_permutations():
    # std is the permutation representation less the trivial one, so it is
    # defined on any group given by permutations, and the refusal of table
    # input says so; with and without -O
    perm = {"kind": "perm", "generators": [[1, 0, 2], [0, 2, 1]]}
    argv = ["age", "--rep", "std", "--element", "1", "--group"]
    code, out, err = run_cli(argv + [json.dumps(perm)])
    assert (code, err) == (0, ""), err
    assert json.loads(out)["age"] == "1/2"
    table = {"kind": "table",
             "table": [list(row) for row in load_group(json.dumps(perm)).table]}
    for flags in ((), ("-O",)):
        proc = run_process(argv + [json.dumps(table)], *flags)
        assert (proc.returncode, proc.stdout) == (1, b""), proc.stderr
        assert json.loads(proc.stderr)["error"] == {
            "kind": "UserError",
            "message": "catalog representation 'std' needs a group given "
                       'by permutations (a catalog symmetric or alternating '
                       'group, or {"kind": "perm"}), not order-6 group'}


def test_verify_algebra_round_trip(tmp_path):
    ring_path = str(tmp_path / "ring.json")
    code, _, _ = run_cli(
        ["chow-ring", "--group", "catalog:symmetric(3)", "--rep", "zero",
         "--out", ring_path]
    )
    assert code == 0
    code, out, _ = run_cli(["verify", "--algebra", ring_path, "--all"])
    assert code == 0
    assert json.loads(out)["holds"] is True

    blob = json.load(open(ring_path))
    entry = next(
        e for e in blob["table"]
        if e["i"] == e["j"] and e["i"] != json.loads(
            open(ring_path).read()
        )["identity"]
    )
    entry["terms"][0]["c"] = "99"
    bad_path = str(tmp_path / "bad.json")
    json.dump(blob, open(bad_path, "w"))
    code, out, _ = run_cli(["verify", "--algebra", bad_path, "--all"])
    assert code == 2, "perturbed table must fail verification"
    report = json.loads(out)
    assert report["holds"] is False
    assert report["checks"]["associativity"] is False


def test_verify_algebra_refuses_what_it_cannot_check(tmp_path):
    # a ring file carries no group or character: a check that needs them,
    # or --group and --rep themselves, must not pass without running
    ring_path = str(tmp_path / "ring.json")
    code, _, _ = run_cli(["chow-ring", "--group", "catalog:cyclic(2)",
                          "--rep", "zero", "--out", ring_path])
    assert code == 0
    base = ["verify", "--algebra", ring_path, "--associativity"]
    refused = [["--frobenius"], ["--fw"], ["--nonnegativity"],
               ["--v-identities"], ["--rr"], ["--multiproduct"],
               ["--group", "catalog:cyclic(2)"], ["--rep", "zero"],
               ["--max-order", "1"], ["--max-order", "0"]]
    for extra in refused:
        code, out, err = run_cli(base + extra)
        assert code == 1, extra
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert message.startswith("verify --algebra takes no %s:" % extra[0]), \
            message
    code, out, err = run_cli(base + ["--all", "--max-order", "1"])
    assert code == 1
    assert json.loads(err)["error"]["message"] == (
        "verify --algebra takes no --max-order: it re-checks a ring file "
        "with --associativity, --grading or --all")
    code, out, err = run_cli(base + ["--multiproduct", "--v-identities"])
    assert code == 1
    assert "--v-identities, --multiproduct" in json.loads(err)["error"]["message"]
    code, out, _ = run_cli(base + ["--grading"])
    assert code == 0
    assert sorted(json.loads(out)["checks"]) == [
        "associativity", "commutativity", "grading", "identity"]


def test_verify_algebra_refuses_repeated_entries(tmp_path):
    # a ring file that lists one product, or one term of a product, twice
    # is ambiguous: it is refused, also under -O, rather than read as the
    # last of the two
    term = {"k": 0, "c": "1"}
    cases = {
        "table entry (0, 0) is repeated": [
            {"i": 0, "j": 0, "terms": [term]},
            {"i": 0, "j": 0, "terms": [term]}],
        "table term (0, 0, 0) is repeated": [
            {"i": 0, "j": 0, "terms": [{"k": 0, "c": "2"}, term]}],
    }
    for n, (message, table) in enumerate(cases.items()):
        path = str(tmp_path / ("ring%d.json" % n))
        with open(path, "w") as fh:
            json.dump({"basis": ["a"], "grading": ["0"], "table": table}, fh)
        for flags in ((), ("-O",)):
            proc = run_process(["verify", "--algebra", path, "--all"], *flags)
            assert (proc.returncode, proc.stdout) == (1, b""), proc.stderr
            error = json.loads(proc.stderr)["error"]
            assert error == {"kind": "UserError", "message":
                             "malformed algebra JSON: " + message}, flags


def test_catalog_refusals_exit_1_with_their_messages():
    unknown = ("unknown catalog group 'foo' (available: cyclic(n), "
               "dihedral(n), symmetric(n<=6), alternating(n<=6), quaternion8, "
               "binary_dihedral(n), klein4)")
    cases = {
        "cyclic(0)": "cyclic(n) needs n >= 1",
        "cyclic": "cyclic(n) needs n >= 1",
        "dihedral(0)": "dihedral(n) needs n >= 1",
        "symmetric(0)": "symmetric(n) needs n >= 1",
        "alternating": "alternating(n) needs n >= 1",
        "binary_dihedral": "binary_dihedral(n) needs n >= 1",
        "quaternion8(2)": "quaternion8 takes no parameter",
        "klein4(1)": "klein4 takes no parameter",
        "symmetric(7)": "symmetric(n) is supported for n <= 6",
        "alternating(7)": "alternating(n) is supported for n <= 6",
        "foo(3)": unknown,
        "dihedral(300)": "group order 600 exceeds the supported maximum 512",
        "binary_dihedral(129)":
            "group order 516 exceeds the supported maximum 512",
        "cyclic(-1)": "cannot parse catalog group name 'cyclic(-1)'",
    }
    for spec, message in cases.items():
        code, out, err = run_cli(["group-info", "--group", "catalog:" + spec])
        assert code == 1, spec
        assert out == ""
        assert json.loads(err)["error"] == {"kind": "UserError",
                                            "message": message}, spec


def test_verify_group_mode():
    code, out, _ = run_cli(
        ["verify", "--group", "catalog:cyclic(2)", "--rep", "sl2", "--all"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["holds"] is True
    for key in ("chow", "k", "fw", "nonnegativity", "v_identities", "rr"):
        assert key in obj["checks"], f"missing {key} in --all report"
    # frobenius needs a point quotient; asking for it explicitly must fail
    code, _, err = run_cli(
        ["verify", "--group", "catalog:cyclic(2)", "--rep", "sl2",
         "--frobenius"]
    )
    assert code == 1
    code, out, _ = run_cli(
        ["verify", "--group", "catalog:cyclic(2)", "--frobenius"]
    )
    assert code == 0
    assert json.loads(out)["checks"]["chow"]["frobenius"] is True


def test_chartable_file_round_trip(tmp_path):
    code, out, _ = run_cli(["chartable", "--group", "catalog:symmetric(3)"])
    assert code == 0
    path = str(tmp_path / "table.json")
    open(path, "w").write(out)
    code, out2, _ = run_cli(
        ["chartable", "--group", "catalog:symmetric(3)",
         "--chartable-file", path]
    )
    assert code == 0
    assert out2 == out, "a valid supplied table must round-trip"
    # corrupt one entry: orthogonality must fail with exit 1
    blob = json.loads(out)
    blob["table"][2][1] = "5"
    bad = str(tmp_path / "bad_table.json")
    json.dump(blob, open(bad, "w"))
    code, _, err = run_cli(
        ["chartable", "--group", "catalog:symmetric(3)",
         "--chartable-file", bad]
    )
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "UserError"


def test_eta_and_star_t_commands():
    code, out, _ = run_cli(
        ["eta", "--group", "catalog:cyclic(2)", "--mode", "k"]
    )
    assert code == 0
    obj = json.loads(out)
    n = len(obj["basis"])
    expected = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    assert obj["matrix"] == expected, "k-pairing of cyclic(2) should be unimodular diagonal"
    code, out, _ = run_cli(
        ["star-t", "--group", "catalog:cyclic(2)", "--rep", "zero"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["identity_class_function"] == [
        {"conductor": 1, "coeffs": ["1/1"]},
        {"conductor": 1, "coeffs": ["0/1"]},
    ]
    assert obj["verified"]["associativity"] is True


def test_lusztig_and_chern_commands():
    code, out, _ = run_cli(["lusztig", "--group", "catalog:symmetric(3)"])
    assert code == 0
    assert len(json.loads(out)["basis"]) == 8
    code, out, _ = run_cli(["chern", "--group", "catalog:symmetric(3)"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vectors"]) == len(obj["basis"])


def test_max_order_guard():
    code, _, err = run_cli(
        ["group-info", "--group", "catalog:symmetric(5)", "--max-order", "100"]
    )
    assert code == 1
    assert "exceed" in json.loads(err)["error"]["message"]


def test_max_order_does_not_leak_into_later_calls():
    argv = ["group-info", "--group", "catalog:cyclic(6)"]
    code, _, _ = run_cli(argv + ["--max-order", "4"])
    assert code == 1
    code, out, _ = run_cli(argv)
    assert code == 0, "a --max-order override leaked into the next call"
    assert json.loads(out)["order"] == 6


def test_max_order_raises_the_cap_for_catalog_families():
    for spec in ("cyclic(600)", "dihedral(300)", "binary_dihedral(150)"):
        argv = ["group-info", "--group", "catalog:" + spec]
        code, out, err = run_cli(argv + ["--max-order", "600"])
        assert code == 0, f"{spec} refused under --max-order 600: {err}"
        assert json.loads(out)["order"] == 600
        code, _, err = run_cli(argv)
        assert code == 1, f"{spec} accepted under the default cap"
        assert "exceed" in json.loads(err)["error"]["message"]


def test_max_order_builds_the_index_once(monkeypatch):
    built = []
    extend = inertia._extend

    def counted(group, classes):
        built.append(group)
        return extend(group, classes)

    monkeypatch.setattr(inertia, "_extend", counted)
    # every load builds its group anew, so nothing is cached across calls
    s4 = '{"kind": "perm", "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}'
    code, _, err = run_cli(["chow-ring", "--group", s4, "--rep", "trivial",
                            "--max-order", "100"])
    assert code == 0, err
    assert len(built) == 1, "--max-order built the double sectors twice"


def test_max_order_applies_to_a_cached_index():
    # no group is shared: the command loads a new one, with none of the
    # pair classes already kept on another caller's group
    G = catalog_group("symmetric(4)")
    build_double_sectors(G)
    loaded = load_group("catalog:symmetric(4)")
    assert loaded is not G and "doubles" not in loaded._memo
    argv = ["chow-ring", "--group", "catalog:symmetric(4)", "--rep", "std"]
    code, _, err = run_cli(argv + ["--max-order", "20"])
    assert code == 1
    assert json.loads(err)["error"]["message"] == (
        "group order 24 exceeds the supported maximum 20")
    code, _, _ = run_cli(argv)
    assert code == 0


def test_max_order_raises_the_pair_class_cap():
    argv = ["chow-ring", "--group", "catalog:alternating(6)", "--rep",
            "trivial"]
    code, out, err = run_cli(argv + ["--max-order", "400"])
    assert code == 0, err
    assert len(json.loads(out)["basis"]) == 7
    code, _, err = run_cli(argv)
    assert code == 1
    assert json.loads(err)["error"]["message"] == (
        "group order 360 exceeds the supported maximum 200")


def test_pair_class_cap_refuses_before_the_table_is_built(monkeypatch):
    def refused(n):
        raise RuntimeError("the table of cyclic(%d) was built" % n)

    # the builder replaced, the family's order function kept
    monkeypatch.setitem(groups._CATALOG, "cyclic",
                        (refused, groups._CATALOG["cyclic"][1]))
    code, out, err = run_cli(["k-ring", "--group", "catalog:cyclic(201)",
                              "--rep", "zero"])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "kind": "UserError",
        "message": "group order 201 exceeds the supported maximum 200"}


def test_every_input_kind_is_refused_before_its_table_is_built():
    # the cap is checked where outside input becomes a table: a catalog
    # family before its builder runs (symmetric(n) before n! is computed),
    # table input before the group is built, and a permutation closure as
    # soon as it passes the cap, here 12 points generating an order of 12!;
    # with and without -O, within the timeout
    script = """
import io, json
from contextlib import redirect_stderr
from inertial import groups
from inertial.cli import main
def refused(*args, **kwargs):
    raise RuntimeError("a table was built")
groups._composition_table = refused
groups.FiniteGroup = refused
cases = [
    ["--group", "catalog:symmetric(6)"],
    ["--group", "catalog:alternating(6)", "--max-order", "100"],
    ["--group", "catalog:symmetric(" + "9" * 4000 + ")"],
    ["--group", '{"kind": "table", "table": [[0, 1, 2], [1, 2, 0], '
                '[2, 0, 1]]}', "--max-order", "2"],
    ["--group", json.dumps({"kind": "perm", "generators": [
        list(range(1, 12)) + [0], [1, 0] + list(range(2, 12))]})],
]
results = []
for argv in cases:
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["group-info"] + argv)
    results.append([code, json.loads(err.getvalue())["error"]])
print(json.dumps(results))
"""
    messages = [
        "group order 720 exceeds the supported maximum 512",
        "group order 360 exceeds the supported maximum 100",
        "symmetric(n) is supported for n <= 6",
        "group order 3 exceeds the supported maximum 2",
        "permutation group order exceeds the supported maximum 512",
    ]
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            [1, {"kind": "UserError", "message": m}] for m in messages], flags


@pytest.mark.parametrize("command", ["chow-ring", "k-ring", "lusztig",
                                     "star-t"])
def test_ring_commands_exit_2_when_a_self_check_fails(command, monkeypatch):
    # each ring command checks the ring it prints; a failed check still
    # prints the artifact, with the check false, and exits 2
    monkeypatch.setitem(rings._CHECKS, "associativity", lambda alg: False)
    argv = [command, "--group", "catalog:cyclic(2)"]
    if command != "lusztig":
        argv += ["--rep", "sl2"]
    code, out, err = run_cli(argv)
    assert (code, err) == (2, "")
    assert json.loads(out)["verified"]["associativity"] is False


def test_bad_algebra_index_is_a_user_error_under_optimize(tmp_path):
    # assert statements vanish under -O; the range check must not
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"basis": ["a"], "grading": ["0"], "identity": 0,
                   "table": [{"i": 0, "j": 0,
                              "terms": [{"k": 5, "c": "1"}]}]}, fh)
    proc = run_process(["verify", "--algebra", path, "--all"], "-O")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == b""
    assert json.loads(proc.stderr)["error"]["kind"] == "UserError"


def test_booleans_and_floats_are_not_rationals(tmp_path):
    # the formats write rationals as strings (an int is read as itself); a
    # JSON true or 1.0 as a ring grade, a ring coefficient or a cyclotomic
    # coefficient is bad input, with and without -O
    def ring(grade, c):
        return {"basis": ["a"], "grading": [grade], "identity": 0,
                "table": [{"i": 0, "j": 0, "terms": [{"k": 0, "c": c}]}]}

    cases = []
    for n, bad in enumerate((True, 1.0)):
        for m, data in enumerate((ring(bad, "1"), ring("0", bad))):
            path = str(tmp_path / ("ring%d%d.json" % (n, m)))
            with open(path, "w") as fh:
                json.dump(data, fh)
            cases.append(["verify", "--algebra", path, "--all"])
        rep = {"kind": "character",
               "values_by_class": [{"conductor": 1, "coeffs": [bad]}]}
        cases.append(["age", "--group", "catalog:cyclic(1)",
                      "--rep", json.dumps(rep), "--element", "e"])
    for argv in cases:
        for flags in ((), ("-O",)):
            proc = run_process(argv, *flags)
            assert (proc.returncode, proc.stdout) == (1, b""), (argv,
                                                                proc.stderr)
            error = json.loads(proc.stderr)["error"]
            assert error["kind"] == "UserError", error


def test_malformed_group_is_a_user_error_under_optimize():
    proc = run_process(
        ["group-info", "--group", '{"kind": "table", "table": 5}'], "-O"
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == b""
    assert json.loads(proc.stderr)["error"]["kind"] == "UserError"


PINNED = (
    "k-ring --group catalog:quaternion8 --rep sl2",
    "k-ring --group catalog:dihedral(5) --rep regular",
    "lusztig --group catalog:symmetric(4)",
    "eta --group catalog:quaternion8 --mode k",
    "chow-ring --group catalog:symmetric(3) --rep std",
    "group-info --group catalog:symmetric(4)",
    "chartable --group catalog:dihedral(5)",
    "age --group catalog:symmetric(4) --rep std --element 7",
    "logtrace --group catalog:quaternion8 --rep sl2 --element 1",
    "obstruction --group catalog:quaternion8 --rep sl2 --tuple 1,2",
    "star-t --group catalog:quaternion8 --rep sl2",
    "verify --group catalog:symmetric(3) --all",
    "verify --group catalog:quaternion8 --rep sl2 --fw --nonnegativity --rr",
)

# no benchmark command runs chern or star-t beyond quaternion8, so these
# artifacts are pinned here
CHERN = {"chern --group catalog:symmetric(3)": {
    "exit": 0,
    "sha256": "1e1f05a5167f316867937837e58bfb08d919ca196e9c5780b2f89a22115a2333"},
    "star-t --group catalog:symmetric(4) --rep std": {
    "exit": 0,
    "sha256": "8f61416443ff61461b217be1bef8639a31cacb8ab490d375c9994dce2ad05f72"}}

# nor the identity family on symmetric(4): these bytes come from a check of
# all 13,824 element triples, which one check per triple class must repeat
OUTLIER = {"verify --group catalog:symmetric(4) --rep std --all": {
    "exit": 0,
    "sha256": "536d1b7715ac5f224f2a20ceaa8d9ed970e37dfec952415fea34cf0c653d401d"}}


def test_artifacts_match_benchmark_references():
    with open(os.path.join(ROOT, "perfbench", "refs.json")) as fh:
        refs = dict(json.load(fh)["commands"], **CHERN, **OUTLIER)
    for key in PINNED + tuple(CHERN) + tuple(OUTLIER):
        proc = run_process(key.split(" "))
        got = {"exit": proc.returncode,
               "sha256": hashlib.sha256(proc.stdout).hexdigest()}
        assert got == refs[key], f"{key}: artifact changed"


# eta and chern read the sectors, the K basis and the restriction tables
# only; these bytes come from the commands when they built the whole ring
NO_PRODUCTS = {
    "eta --group catalog:quaternion8 --mode k":
    "e6bce627870c1f8b7a5f543a8f02b278dfc417cebacef2c56f258d83fff9c215",
    "eta --group catalog:quaternion8 --mode chow":
    "4899290c88e207186885957434a0e3c7d3938746a71e86c3fd28762c695149ba",
    "eta --group catalog:symmetric(4) --mode k":
    "51fddf339dd76ccf9797bf2dc80f84d3a3950844c75a6643e8f7cf59f19d5adf",
    "eta --group catalog:symmetric(4) --mode chow":
    "c5934a5827e540187e9a09dd867f1a1e39403ce9e75ed34a36ff79d83499260a",
    "chern --group catalog:symmetric(4)":
    "1391f02a1834c03b251320a28f807dafd299393e504fc0fd6f17c8e957144e87",
    "chern --group catalog:quaternion8":
    "1dd8c418711463ba5a2ce02264d7a27c8482665c84bb3986facf163295515d73",
}


def test_eta_and_chern_build_no_product_table(monkeypatch):
    def refused(*args):
        raise RuntimeError("a product table or pair class was built")

    monkeypatch.setattr(rings, "_k_products", refused)
    monkeypatch.setattr(rings, "_chow_products", refused)
    for module in (inertia, rings, commands):
        monkeypatch.setattr(module, "build_double_sectors", refused)
    for key, digest in NO_PRODUCTS.items():
        code, out, err = run_cli(key.split(" "))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key
    # neither takes a character: a --rep is a usage error, refused before
    # the K basis is read
    monkeypatch.setattr(rings, "k_basis", refused)
    for command in ("eta", "chern"):
        code, out, err = run_cli([command, "--group", "catalog:symmetric(5)",
                                  "--rep", "std"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "kind": "UserError",
            "message": "unrecognized arguments: --rep std"}


def test_logtrace_command():
    code, out, _ = run_cli(
        ["logtrace", "--group", "catalog:cyclic(2)", "--rep", "sl2",
         "--element", "1"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == "1"
    assert obj["scaled_integral"] == "2"
    assert obj["values_by_class"] == [
        {"conductor": 1, "coeffs": ["1/1"]},
        {"conductor": 1, "coeffs": ["-1/1"]},
    ]


def test_chartable_file_never_changes_the_group(tmp_path):
    # [1, zeta_4], [1, -zeta_4] pass orthogonality and the degree sum but
    # are not the characters of cyclic(2)
    zeta = root_of_unity(4, 1)
    path = str(tmp_path / "fake.json")
    with open(path, "w") as fh:
        json.dump({"table": [[1, zeta.to_json()], [1, (-zeta).to_json()]]},
                  fh)
    code, out, err = run_cli(["chartable", "--group", "catalog:cyclic(2)",
                              "--chartable-file", path])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "UserError"
    for argv in (["k-ring", "--group", "catalog:cyclic(2)", "--rep", "zero"],
                 ["chartable", "--group", "catalog:cyclic(2)"]):
        cold = run_process(argv)
        assert run_cli(argv)[:2] == (cold.returncode, cold.stdout.decode())


def test_star_t_computes_each_normal_factor_once(monkeypatch):
    calls = []
    checks = []

    def counted(v, x):
        calls.append(x)
        return normal_factor(v, x)

    def checked(v, what):
        checks.append(v)
        return assert_genuine_character(v, what)

    monkeypatch.setattr(chern, "normal_factor", counted)
    monkeypatch.setattr(characters, "assert_genuine_character", checked)
    code, _, err = run_cli(["star-t", "--group", "catalog:quaternion8",
                            "--rep", "sl2"])
    assert code == 0, err
    assert len(calls) == 5, "one normal factor per sector of quaternion8"
    assert len(checks) == 1, "the character's genuineness checked again"


def test_star_t_refuses_a_vanished_normal_factor():
    # the normal factor is divided by, so a zero one is refused, with and
    # without -O
    script = """
import sys
from inertial import chern
from inertial.cli import main
from inertial.cyclotomic import ZERO
chern.normal_factor = lambda v, x: ZERO
sys.exit(main(["star-t", "--group", "catalog:quaternion8", "--rep", "sl2"]))
"""
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, env=child_env(), cwd=ROOT)
        assert (proc.returncode, proc.stdout) == (3, b""), proc.stderr
        assert json.loads(proc.stderr)["error"] == {
            "kind": "TheoremViolation",
            "message": "normal-bundle factor vanished at a sector element"}


def test_star_t_builds_no_k_ring(monkeypatch):
    # the transplanted product is the rescaled Chow table: the same bytes
    # with the integral ring out of reach
    def refused(*args):
        raise RuntimeError("the integral ring was built")

    monkeypatch.setattr(rings, "k_ring", refused)
    monkeypatch.setattr(rings, "_k_products", refused)
    with open(os.path.join(ROOT, "perfbench", "refs.json")) as fh:
        refs = dict(json.load(fh)["commands"], **CHERN)
    for key in ("star-t --group catalog:quaternion8 --rep sl2",
                "star-t --group catalog:symmetric(4) --rep std"):
        code, out, err = run_cli(key.split(" "))
        assert code == 0, err
        assert (hashlib.sha256(out.encode()).hexdigest()
                == refs[key]["sha256"]), key


def _user_error(argv):
    code, out, err = run_cli(argv)
    assert code == 1, f"{[a[:60] for a in argv]} exited {code}: {err}"
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "UserError"


# the options each subcommand needs besides --group and --rep; verify runs
# in group mode and without --all, which would skip reading the check flags
NEEDS = {
    "group-info": [], "chartable": [], "age": ["--element", "0"],
    "logtrace": ["--element", "0"], "obstruction": ["--tuple", "0,0"],
    "chow-ring": [], "k-ring": [], "lusztig": [], "eta": [], "chern": [],
    "star-t": [], "verify": ["--fw"],
}
TAKES_REP = ("age", "logtrace", "obstruction", "chow-ring", "k-ring",
             "star-t", "verify")
BAD_GROUPS = (
    "catalog:sporadic(1)",
    '{"kind": "nonsense"}',
    '{"kind": "table", "table": 5}',
    '{"kind": "catalog"}',
    '{"kind": "table", "table": [[0, 1], [1, 0]], "names": {"g": 9}}',
    # names an element token would not read back as the same element
    '{"kind": "table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], '
    '"names": {"a b": 1}}',
    '{"kind": "table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], '
    '"names": {"1": 2, "g": 1}}',
    '{"kind": "perm", "generators": [[1, 0]], "names": {"s^2": [1, 0]}}',
    '{"kind": "perm", "generators": 5}',
    "catalog:cyclic(%s)" % HUGE,
    DEEP_JSON[-1],
)
BAD_REPS = (
    ("symmetric(3)", '{"kind": "character", "values_by_class": ["1", "5", "1"]}'),
    ("symmetric(3)", "sl2"),
    ("symmetric(3)", '{"kind": "catalog_rep"}'),
    ("cyclic(2)", BIG_CONDUCTOR[-1]),
    ("cyclic(2)", '{"kind": "character", "values_by_class": ["1e10000000", "1"]}'),
    ("cyclic(2)", '{"kind": "character", "values_by_class": ["1/0", "1"]}'),
    ("cyclic(2)", ""),
)


def _argv(command, group="catalog:cyclic(2)", rep="zero"):
    """A run of command on group, with rep where it takes --rep."""
    return [command, "--group", group,
            *(["--rep", rep] if command in TAKES_REP else []), *NEEDS[command]]


def test_removed_options_are_usage_errors():
    # --max-order is the one size cap, and eta and chern read no character
    for command in NEEDS:
        _user_error(_argv(command) + ["--max-double", "5"])
    for command in ("eta", "chern"):
        _user_error(_argv(command) + ["--rep", "zero"])


@pytest.mark.parametrize("command", sorted(NEEDS))
def test_malformed_specs_exit_1_in_every_command(command):
    for group in BAD_GROUPS:
        _user_error(_argv(command, group=group))
    if command in TAKES_REP:
        for group, rep in BAD_REPS:
            _user_error(_argv(command, "catalog:" + group, rep))


def test_every_option_is_read(monkeypatch):
    # a subcommand may accept only options its path reads: record the
    # attribute reads on the parsed options from the end of parsing on
    reads = set()

    class Recording:
        def __init__(self, args):
            self.args = args

        def __getattr__(self, name):
            reads.add(name)
            return getattr(self.args, name)

    parse = cli._Parser.parse_args

    def recorded(self, argv):
        args = Recording(parse(self, argv))
        reads.clear()
        return args

    monkeypatch.setattr(cli._Parser, "parse_args", recorded)
    assert set(cli.COMMANDS) == set(NEEDS)
    unread = {}
    for name in cli.COMMANDS:
        code, _, err = run_cli(_argv(name))
        assert code == 0, f"{name}: {err}"
        options = {option.replace("-", "_")
                   for option in cli._Parser().options(name)}
        if options - reads:
            unread[name] = sorted(options - reads)
    assert unread == {}, f"options no path reads: {unread}"


def test_commands_import_only_the_layers_they_run(tmp_path):
    # each command loads the package modules it runs, fractions only where
    # it does rational arithmetic, and never argparse: the JSON specs
    # (specs) only for a JSON spec, and the ring and check handlers
    # (commands) only for those commands
    script = """
import json, sys
from inertial.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps([code, sorted(
    name[len("inertial."):] for name in sys.modules
    if name.startswith("inertial.")) + [
    name for name in ("fractions", "argparse") if name in sys.modules]]))
"""
    artifact = str(tmp_path / "k.json")
    k_ring = ["k-ring", "--group", "catalog:symmetric(3)", "--rep", "std"]
    assert run_cli(k_ring + ["--out", artifact])[0] == 0
    lookup = ["cli", "errors", "groups"]
    scalars = ["characters", "cyclotomic"]
    perm = json.dumps({"kind": "perm", "generators": [[1, 0, 2], [0, 2, 1]]})
    for argv, loaded in (
        (["group-info", "--group", "catalog:symmetric(3)"],
         lookup + ["inertia"]),
        (["group-info", "--group", perm], lookup + ["inertia", "specs"]),
        (["chartable", "--group", "catalog:symmetric(3)"],
         sorted(lookup + scalars) + ["fractions"]),
        (["age", "--group", "catalog:symmetric(3)", "--rep", "std",
          "--element", "1"],
         sorted(lookup + scalars + ["logtrace"]) + ["fractions"]),
        (["age", "--group", "catalog:symmetric(3)", "--rep",
          '{"kind": "catalog_rep", "name": "std"}', "--element", "1"],
         sorted(lookup + scalars + ["logtrace", "specs"]) + ["fractions"]),
        # reading a table back needs no group and no scalar field
        (["verify", "--algebra", artifact, "--all"],
         ["cli", "commands", "errors", "inertia", "rings", "fractions"]),
        (k_ring, sorted(lookup + scalars + ["commands", "inertia", "logtrace",
                                            "rings"]) + ["fractions"]),
        # the K basis and its restriction tables read coordinates from the
        # character layer alone
        (["chern", "--group", "catalog:symmetric(3)"],
         sorted(lookup + scalars + ["chern", "commands", "inertia",
                                    "rings"]) + ["fractions"]),
        (["eta", "--group", "catalog:symmetric(3)", "--mode", "k"],
         sorted(lookup + scalars + ["commands", "inertia", "rings"])
         + ["fractions"]),
    ):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr) == [0, loaded], argv[:2]


def test_lookups_load_at_most_their_line_budget():
    # the package source a lookup compiles, counted in lines: group-info
    # loads cli, errors, groups and inertia; age adds the scalar, character
    # and log-trace layers but neither commands nor specs
    script = """
import io, json, sys
from contextlib import redirect_stdout
from inertial.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
files = [m.__file__ for n, m in sys.modules.items()
         if n.startswith("inertial.")]
print(json.dumps([code, sum(len(open(f).readlines()) for f in files)]))
"""
    for argv, budget in (
            (["group-info", "--group", "catalog:cyclic(1)"], 1100),
            (["age", "--group", "catalog:symmetric(4)", "--rep", "std",
              "--element", "7"], 2650)):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, env=child_env())
        code, lines = json.loads(proc.stdout)
        assert code == 0, proc.stderr
        assert lines <= budget, (argv[0], lines)


# usage errors in argparse's wording: (argv, message)
USAGE_ERRORS = (
    (["group-info", "--group", "catalog:cyclic(2)", "--rep", "std"],
     "unrecognized arguments: --rep std"),
    (["group-info", "--group", "catalog:cyclic(2)", "--bogus=1", "x"],
     "unrecognized arguments: --bogus=1 x"),
    # prefixes of an option are not the option
    (["group-info", "--gro", "catalog:cyclic(2)"],
     "the following arguments are required: --group"),
    (["chartable", "--group", "catalog:cyclic(2)", "--chartable"],
     "unrecognized arguments: --chartable"),
    (["age", "--rep", "std", "--element", "1"],
     "the following arguments are required: --group"),
    (["age", "--group", "catalog:cyclic(2)", "--element", "1"],
     "the following arguments are required: --rep"),
    (["logtrace", "--group", "catalog:cyclic(2)"],
     "the following arguments are required: --rep, --element"),
    (["obstruction", "--group=catalog:cyclic(2)", "--rep=zero"],
     "the following arguments are required: --tuple"),
    (["group-info", "--group", "catalog:cyclic(2)", "--max-order", "x"],
     "argument --max-order: invalid int value: 'x'"),
    (["group-info", "--group", "catalog:cyclic(2)", "--max-order=1.5"],
     "argument --max-order: invalid int value: '1.5'"),
    (["eta", "--group", "catalog:cyclic(2)", "--mode", "z"],
     "argument --mode: invalid choice: 'z' (choose from 'chow', 'k')"),
    (["eta", "--group=catalog:cyclic(2)", "--mode=z"],
     "argument --mode: invalid choice: 'z' (choose from 'chow', 'k')"),
    (["verify", "--group", "catalog:cyclic(2)", "--all=1"],
     "argument --all: ignored explicit argument '1'"),
    # after "--" nothing is an option
    (["group-info", "--", "--group", "catalog:cyclic(2)"],
     "the following arguments are required: --group"),
    (["group-info", "--group", "catalog:cyclic(2)", "--", "--out", "f"],
     "unrecognized arguments: -- --out f"),
    (["group-info", "--group", "catalog:cyclic(2)", "--", "-h"],
     "unrecognized arguments: -- -h"),
    (["group-info", "--group"], "argument --group: expected one argument"),
    (["group-info", "--group", "--out", "x"],
     "argument --group: expected one argument"),
    # a negative number is a value, so the refusal is the cap's own
    (["group-info", "--group", "catalog:cyclic(2)", "--max-order", "-1"],
     "--max-order must be at least 1 (got -1)"),
    ([], "the following arguments are required: command"),
    (["no-such-command"],
     "argument command: invalid choice: 'no-such-command' (choose from "
     "'group-info', 'chartable', 'age', 'logtrace', 'obstruction', "
     "'chow-ring', 'k-ring', 'lusztig', 'eta', 'chern', 'star-t', "
     "'verify')"),
)


def test_usage_errors_exit_1_with_argparse_wording():
    for argv, message in USAGE_ERRORS:
        want = (1, "", {"error": {"kind": "UserError", "message": message}})
        code, out, err = run_cli(argv)
        assert (code, out, json.loads(err)) == want, argv
        proc = run_process(argv, "-O")
        assert (proc.returncode, proc.stdout.decode(),
                json.loads(proc.stderr)) == want, argv


# a value whose text before "=" is one of the command's option strings, -h
# or --help, or that starts with -h, is an option, as argparse reads it,
# though it holds a space
OPTION_SHAPED = ("--group=a b", "--help=x y", "--out=a b", "--max-order=a b",
                 "-h=x y", "-hx y")


def test_option_shaped_values_are_usage_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["group-info", "--group", "catalog:cyclic(2)", "--out"]
    want = (1, "", {"error": {"kind": "UserError", "message":
                              "argument --out: expected one argument"}})
    for value in OPTION_SHAPED:
        code, out, err = run_cli(argv + [value])
        assert (code, out, json.loads(err)) == want, value
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "inertial", *argv, value],
            capture_output=True, env=child_env(), cwd=tmp_path)
        assert (proc.returncode, proc.stdout.decode(),
                json.loads(proc.stderr)) == want, value
    assert os.listdir(tmp_path) == [], "a refused command wrote its --out"
    # an option name the command does not take leaves a value
    assert run_cli(argv + ["--nope=a b"]) == (0, "", "")
    assert os.listdir(tmp_path) == ["--nope=a b"]


def test_option_value_forms_are_the_same():
    # --opt value and --opt=value read the same, in any order; a value
    # may start with "-" where it is a negative number
    spaced = ["age", "--group", "catalog:symmetric(3)", "--rep", "std",
              "--element", "s1"]
    joined = ["age", "--element=s1", "--rep=std",
              "--group=catalog:symmetric(3)"]
    assert run_cli(spaced) == run_cli(joined)
    assert run_cli(spaced)[0] == 0
    code, _, err = run_cli(["age", "--group", "catalog:cyclic(2)", "--rep",
                            "zero", "--element", "-1"])
    assert (code, json.loads(err)["error"]["message"]) == (
        1, "element index -1 out of range 0..1")


def test_command_help_lists_the_table_options():
    for name in cli.COMMANDS:
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main([name, "--max-order", "5", "-h"])
        assert exc.value.code == 0
        usage = out.getvalue()
        assert usage.startswith("usage: inertial %s " % name)
        for option in cli._Parser().options(name):
            assert "--%s" % option in usage, (name, option)


def test_unwritable_out_is_a_user_error(tmp_path):
    argv = ["group-info", "--group", "catalog:cyclic(2)", "--out"]
    _user_error(argv + [str(tmp_path / "missing" / "x.json")])
    # a directory, under -O
    proc = run_process(argv + [str(tmp_path)], "-O")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == b""
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "UserError"
    assert error["message"].startswith("cannot write --out file")


def test_failed_stdout_write_is_a_user_error():
    # /dev/full refuses every write: the artifact cannot reach stdout, which
    # is an input error (exit 1, a JSON error on stderr), whether stdout is
    # flushed per write or only at exit, and under -O
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    argv = ["group-info", "--group", "catalog:cyclic(3)"]
    for flags, env in (((), buffered_env()), (("-O",), buffered_env()),
                       ((), dict(child_env(), PYTHONUNBUFFERED="1"))):
        with open("/dev/full", "w") as full:
            proc = run_process(argv, *flags, env=env, stdout=full)
        assert proc.returncode == 1, (flags, proc.stderr)
        error = json.loads(proc.stderr)["error"]
        assert error["kind"] == "UserError"
        assert error["message"].startswith("cannot write to stdout")


def test_process_exit_keeps_every_byte(tmp_path):
    # the process ends without interpreter teardown: a 100 KB+ artifact
    # still arrives whole, through a pipe and through --out
    argv = ["k-ring", "--group", "catalog:symmetric(4)", "--rep", "std"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == "" and len(out) > 100_000
    proc = run_process(argv, env=buffered_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, out.encode(), b"")
    path = tmp_path / "k.json"
    proc = run_process(argv + ["--out", str(path)], env=buffered_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert path.read_text() == out


def test_process_exit_codes_and_errors_match_main():
    # exit 0, 1 (a JSON error on stderr) and 2 (a failed check), each the
    # same code and bytes in a process as from main in this one
    failing = json.dumps({"basis": ["a"], "grading": ["0"], "table": []})
    for argv, code in (
            (["group-info", "--group", "catalog:cyclic(3)"], 0),
            (["group-info", "--group", "catalog:sporadic(1)"], 1),
            (["verify", "--algebra", failing, "--all"], 2)):
        want = run_cli(argv)
        assert want[0] == code
        proc = run_process(argv, env=buffered_env())
        assert (proc.returncode, proc.stdout.decode(),
                proc.stderr.decode()) == want, argv


def test_help_exits_normally(monkeypatch):
    # --help ends through SystemExit, so argparse's own exit path prints
    # the same usage text in a process as in this one
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    proc = run_process(["--help"], env=dict(buffered_env(), COLUMNS="80"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, out.getvalue().encode(), b"")


def test_profiled_process_still_reports():
    # under a profiler the process exits normally, so the profile prints
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "inertial", "group-info",
         "--group", "catalog:cyclic(2)"],
        capture_output=True, env=buffered_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert b"function calls" in proc.stdout


def test_console_script_and_module_share_the_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["inertial"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is importlib.import_module("inertial.__main__").run
    assert entry is cli.run


# (group, rep, number of sampled element triples, None for all of them)
V_IDENTITY_SCANS = (
    ("symmetric(3)", "std", None),
    ("quaternion8", "sl2", None),
    ("cyclic(4)", "sl2", None),
    ("dihedral(4)", "regular", None),
    ("symmetric(4)", "std", 300),
)


def test_identity_family_per_class_matches_the_element_scan():
    # every element triple's report equals its class representative's, so
    # the class loop of verify --v-identities reports what the scan would
    rng = random.Random(11)
    for spec, rep, sample in V_IDENTITY_SCANS:
        G = catalog_group(spec)
        v = catalog_character(G, rep)
        triples = None if sample is None else [
            tuple(rng.randrange(G.n) for _ in range(3)) for _ in range(sample)]
        # a fresh character, so the scan shares no memo with the classes
        scan = reference_v_identities(ClassFunction(G, v.values), triples)
        reps = {cls.rep: v_identity_check(v, cls.rep)
                for cls in triple_sectors(G)}
        for triple, report in scan.items():
            rep_report = reps[resolve_diag_class(G, triple).rep]
            assert report == rep_report, f"{spec}/{rep}: {triple}"
        if sample is None:
            holds = all(report["holds"] for report in scan.values())
            assert commands._verify_tuples(G, v, {"v_identities"}) == {
                "v_identities": {"triples": len(scan), "holds": holds}}


def test_fw_per_class_matches_the_element_scan(monkeypatch):
    # verify --fw checks one tuple per sector and pair class and reports
    # what the scan over every element pair and triple reports
    for spec, rep in (("symmetric(3)", "zero"), ("symmetric(3)", "std"),
                      ("cyclic(4)", "sl2"), ("quaternion8", "sl2"),
                      ("symmetric(4)", "std")):
        G = catalog_group(spec)
        v = catalog_character(G, rep)
        # a fresh character, so the scan shares no memo with the classes
        want = reference_fw(ClassFunction(G, v.values))
        assert commands._verify_tuples(G, v, {"fw"}) == {"fw": want}, spec
    # classes that miss some tuples are an internal error, not a count
    real = commands.build_double_sectors
    monkeypatch.setattr(commands, "build_double_sectors",
                        lambda G: real(G)[1:])
    G = catalog_group("symmetric(3)")
    with pytest.raises(TheoremViolation, match=r"\|G\| \+ \|G\|\^2 = 42"):
        commands._verify_tuples(G, catalog_character(G, "std"), {"fw"})


def test_identity_family_fails_where_a_term_is_perturbed(monkeypatch):
    # every pinned report holds, so each identity is also made to fail:
    # with the obstruction classes built first, V restricted to Z enters
    # only the pairings and the triple's fixed space only the splits
    for spec, rep in (("symmetric(3)", "std"), ("cyclic(4)", "sl2")):
        G = catalog_group(spec)
        v = catalog_character(G, rep)
        want = {"v_identities": {"triples": G.n ** 3, "holds": True}}
        assert commands._verify_tuples(G, v, {"v_identities"}) == want
        restrict_to = logtrace.restrict_to
        invariants_char = logtrace.invariants_char

        def bumped_v_z(v, sub):
            v_z = restrict_to(v, sub)
            return v_z + trivial_character(v_z.group)

        def bumped_triple(v, ms, sub):
            fixed = invariants_char(v, ms, sub)
            if len(ms) == 3:
                fixed = fixed + trivial_character(fixed.group)
            return fixed

        for name, patch, verdicts in (
                ("restrict_to", bumped_v_z, (False, False, True, True)),
                ("invariants_char", bumped_triple, (True, True, False, False))):
            monkeypatch.setattr(logtrace, name, patch)
            for cls in triple_sectors(G):
                report = v_identity_check(v, cls.rep)
                assert (report["left_pairing"], report["right_pairing"],
                        report["left_split"], report["right_split"],
                        report["holds"]) == verdicts + (False,), (spec, name)
            assert commands._verify_tuples(G, v, {"v_identities"}) == {
                "v_identities": {"triples": G.n ** 3, "holds": False}}
            monkeypatch.undo()


def test_fw_fails_on_a_shifted_age():
    # an age off by 1/2 at one element makes its sector's age sum, and the
    # age-sum bound, fail: verify --fw prints the report and exits 2, also
    # under -O
    script = """
import sys
from fractions import Fraction
from inertial import logtrace
from inertial.cli import main
real = logtrace.age
logtrace.age = lambda v, g: real(v, g) + (Fraction(1, 2) if g == 1 else 0)
sys.exit(main(["verify", "--group", "catalog:quaternion8", "--rep", "sl2",
               "--fw"]))
"""
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, env=child_env(), cwd=ROOT)
        assert (proc.returncode, proc.stderr) == (2, b""), proc.stderr
        report = json.loads(proc.stdout)
        assert report["checks"] == {"fw": {"holds": False, "tuples": 72}}
        assert report["holds"] is False


def test_triple_cap_refuses_before_any_work():
    # 128^3 and 130^3 element triples exceed the cap; the refusal comes
    # before the rings or pair classes are built
    for argv in (
        ["verify", "--group", "catalog:dihedral(64)", "--multiproduct"],
        ["verify", "--group", "catalog:cyclic(130)", "--v-identities"],
    ):
        proc = run_process(argv, timeout=5)
        assert proc.returncode == 1 and proc.stdout == b"", proc.stderr
        message = json.loads(proc.stderr)["error"]["message"]
        assert message.startswith(
            "eager triple-sector enumeration needs |G|^3 <= 2000000"), message
        assert "(--v-identities) can run on this group" in message


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_probes_name_library_functions(tmp_path):
    # a traced command exits 1 and writes no stats when a probe it counts
    # names a function the library no longer has, and crashes when a
    # private probe does
    tracer = _tracer()
    names = [n for probes in tracer.CALLS.values() for n in probes]
    names += ["%s.%s" % (layer, dotted)
              for layer, private in tracer.PRIVATE.items()
              for dotted in private]
    for dotted in names + list(tracer.DISTINCT):
        layer, *attrs = dotted.split(".")
        assert layer in tracer.LAYERS, dotted
        obj = importlib.import_module("inertial." + layer)
        for attr in attrs:
            assert hasattr(obj, attr), f"tracer probe {dotted} is gone"
            obj = getattr(obj, attr)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)

    def traced(argv, stats):
        # the probes rebind module attributes the code looks up as it runs,
        # so the traced bytes are the plain command's
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"),
             str(stats), *argv], capture_output=True, env=env, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        plain = run_process(argv)
        assert plain.returncode == 0, plain.stderr
        assert proc.stdout == plain.stdout, argv[0]
        return json.loads(stats.read_text())["metrics"]

    argv = ["star-t", "--group", "catalog:cyclic(2)", "--rep", "zero"]
    assert traced(argv, tmp_path / "star.json")["chern.star_T.calls"] == 4
    traced(["group-info", "--group", "catalog:symmetric(3)"],
           tmp_path / "info.json")
    artifact = str(tmp_path / "k.json")
    assert run_cli(["k-ring", "--group", "catalog:quaternion8", "--rep", "sl2",
                    "--out", artifact])[0] == 0
    metrics = traced(["verify", "--algebra", artifact, "--all"],
                     tmp_path / "verify.json")
    assert metrics["rings.check.associativity_s"] > 0


def test_identity_family_beyond_the_triple_cap_is_a_user_error():
    # 130^3 element triples exceed the cap on the triple classes it walks
    G = catalog_group("cyclic(130)")
    with pytest.raises(UserError, match="--v-identities"):
        commands._verify_tuples(G, catalog_character(G, "zero"), {"v_identities"})
