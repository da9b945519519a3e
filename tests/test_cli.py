import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from inertial.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_process(argv, *flags):
    """Run the CLI in a fresh interpreter started with the given flags."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *flags, "-m", "inertial", *argv],
        capture_output=True, env=env, cwd=ROOT,
    )


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
        ["age", "--group", "catalog:symmetric(3)", "--rep",
         '{"kind": "catalog_rep"}', "--element", "s1"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv)
        assert code == 1, f"{argv} exited {code}"
        assert out == ""
        body = json.loads(err)
        assert body["error"]["kind"] == "UserError"
        assert isinstance(body["error"]["message"], str)


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
    code, out, _ = run_cli(
        ["chern", "--group", "catalog:symmetric(3)", "--rep", "std"]
    )
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
)


def test_artifacts_match_benchmark_references():
    with open(os.path.join(ROOT, "perfbench", "refs.json")) as fh:
        refs = json.load(fh)["commands"]
    for key in PINNED:
        proc = run_process(key.split(" "))
        got = {"exit": proc.returncode,
               "sha256": hashlib.sha256(proc.stdout).hexdigest()}
        assert got == refs[key], f"{key}: artifact changed"


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
