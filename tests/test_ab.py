"""tools/ab.py, the A/B timing harness: it times the same commands on two
trees and exits 2 when their outputs differ."""

import importlib.util
import io
import os
import subprocess
import tempfile
from contextlib import redirect_stdout

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROUP_INFO = "group-info --group catalog:cyclic(1)"


def _ab():
    spec = importlib.util.spec_from_file_location(
        "tool_ab", os.path.join(ROOT, "tools", "ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(ref_tree, commands, runs):
    out = io.StringIO()
    with redirect_stdout(out):
        mismatched = _ab().compare(ref_tree, ROOT, commands, runs)
    return mismatched, out.getvalue()


def _fake_tree(root):
    # a tree whose CLI prints other bytes than the working tree's
    package = root / "src" / "inertial"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("print('not the artifact')\n")
    return str(root)


def test_working_tree_against_itself():
    mismatched, out = _compare(ROOT, [GROUP_INFO], 2)
    assert mismatched == [], out
    row = next(line for line in out.splitlines() if line.startswith(GROUP_INFO))
    # min/med/max per side, then the ratio of the medians
    assert len(row[len(GROUP_INFO):].split()) == 3
    assert float(row.split()[-1]) > 0
    assert "MISMATCH" not in out


def test_a_stdout_mismatch_exits_2(tmp_path, monkeypatch):
    fake = _fake_tree(tmp_path)
    mismatched, out = _compare(fake, [GROUP_INFO], 1)
    assert mismatched == [GROUP_INFO]
    assert "MISMATCH (exit code or stdout sha256): " + GROUP_INFO in out
    # and main turns a mismatch into exit code 2
    ab = _ab()
    monkeypatch.setattr(ab, "export", lambda ref, into: fake)
    monkeypatch.setattr(ab, "QUICK", (GROUP_INFO,))
    with redirect_stdout(io.StringIO()):
        assert ab.main(["HEAD", "--quick"]) == 2


def test_a_git_revision_is_exported(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    ab = _ab()
    with tempfile.TemporaryDirectory() as tmp:
        tree = ab.export("HEAD", tmp)
        assert os.path.isfile(os.path.join(tree, "src", "inertial", "cli.py"))
    with pytest.raises(SystemExit, match="git archive"):
        ab.export("no-such-revision", str(tmp_path))
