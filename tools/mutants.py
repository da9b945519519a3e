"""Run the tier-1 tests against a fixed table of hand-written mutants.

    python3 tools/mutants.py [NAME ...]

Each entry of MUTANTS is a name, a file of the repository, one or more
exact (old, new) replacements in that file, and one line on what the
mutant breaks.  For each entry (every one, or the NAMEs given) the tool
copies the repository without .git into a temporary directory, applies the
entry there and runs the tier-1 command with -x.  It prints `killed` with
the first failing test, or `survived` with what the mutant breaks.  An
entry with an old text that does not occur exactly once in its file is
`stale` and is not run.  The exit code is 2 if any mutant survived or is
stale, else 0.

A killed mutant stops at its first failure, in seconds; a survivor runs
the whole suite.  Run it from anywhere; it uses the standard library only.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# what is never copied: version control, caches, benchmark output
SKIPPED = {".git", "__pycache__", ".pytest_cache", ".benchmarks"}


class Mutant(NamedTuple):
    name: str
    path: str
    replacements: tuple
    breaks: str


MUTANTS = (
    Mutant("commutativity-diagonal-only", "src/inertial/rings.py", (
        ("for j in range(i, alg.dim):",
         "for j in range(i, min(i + 2, alg.dim)):"),),
        "the commutativity check compares only j in {i, i+1}"),
    Mutant("grading-ignores-zero-sector", "src/inertial/rings.py", (
        ("if c != 0 and alg.grading[k] != want:",
         "if c != 0 and k != 0 and alg.grading[k] != want:"),),
        "the grading check skips output index 0"),
    Mutant("fw-slack", "src/inertial/logtrace.py", (
        ('"holds": integral and lhs >= rhs,',
         '"holds": integral and lhs >= rhs - 1,'),),
        "fw_check accepts an age sum 1 below the bound"),
    Mutant("vid-right-is-left", "src/inertial/logtrace.py", (
        ("right_pairing, right_split = grouping((m2, m3), (m1, G.op(m2, m3)))",
         "right_pairing, right_split = left_pairing, left_split"),),
        "the identity family copies the left grouping's verdicts"),
    Mutant("twisted-pullback-memo-on-group", "src/inertial/logtrace.py", (
        ('key = ("twisted_pullback", ms)\n    cached = v._memo.get(key)',
         'key = ("twisted_pullback", ms)\n    cached = G._memo.get(key)'),
        ("tc = v._memo[key] = TwistedClass(",
         "tc = G._memo[key] = TwistedClass(")),
        "an obstruction class is memoized on the group, so one character's "
        "class answers another's"),
    Mutant("log-trace-memo-on-group", "src/inertial/logtrace.py", (
        ('key = ("log_trace", g)\n    cached = v._memo.get(key)',
         'key = ("log_trace", g)\n    cached = v.group._memo.get(key)'),
        ("lt = v._memo[key] = LogTraceClass(",
         "lt = v.group._memo[key] = LogTraceClass(")),
        "a log trace is memoized on the group, so one character's log "
        "trace answers another's"),
    Mutant("parser-accepts-flag-value", "src/inertial/cli.py", (
        ("            if kind == FLAG and eq:\n"
         "                raise UserError(error + \"ignored explicit argument "
         "%r\" % value)\n", ""),),
        "a flag given a value (--all=1) is read as the bare flag"),
    Mutant("chow-fixed-spaces-unchecked", "src/inertial/rings.py", (
        ("if fixed_dimension(v, ms) != fixed_dimension(v, (prod,)):",
         "if False:"),),
        "the Chow product stops comparing V^<m> with V^prod once the ages "
        "add up"),
    Mutant("excess-drops-trivial", "src/inertial/rings.py", (
        ("n = (eigen_multiplicities(chi, H.from_parent[prod])[0]\n"
         "                         - (e == one))",
         "n = eigen_multiplicities(chi, H.from_parent[prod])[0]"),),
        "the K class factor's excess term keeps [E trivial], so a trivial "
        "summand of V changes the K products"),
    Mutant("chow-coefficient-1", "src/inertial/rings.py", (
        ("row[k] = row.get(k, 0) + coeff", "row[k] = row.get(k, 0) + 1"),),
        "each contributing class adds 1 to the Chow constant, not its "
        "centralizer index"),
    Mutant("assoc-half-pairs", "src/inertial/rings.py", (
        ("lambda i, j: _combine(n, rows[i], by_jm[j]))",
         "lambda i, j: _combine(n, rows[i], by_jm[j]) if j >= i else\n"
         "                          _combine(n, table.get((i, j), {}).items(),"
         " rows))"),),
        "the associator (associativity and Frobenius checks) compares only "
        "the pairs (i, j) with j >= i"),
    Mutant("pack-width-no-sign-bit", "src/inertial/rings.py", (
        ("return bound.bit_length() + 1", "return bound.bit_length()"),),
        "a packed digit has no room for the sign, so a negative coordinate "
        "can carry into its neighbour"),
    Mutant("eta-reads-t1", "src/inertial/rings.py", (
        ("[basis.index(sj, t2)] = row[dual]",
         "[basis.index(sj, t2)] = row[t1]"),),
        "the K pairing reads the coordinate of chi_t1, not of its dual"),
    Mutant("multiproduct-skips-last-k", "src/inertial/rings.py", (
        ("rows, width = _packed_products(n, table, bound)\n",
         "rows, width = _packed_products(n, table, bound)\n"
         "    rows = [[(k, x) for k, x in row if k != n - 1] "
         "for row in rows]\n"),
        ("        packed.setdefault((i, j), [0] * n)[k] = _pack(terms, "
         "width)\n",
         "        if k != n - 1:\n"
         "            packed.setdefault((i, j), [0] * n)[k] = "
         "_pack(terms, width)\n")),
        "the multi-product check compares no triple (i, j, n - 1)"),
    Mutant("restriction-wrong-conjugator", "src/inertial/rings.py", (
        ("moved, sub = transport(chi, Zs, w)",
         "moved, sub = transport(chi, Zs, "
         "G.op(w, G.witness(G.inv[s.rep])))"),),
        "restriction rows move a sector's irreducibles by w n, n the witness "
        "of s^-1, which maps s onto x^-1 where s is real, not onto x"),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def stale(mutant):
    """The old texts of mutant that do not occur exactly once in its file."""
    with open(os.path.join(ROOT, mutant.path)) as fh:
        text = fh.read()
    return [old for old, _ in mutant.replacements if text.count(old) != 1]


def _ignore(directory, names):
    skipped = [n for n in names if n in SKIPPED]
    if os.path.abspath(directory) == os.path.join(ROOT, "perfbench"):
        skipped += [n for n in names if n == "out"]
    return skipped


def run(mutant, tests=()):
    """Apply mutant to a copy of the repository and run the tier-1 command
    with -x there, on tests if given; the first failing test, or None.
    The harness's own self-test is left out: it checks that every old text
    is in the source, which a mutated copy fails by construction."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=_ignore)
        path = os.path.join(tree, mutant.path)
        with open(path) as fh:
            text = fh.read()
        for old, new in mutant.replacements:
            text = text.replace(old, new)
        with open(path, "w") as fh:
            fh.write(text)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors",
             "--ignore=tests/test_mutants.py", *tests],
            cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    found = _FAILED.search(proc.stdout)
    return found.group(1) if found else "exit %d" % proc.returncode


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        raise SystemExit("unknown mutant(s): %s" % ", ".join(unknown))
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        if stale(mutant):
            print("%-32s stale: %r" % (mutant.name, stale(mutant)))
            bad += 1
            continue
        start = time.perf_counter()
        failed = run(mutant)
        verdict = ("survived: no test sees that " + mutant.breaks
                   if failed is None else "killed by " + failed)
        bad += failed is None
        print("%-32s %s (%.1f s)" % (mutant.name, verdict,
                                      time.perf_counter() - start),
              flush=True)
    return 2 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
