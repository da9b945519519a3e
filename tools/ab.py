"""A/B timing of `inertial` commands: a git revision against the working tree.

    python3 tools/ab.py REF [--quick]

REF is a git revision; its tree is exported with `git archive` into a
temporary directory.  Every command runs 3 times per side (11 with --quick)
as a fresh `python3 -m inertial` process with PYTHONPATH at that side's `src/`,
PYTHONDONTWRITEBYTECODE=1 (each start compiles the package, as in a fresh
checkout) and PYTHONHASHSEED=0.  The rounds alternate the sides: each round
runs every command once on each side, and which side goes first flips from
one round to the next, so that a drifting host speed weighs on both alike.

Per command it prints the minimum, median and maximum wall time of each side
in milliseconds and the ratio of the medians, working tree over REF.  It
compares the exit code and the sha256 of stdout of every run with the first
run of REF, and exits 2 if any differs.

The default commands are the long outliers of ROADMAP.md's Baseline and
`chartable cyclic(60)`: several minutes.  --quick runs start-up-bound
commands instead, under about a minute: `group-info` on cyclic(1), one
lookup of each kind (group-info, chartable, age, logtrace, obstruction) and
two short ring commands.  Run it from anywhere; it uses the standard
library only.
"""

import argparse
import hashlib
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FULL = (
    "verify --group catalog:dihedral(12) --rep regular --multiproduct",
    "verify --group catalog:dihedral(12) --rep regular --v-identities",
    "verify --group catalog:dihedral(12) --rep regular --associativity",
    "verify --group catalog:symmetric(5) --rep std --multiproduct",
    "verify --group catalog:symmetric(5) --rep std --v-identities",
    "verify --group catalog:alternating(5) --rep std --multiproduct",
    "verify --group catalog:alternating(5) --rep std --v-identities",
    "k-ring --group catalog:dihedral(12) --rep regular",
    "k-ring --group catalog:symmetric(6) --rep std --max-order 720",
    "lusztig --group catalog:alternating(6) --max-order 400",
    "chartable --group catalog:cyclic(60)",
)

QUICK = (
    "group-info --group catalog:cyclic(1)",
    "group-info --group catalog:symmetric(4)",
    "chartable --group catalog:quaternion8",
    "age --group catalog:symmetric(4) --rep std --element 7",
    "logtrace --group catalog:quaternion8 --rep sl2 --element 1",
    "obstruction --group catalog:quaternion8 --rep sl2 --tuple 1,2",
    "star-t --group catalog:symmetric(5) --rep std",
    "k-ring --group catalog:symmetric(4) --rep std",
)


def export(ref, into):
    """The root of REF's tree, a git revision of this repository extracted
    under into."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        raise SystemExit("ab.py: git archive %s failed: %s"
                         % (ref, archive.stderr.decode().strip()))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into


def run(tree, argv):
    """(wall seconds, exit code, stdout sha256) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "inertial", *argv],
                          cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    return wall, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def compare(ref_tree, new_tree, commands, runs):
    """Time every command on both trees; print the table and return the
    commands whose output differs from REF's first run."""
    walls = {(cmd, side): [] for cmd in commands for side in ("ref", "new")}
    want, mismatched = {}, []
    trees = {"ref": ref_tree, "new": new_tree}
    for i in range(runs):
        for cmd in commands:
            for side in (("ref", "new") if i % 2 == 0 else ("new", "ref")):
                wall, code, digest = run(trees[side], cmd.split(" "))
                walls[(cmd, side)].append(wall)
                if side == "ref" and cmd not in want:
                    want[cmd] = (code, digest)
                elif (code, digest) != want.get(cmd, (code, digest)):
                    if cmd not in mismatched:
                        mismatched.append(cmd)
    out = sys.stdout
    out.write("%-62s %23s %23s %7s\n" % (
        "command", "REF min/med/max ms", "tree min/med/max ms", "ratio"))
    for cmd in commands:
        row = []
        for side in ("ref", "new"):
            xs = walls[(cmd, side)]
            row.append("%.1f/%.1f/%.1f" % (
                min(xs) * 1e3, statistics.median(xs) * 1e3, max(xs) * 1e3))
        ratio = (statistics.median(walls[(cmd, "new")])
                 / statistics.median(walls[(cmd, "ref")]))
        out.write("%-62s %23s %23s %7.3f\n" % (cmd[:62], row[0], row[1],
                                                ratio))
    for cmd in mismatched:
        out.write("MISMATCH (exit code or stdout sha256): %s\n" % cmd)
    return mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision")
    parser.add_argument("--quick", action="store_true",
                        help="start-up-bound commands, under about a minute")
    args = parser.parse_args(argv)
    commands, runs = (QUICK, 11) if args.quick else (FULL, 3)
    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = export(args.ref, tmp)
        sys.stdout.write("REF %s against the working tree %s, %d runs per "
                         "side\n" % (args.ref, ROOT, runs))
        mismatched = compare(ref_tree, ROOT, commands, runs)
    return 2 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
