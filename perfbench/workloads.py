"""The benchmark's workloads: which `inertial` commands each one runs.

A command is the argv after `python3 -m inertial`.  The seed shuffles the
order of every pass and, in `verify`, picks the lookup arguments from bounded
pools.  `all_commands()` lists every command any seed can produce, so that
`record_refs.py` can record a reference output for each one.

Why these workloads (see README.md for the numbers):

* build  - K-ring construction dominates: decompose/induce/transport,
           obstruction classes, then the associativity self-check.  Values
           span conductors 1, 4 and 5; artifacts are 80-130 KB each.  The
           pass then reads three of its own artifacts back with
           `verify --algebra`: JSON parsing plus Fraction table checks, no
           character theory.
* verify - theorem checks from scratch; most time goes to the identity
           family (about 4.6k `log_trace` calls for the 216 triples of S3).
           Every output is under 1 KB.  Short seeded lookups, where process
           start-up dominates, ride along.
"""

# Where artifacts and run records go, relative to the repository root.
OUT_DIR = "perfbench/out"

# The no-op whose wall time is `startup_s`; also the warm-up call.
STARTUP = ("group-info", "--group", "catalog:cyclic(1)")

BUILD = (
    ("k-ring", "--group", "catalog:symmetric(4)", "--rep", "std"),
    ("k-ring", "--group", "catalog:quaternion8", "--rep", "sl2"),
    ("k-ring", "--group", "catalog:dihedral(5)", "--rep", "regular"),
    ("lusztig", "--group", "catalog:symmetric(4)"),
    ("star-t", "--group", "catalog:quaternion8", "--rep", "sl2"),
    ("eta", "--group", "catalog:quaternion8", "--mode", "k"),
    ("chow-ring", "--group", "catalog:symmetric(5)", "--rep", "std"),
    ("chow-ring", "--group", "catalog:alternating(5)", "--rep", "std"),
)

# build command -> the file its stdout is written to, to be read back
ARTIFACTS = {
    BUILD[0]: "k-ring-symmetric4-std.json",
    BUILD[1]: "k-ring-quaternion8-sl2.json",
    BUILD[3]: "lusztig-symmetric4.json",
}

VERIFY = (
    ("verify", "--group", "catalog:symmetric(3)", "--all"),
    ("verify", "--group", "catalog:symmetric(3)", "--rep", "std", "--all"),
    ("verify", "--group", "catalog:cyclic(4)", "--rep", "sl2", "--all"),
    ("verify", "--group", "catalog:quaternion8", "--rep", "sl2", "--fw",
     "--nonnegativity", "--rr"),
)

# group-info and chartable on each
LOOKUP_GROUPS = ("cyclic(6)", "quaternion8", "dihedral(5)", "symmetric(4)",
                 "symmetric(5)")

# (group, rep, elements drawn from 0..n-1, pair entries drawn from 0..m-1)
ELEMENT_POOLS = (
    ("symmetric(4)", "std", 24, 12),
    ("quaternion8", "sl2", 8, 8),
)

LOOKUP_CHOW = (
    ("chow-ring", "--group", "catalog:symmetric(3)", "--rep", "std"),
    ("chow-ring", "--group", "catalog:cyclic(6)", "--rep", "sl2"),
)

NAMES = ("build", "verify")


def artifact_path(name):
    return "%s/%s" % (OUT_DIR, name)


def read_back(producer):
    """The command that re-checks the artifact `producer` wrote."""
    return ("verify", "--algebra", artifact_path(ARTIFACTS[producer]),
            "--all")


def _lookup(command, group, rep, *arg):
    return (command, "--group", "catalog:" + group, "--rep", rep) + arg


def _fixed_lookups():
    out = []
    for group in LOOKUP_GROUPS:
        out.append(("group-info", "--group", "catalog:" + group))
        out.append(("chartable", "--group", "catalog:" + group))
    return out + list(LOOKUP_CHOW)


class Plan:
    """Commands in groups; `next_pass` runs every command once, each group
    shuffled and after the groups before it."""

    def __init__(self, groups, rng):
        self.groups = [list(group) for group in groups]
        self.rng = rng

    def next_pass(self):
        return [argv for group in self.groups
                for argv in self.rng.sample(group, len(group))]


def plan(workload, rng):
    """The workload's commands.  In `build` the read-backs follow all the
    build commands, so each re-checks the artifact its pass wrote."""
    if workload == "build":
        return Plan([BUILD, [read_back(p) for p in ARTIFACTS]], rng)
    if workload != "verify":
        raise ValueError("unknown workload %r" % workload)
    timed = list(VERIFY) + _fixed_lookups()
    for group, rep, n, m in ELEMENT_POOLS:
        timed.append(_lookup("age", group, rep, "--element",
                             str(rng.randrange(n))))
        timed.append(_lookup("logtrace", group, rep, "--element",
                             str(rng.randrange(n))))
        timed.append(_lookup("obstruction", group, rep, "--tuple", "%d,%d"
                             % (rng.randrange(m), rng.randrange(m))))
    return Plan([timed], rng)


def all_commands():
    """Every command a seed can make any workload run, each once."""
    out = [STARTUP] + list(BUILD) + [read_back(p) for p in ARTIFACTS]
    out += list(VERIFY) + _fixed_lookups()
    for group, rep, n, m in ELEMENT_POOLS:
        for x in range(n):
            out.append(_lookup("age", group, rep, "--element", str(x)))
            out.append(_lookup("logtrace", group, rep, "--element", str(x)))
        for a in range(m):
            for b in range(m):
                out.append(_lookup("obstruction", group, rep, "--tuple",
                                   "%d,%d" % (a, b)))
    return out
