"""Microbenchmark of CLI start-up: wall time of fresh `python3 -m inertial`
processes on short commands, and the package's share of their imports.

    python3 tools/startup_microbench.py

Run it from the repository root (it gives the children PYTHONPATH=src); it
uses the standard library only.  Every child runs with
PYTHONDONTWRITEBYTECODE=1, so each one compiles the modules it imports, as
a fresh checkout without bytecode caches does.  The commands are a bare
interpreter (`-c pass`, for reference), `group-info` on cyclic(1),
`chartable` on quaternion8, `age` on symmetric(4)/std,
`verify --algebra FILE --all` on the K ring of quaternion8/sl2, which one
untimed `k-ring` run writes to a temporary directory first, and two
100 KB+ artifacts, `k-ring` on symmetric(4)/std and `lusztig` on
symmetric(4).  The commands run RUNS (15) times each, interleaved, and
each row prints the minimum and the median wall time in milliseconds.

The "exit ms" column is the lower quartile of the command's wall times
through `python3 -m inertial`, which ends the process without interpreter
teardown (`cli.run`), minus the lower quartile through `python3 -c`, which
imports runpy as `-m` does, calls `cli.main` and exits with `sys.exit`; a
negative figure is what skipping teardown saves.  IMPORT_RUNS (3) more runs per command under
`-X importtime` give the "inertial ms" column: the least total, over those
runs, of the self times of the `inertial` modules the command imports, its
function-local imports included.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 15
IMPORT_RUNS = 3
# the same command through cli.main and a normal interpreter exit
MAIN = ["-c", "import runpy, sys\nfrom inertial.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run(args, env, *flags):
    """(wall seconds, completed process) of one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, *args], env=env, cwd=ROOT,
                          capture_output=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("%s exited %d: %s" % (" ".join(args), proc.returncode,
                                               proc.stderr.decode()[-400:]))
    return wall, proc


def _q1(xs):
    """The lower quartile of xs."""
    return statistics.quantiles(xs, n=4)[0]


def _package_import_ms(stderr):
    """Milliseconds: the self times of the inertial modules in -X importtime
    output, summed."""
    total = 0
    for line in stderr.decode().splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[-1].strip()
        if name == "inertial" or name.startswith("inertial."):
            total += int(fields[0])
    return total / 1e3


def main():
    env = _env()
    with tempfile.TemporaryDirectory() as tmp:
        artifact = os.path.join(tmp, "k-quaternion8-sl2.json")
        _run(["-m", "inertial", "k-ring", "--group", "catalog:quaternion8",
              "--rep", "sl2", "--out", artifact], env)
        commands = {
            "group-info cyclic(1)":
                ["group-info", "--group", "catalog:cyclic(1)"],
            "chartable quaternion8":
                ["chartable", "--group", "catalog:quaternion8"],
            "age symmetric(4) std":
                ["age", "--group", "catalog:symmetric(4)", "--rep", "std",
                 "--element", "7"],
            "verify --algebra (Q8 K ring)":
                ["verify", "--algebra", artifact, "--all"],
            "k-ring symmetric(4) std":
                ["k-ring", "--group", "catalog:symmetric(4)", "--rep", "std"],
            "lusztig symmetric(4)":
                ["lusztig", "--group", "catalog:symmetric(4)"],
        }
        runs = {("python3 -c pass", "-m"): ["-c", "pass"]}
        for label, argv in commands.items():
            runs[(label, "-m")] = ["-m", "inertial"] + argv
            runs[(label, "-c")] = MAIN + argv
        walls = {key: [] for key in runs}
        for _ in range(RUNS):
            for key, args in runs.items():
                walls[key].append(_run(args, env)[0])
        print("%-30s %9s %9s %8s %12s" % ("command", "min ms", "median ms",
                                          "exit ms", "inertial ms"))
        for (label, how), args in runs.items():
            if how != "-m":
                continue
            exit_ms = "-"
            if (label, "-c") in walls:
                exit_ms = "%+.1f" % ((_q1(walls[(label, how)])
                                      - _q1(walls[(label, "-c")])) * 1e3)
            imports = min(
                _package_import_ms(
                    _run(args, env, "-X", "importtime")[1].stderr)
                for _ in range(IMPORT_RUNS))
            print("%-30s %9.1f %9.1f %8s %12.1f" % (
                label, min(walls[(label, how)]) * 1e3,
                statistics.median(walls[(label, how)]) * 1e3, exit_ms,
                imports))


if __name__ == "__main__":
    main()
