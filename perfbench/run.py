"""Benchmark of the `inertial` command line, one command at a time.

    python3 perfbench/run.py --workload {build,verify} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run it from the repository root.  It drives the real CLI in a closed loop:
one client, one `python3 -m inertial` child process at a time, each started
fresh as a user would.  Every command's exit code and the sha256 of its stdout
are checked against `refs.json`; `verify` outputs must also say
`"holds": true`.

--trace 0 sets up (a warm-up call) repeatedly, for at least SETUP_SECONDS.
Then it runs passes over the workload's commands, each in a new seeded order,
and starts no command after --seconds once the first pass is complete.  A
no-op start-up probe runs after the first command and then after each
command that ends a second or more after the last probe.  It prints the
end-to-end metrics: the wall and CPU time of one pass, taking each command at
the median of its runs; the mean start-up and the median set-up time; the
highest child max-RSS; and the share of commands that passed the check.

The host's CPU speed drifts by a quarter and more within minutes, so every
time metric is scaled to a reference speed.  After each timed command and
each start-up probe the benchmark times `calibrate()`, a fixed command that
uses no code of the package, on the same CPU.  A time metric is its
measured seconds times CALIBRATION_REFERENCE_S over the run's mean
calibration time.  The run record keeps the seconds as measured and the
calibration times.

--trace 1 sets up once and runs one pass in which every command runs
untraced and then under `tracer.py`.  It prints the per-layer metrics,
totals over the traced pass, and writes the spans of every traced command to
perfbench/out/spans-<workload>-seed<N>.json.

The last line of stdout is the result as JSON.  Each run also writes a record
(seed, argv of every pass, per-command times, machine) to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402  (after the bytecode switch)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / workloads.OUT_DIR
REFS = HERE / "refs.json"

clock = time.perf_counter
STARTED = clock()
# every run must be over within 180 s; children still running then are killed
DEADLINE_S = 170.0
# set up at least this many times, and until this much time was spent on it
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
# a start-up probe follows the first timed command and then one per interval
STARTUP_INTERVAL_S = 1.0
# The typical mean time of calibrate() in a run on the 2-core Xeon VM
# described in README.md.  Every time metric is scaled by this over the
# run's own mean calibration time, so it reads in seconds at that speed.
CALIBRATION_REFERENCE_S = 0.124

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("startup_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("cyclotomic.self_s", "s"),
    ("cyclotomic.add.calls", "count"),
    ("cyclotomic.mul.calls", "count"),
    ("cyclotomic.galois.calls", "count"),
    ("cyclotomic.root_of_unity.calls", "count"),
    ("characters.self_s", "s"),
    ("characters.character_table_s", "s"),
    ("characters.decompose.calls", "count"),
    ("characters.decompose.distinct_ratio", "ratio"),
    ("characters.inner_product.calls", "count"),
    ("characters.induce.calls", "count"),
    ("characters.transport.calls", "count"),
    ("logtrace.self_s", "s"),
    ("logtrace.log_trace.calls", "count"),
    ("logtrace.log_trace.distinct_ratio", "ratio"),
    ("logtrace.twisted_pullback.calls", "count"),
    ("logtrace.twisted_pullback.distinct_ratio", "ratio"),
    ("logtrace.age.calls", "count"),
    ("rings.self_s", "s"),
    ("rings.build_s", "s"),
    ("rings.check.associativity_s", "s"),
    ("rings.check.multiproduct_s", "s"),
    ("rings.check.frobenius_s", "s"),
    ("rings.check.other_s", "s"),
    ("rings.dim", "count"),
    ("rings.table_terms", "count"),
    ("inertia.self_s", "s"),
    ("inertia.double_classes", "count"),
    ("inertia.triple_classes", "count"),
    ("groups.self_s", "s"),
    ("groups.centralizer.calls", "count"),
    ("groups.generated.calls", "count"),
    ("chern.self_s", "s"),
    ("chern.star_T.calls", "count"),
    ("cli.import_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.emit_bytes", "bytes"),
    ("trace.overhead", "ratio"),
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # every start compiles the package, whatever bytecode earlier runs left
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # same set and dict iteration order, hence the same work, in every run
    env["PYTHONHASHSEED"] = "0"
    return env


class Result:
    __slots__ = ("argv", "traced", "wall", "cpu", "rss_mb", "code", "stdout",
                 "failure")


class Runner:
    """Runs CLI commands one at a time and checks each against its reference."""

    def __init__(self, refs, deadline):
        self.refs = refs
        self.deadline = deadline
        self.env = child_env()
        self.results = []
        self.failures = []

    def run(self, argv, stats=None):
        """Run one command, untraced or, given a stats file, under tracer.py."""
        if stats is None:
            cmd = [sys.executable, "-m", "inertial", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(stats), *argv]
        res = Result()
        res.argv, res.traced = list(argv), stats is not None
        timeout = max(1.0, self.deadline - clock())
        with tempfile.TemporaryFile(dir=OUT) as out, \
                tempfile.TemporaryFile(dir=OUT) as err:
            start = clock()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            res.wall = clock() - start
            proc.returncode = res.code = os.waitstatus_to_exitcode(status)
            res.cpu = usage.ru_utime + usage.ru_stime
            res.rss_mb = usage.ru_maxrss / 1024.0
            out.seek(0)
            res.stdout = out.read()
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        res.failure = check(self.refs, argv, res.code, res.stdout)
        artifact = workloads.ARTIFACTS.get(tuple(argv))
        if artifact is not None:
            (ROOT / workloads.artifact_path(artifact)).write_bytes(res.stdout)
        if res.failure:
            self.failures.append({"argv": res.argv, "traced": res.traced,
                                  "reason": res.failure,
                                  "stderr": stderr[-2000:]})
        self.results.append(res)
        return res


def ref_key(argv):
    return " ".join(argv)


def load_refs():
    return json.loads(REFS.read_text())["commands"]


def check(refs, argv, code, stdout):
    """Why this output is wrong, or None when it matches the reference."""
    ref = refs.get(ref_key(argv))
    if ref is None:
        return "no reference output for this command"
    if code != ref["exit"]:
        return "exit code %d, reference %d" % (code, ref["exit"])
    if hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
        return "stdout differs from the reference"
    if argv[0] == "verify" and json.loads(stdout).get("holds") is not True:
        return "verify did not report holds: true"
    return None


# A fixed command shaped like an `inertial` one but using none of its code:
# a fresh interpreter compiles a stdlib module's source, as every command
# compiles the package, then does Fraction arithmetic and tuple-keyed dict
# updates, like the package's hot path.
CALIBRATION = """
import fractions
from fractions import Fraction
source = open(fractions.__file__).read()
for _ in range(3):
    compile(source, "fractions", "exec")
table = {}
total = Fraction(0)
for i in range(1, 2000):
    if i % 40 == 0:
        total = Fraction(0)
    f = Fraction(i % 97 + 1, i % 89 + 2)
    total += f * f - f
    key = (i % 53, i % 7)
    table[key] = table.get(key, 0) + 1
"""


def calibrate():
    """Wall time of one run of CALIBRATION in a child process."""
    start = clock()
    subprocess.run([sys.executable, "-I", "-B", "-c", CALIBRATION],
                   check=True, timeout=60)
    return clock() - start


def set_up(runner):
    """The warm-up call; returns its wall time."""
    start = clock()
    runner.run(workloads.STARTUP)
    return clock() - start


def measure(runner, plan, seconds):
    """Set-up repeats, then timed passes; returns (metrics, argv per pass)."""
    setup, calibration = [], []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
        setup.append(set_up(runner))
    samples = {}  # command -> its results
    orders, startup = [], []
    deadline = clock() + seconds
    last_probe = clock()
    while not orders or clock() < deadline:
        ran = []
        for argv in plan.next_pass():
            if orders and clock() >= deadline:
                break
            samples.setdefault(argv, []).append(runner.run(argv))
            calibration.append(calibrate())
            ran.append(argv)
            if not startup or clock() - last_probe >= STARTUP_INTERVAL_S:
                startup.append(runner.run(workloads.STARTUP).wall)
                calibration.append(calibrate())
                last_probe = clock()
        orders.append(ran)
    attempted = len(runner.results)
    seconds_as_measured = {
        # one pass, each command at the median of its runs
        "wall_s": sum(statistics.median(r.wall for r in results)
                      for results in samples.values()),
        "cpu_s": sum(statistics.median(r.cpu for r in results)
                     for results in samples.values()),
        "startup_s": statistics.fmean(startup),
        "setup_s": statistics.median(setup),
    }
    # > 1 when this run's CPU was slower than the reference speed.  The host
    # switches between a fast and a slow speed about twice as slow; a short
    # timing catches one of them, a long one their mix.  Means weigh both by
    # the time spent in each, so the mean of the probes over the mean of the
    # calibrations, taken between the commands, cancels the mix, where
    # medians would pick one speed.
    slowdown = statistics.fmean(calibration) / CALIBRATION_REFERENCE_S
    values = {name: value / slowdown
              for name, value in seconds_as_measured.items()}
    values["peak_rss_mb"] = max(r.rss_mb for results in samples.values()
                                for r in results)
    values["ok_ratio"] = (attempted - len(runner.failures)) / attempted
    host = {"slowdown": slowdown, "calibration_s": calibration,
            "seconds_as_measured": seconds_as_measured}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, orders, host


def trace(runner, plan, spans_path):
    """One pass, each command untraced and then traced; per-layer metrics."""
    set_up(runner)
    order = plan.next_pass()
    totals = {}
    plain_wall = traced_wall = 0.0
    emit_bytes = 0
    names, rows = {}, []
    stats_path = OUT / "trace-stats.json"
    for cmd_id, argv in enumerate(order):
        plain_wall += runner.run(argv).wall
        res = runner.run(argv, stats=stats_path)
        traced_wall += res.wall
        emit_bytes += len(res.stdout)
        try:
            stats = json.loads(stats_path.read_text())
            stats_path.unlink()
        except (OSError, ValueError) as exc:
            runner.failures.append({"argv": list(argv), "traced": True,
                                    "reason": "no trace stats: %s" % exc})
            continue
        for name, value in stats["metrics"].items():
            totals[name] = totals.get(name, 0) + value
        for name, start, end, parent in stats["spans"]:
            rows.append([cmd_id, names.setdefault(name, len(names)),
                         start, end, parent])
    for layer_call in ("characters.decompose", "logtrace.log_trace",
                       "logtrace.twisted_pullback"):
        calls = totals.get(layer_call + ".calls", 0)
        distinct = totals.get(layer_call + ".distinct", 0)
        totals[layer_call + ".distinct_ratio"] = distinct / calls if calls else 0.0
    totals["cli.emit_bytes"] = emit_bytes
    totals["trace.overhead"] = traced_wall / plain_wall - 1
    with open(spans_path, "w") as fh:
        json.dump({"commands": [list(a) for a in order],
                   "names": list(names),
                   "columns": ["command", "name", "start_s", "end_s",
                               "parent"],
                   "spans": rows}, fh)
    return {name: {"value": totals.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}, [order], {}


def source_sha256():
    """Digest of the program's sources: names the version in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None  # the benchmark's checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": sys.version,
        "commit": commit,
        "source_sha256": source_sha256(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "child_PYTHONHASHSEED": child_env()["PYTHONHASHSEED"],
    }


def pin_to_one_cpu():
    """Keep this process and every child it starts on one CPU: the highest
    one it may use.  On a shared host the CPUs slow down independently, and
    a child that starts on either of them would mix both."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(workload, seed, seconds, traced):
    OUT.mkdir(parents=True, exist_ok=True)
    plan = workloads.plan(workload, random.Random(seed))
    runner = Runner(load_refs(), STARTED + DEADLINE_S)
    tag = "%s-seed%d-trace%d" % (workload, seed, traced)
    if traced:
        spans = OUT / ("spans-%s-seed%d.json" % (workload, seed))
        metrics, orders, host = trace(runner, plan, spans)
    else:
        metrics, orders, host = measure(runner, plan, seconds)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": traced, "machine": machine(), "passes": orders,
        "commands": [{"argv": r.argv, "traced": r.traced,
                      "wall_s": r.wall, "cpu_s": r.cpu,
                      "rss_mb": r.rss_mb, "exit": r.code,
                      "ok": r.failure is None} for r in runner.results],
        "failures": runner.failures, "metrics": metrics, **host,
    }
    (OUT / ("run-%s.json" % tag)).write_text(json.dumps(record, indent=1))
    for failure in runner.failures:
        print("FAILED %s: %s" % (ref_key(failure["argv"]), failure["reason"]),
              file=sys.stderr)
    return {
        "correct": not runner.failures,
        "attempted": len(runner.results),
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def self_test():
    """Every BENCHMARK.json metric is printed with its unit, and a corrupted
    artifact counts as a failure.  Returns a list of problems."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = load_refs()
    deadline = STARTED + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    producer = workloads.BUILD[1]
    reread = workloads.read_back(producer)
    plan = workloads.Plan([[producer], [reread]], random.Random(0))
    runner = Runner(refs, deadline)
    e2e, _, _ = measure(runner, plan, 0)
    layers, _, _ = trace(runner, plan, OUT / "spans-self-test.json")
    problems += ["%s: %s" % (ref_key(f["argv"]), f["reason"])
                 for f in runner.failures]
    for key, printed in (("end_to_end", e2e), ("per_layer", layers)):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: v["unit"] for n, v in printed.items()}
        if want != got:
            problems.append(
                "%s: BENCHMARK.json and the printed metrics differ on %s"
                % (key, sorted(set(want.items()) ^ set(got.items()))))
    good = runner.run(reread)
    if good.failure:
        problems.append("clean artifact failed the check: " + good.failure)
    corrupted = good.stdout.replace(b"true", b"false", 1)
    if check(refs, reread, good.code, corrupted) is None:
        problems.append("a corrupted stdout passed the check")
    path = ROOT / workloads.artifact_path(workloads.ARTIFACTS[producer])
    alg = json.loads(path.read_text())
    first = alg["table"][0]["terms"][0]
    first["c"] = str(Fraction(first["c"]) + 1)
    path.write_text(json.dumps(alg, sort_keys=True, indent=2) + "\n")
    bad = runner.run(reread)
    if bad.failure is None:
        problems.append("a corrupted artifact passed the check")
    path.unlink()
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check metric names/units and the output gate")
    args = parser.parse_args()
    if not (ROOT / "src" / "inertial" / "cli.py").is_file():
        sys.exit("run.py: no inertial sources under %s" % (ROOT / "src"))
    pin_to_one_cpu()
    if args.self_test:
        problems = self_test()
        for problem in problems:
            print("SELF-TEST FAILED: " + problem, file=sys.stderr)
        print("self-test %s" % ("failed" if problems else "passed"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
