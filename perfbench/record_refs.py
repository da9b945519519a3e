"""Record the reference output of every command the benchmark can run.

    python3 perfbench/record_refs.py

Run it from the repository root, at the commit whose outputs are the
reference.  It writes perfbench/refs.json: for each command (the argv after
`python3 -m inertial`, joined by spaces) its exit code and the sha256 of its
stdout, plus a digest of the sources that produced them.
"""

import hashlib
import json
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402  (after the bytecode switch)
import workloads  # noqa: E402


def main():
    run.OUT.mkdir(parents=True, exist_ok=True)
    runner = run.Runner({}, run.clock() + 3600)
    refs = {}
    # each build command writes its artifact before it is read back
    for argv in workloads.all_commands():
        res = runner.run(argv)
        if res.code != 0:
            print("warning: exit %d from %s" % (res.code, run.ref_key(argv)),
                  file=sys.stderr)
        refs[run.ref_key(argv)] = {
            "exit": res.code,
            "sha256": hashlib.sha256(res.stdout).hexdigest(),
        }
    record = {"source_sha256": run.source_sha256(),
              "commands": refs}
    run.REFS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("%d references written to %s" % (len(refs), run.REFS))


if __name__ == "__main__":
    main()
