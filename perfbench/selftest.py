#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (well under a minute).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Every workload in BENCHMARK.json is run at its tiny size (1 transit over a
0.2 h RA window, 16 frames, 1 null-mc seed, 3 taps) at the seed of the tiny
oracle, untraced and traced.  The self-test checks that each run is correct,
that it emits every end-to-end or per-layer metric named in BENCHMARK.json
with its unit, that the level-2 funnel adds up, and that an artifact
corrupted after its repetition counts as a failed command.  It also checks
that null-mc writes the frozen bytes at --threads 1 as well as at 2.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import sys

import run


def corrupting(run_worker):
    """run_worker that appends a byte to one artifact of each repetition."""
    def wrapper(spec, cwd, timeout):
        result = run_worker(spec, cwd, timeout)
        out = os.path.join(cwd, "out")
        if os.path.isdir(out):
            victim = os.path.join(out, sorted(os.listdir(out))[0])
            with open(victim, "ab") as fh:
                fh.write(b"\n")
        return result
    return wrapper


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "oracle.json")) as fh:
        oracle = json.load(fh)["tiny"]
    errors = []

    def expect(ok, message):
        if not ok:
            errors.append(message)

    for workload in bench["workloads"]:
        name = workload["name"]
        seed = oracle[name]["seed"]
        for trace, specs in ((False, bench["end_to_end"]),
                             (True, bench["per_layer"])):
            result, record = run.run(name, seed, 0, trace, root, tiny=True)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0
                   and record["oracle"] == "frozen",
                   f"{label}: not correct: {record['failures']}")
            metrics = result["metrics"]
            names = {m["name"] for m in specs}
            expect(set(metrics) == names, f"{label}: metrics differ from "
                   f"BENCHMARK.json: {sorted(set(metrics) ^ names)}")
            for m in specs:
                unit = metrics.get(m["name"], {}).get("unit")
                expect(unit == m["unit"],
                       f"{label}: {m['name']} has unit {unit!r}")
            if trace:
                v = {k: m["value"] for k, m in metrics.items()}
                expect(v["phasefilter.survivors"]
                       + v["phasefilter.reject_delta_f"]
                       + v["phasefilter.reject_phase"]
                       == v["phasefilter.pairs_in"],
                       f"{label}: level-2 funnel does not add up")
                expect(not record["absent"],
                       f"{label}: absent layers {record['absent']}")

        run_worker = run.run_worker
        run.run_worker = corrupting(run_worker)
        try:
            result, record = run.run(name, seed, 0, False, root, tiny=True)
        finally:
            run.run_worker = run_worker
        expect(not result["correct"] and result["failed"] == 1
               and record["fail_frac"] > 0,
               f"{name}: a corrupted artifact was not counted as failed")

    null_mc = run.build_workload("null_mc", oracle["null_mc"]["seed"], True)
    argv, artifacts = null_mc.commands[0]
    argv[argv.index("--threads") + 1] = "1"
    with run.scratch_dir(root, "threads1-") as work:
        directory = os.path.join(work, "rep")
        run.write_inputs(null_mc, directory)
        _, digests = run.run_commands(null_mc.commands, directory,
                                      os.path.join(root, "src"), False, 120.0)
    for a in artifacts:
        expect(digests[a] and digests[a][0] == oracle["null_mc"]["sha256"][a],
               f"null-mc --threads 1 changed {a}")

    for message in errors:
        print(f"FAIL {message}")
    print(f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
