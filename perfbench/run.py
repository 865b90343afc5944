#!/usr/bin/env python3
"""pulsepair benchmark: the documented CLI on four fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The config seed of the workload is N.  Set-up (writing the config files,
then starting a fresh process and importing the program, up to the end of
the imports) is timed several times and reported as the median.
Each measured repetition then runs the workload's CLI command sequence in a
fresh worker process (worker.py), closed loop, one repetition at a time,
until S seconds have passed (at least one repetition).  With --trace 1 the
untraced repetitions are followed by traced ones, which give the per-layer
metrics and the tracing overhead.

Every artifact is hashed after its repetition.  At the seed the oracle was
frozen at (oracle.json) the hashes must match the frozen ones; at any other
seed every repetition must match the first.  A non-zero exit, a missing
artifact or a mismatch fails that command.

The last line of standard output is the JSON result; the line before it is
a JSON record of the environment, the repetitions and the artifact hashes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 3
DEADLINE_S = 170.0          # the whole run must end well within 180 s
WORK_DIR = ".perfbench-work"

SURVEY_CFG = """\
config.seed = {seed}
run.mode = events
run.n_transits = {n_transits}
source.0.name = demo-repeater
source.0.ra_hr = 5.30
source.0.dec_deg = -8.0
source.0.snr_db = 45.0
source.0.pulse_rate_per_frame = 0.02
source.0.transit_halfwidth_hr = 0.04
"""
TINY_WINDOW = "run.window_lo_hr = 5.2\nrun.window_hi_hr = 5.4\n"

FRAMES_CFG = """\
config.band_low_hz = 1445000000.0
config.band_high_hz = 1446000000.0
config.frame_seconds = 0.001024
config.seed = {seed}
filter.accept_band_low_hz = 1445000000.0
filter.accept_band_high_hz = 1446000000.0
filter.excision_low_hz = 1445000000.0
filter.excision_high_hz = 1445000000.0
filter.snr_threshold_db = 5.0
run.mode = freq
run.n_frames = {n_frames}
"""

TAU_SCAN = """\
phase.tau_search_low_s = {lo}
phase.tau_search_high_s = {hi}
phase.tau_search_step_s = 1e-9
"""


@dataclass
class Workload:
    configs: dict              # file name -> text
    commands: list             # (argv, artifacts it writes), run in order
    items: int | str           # fixed count, or artifact whose rows count
    prepare: list = field(default_factory=list)   # unmeasured, own process


def build_workload(name, seed, tiny=False):
    """The workload at full size, or at the self-test's tiny size."""
    survey = SURVEY_CFG.format(seed=seed, n_transits=1 if tiny else 2)
    if tiny:
        survey += TINY_WINDOW
    if name == "survey":
        common = ["--config", "survey.cfg", "--out", "out", "--threads", "1"]
        return Workload(
            {"survey.cfg": survey},
            [(["simulate", *common], ["out/level1.csv"]),
             (["refilter", *common], ["out/candidates.csv"]),
             (["analyze", *common], ["out/stats.csv", "out/report.txt"]),
             (["report", *common, "--format", "svg"], ["out/figure.svg"])],
            "out/level1.csv")
    if name == "frames":
        n_frames = 16 if tiny else 256
        common = ["--config", "frames.cfg", "--out", "out"]
        return Workload(
            {"frames.cfg": FRAMES_CFG.format(seed=seed, n_frames=n_frames)},
            [(["simulate", *common], ["out/frames.npz"]),
             (["detect", *common], ["out/level1.csv"]),
             (["refilter", *common, "--diagnostics"],
              ["out/candidates.csv", "out/metric_diagnostics.csv"])],
            n_frames)
    if name == "null_mc":
        return Workload(
            {"survey.cfg": survey},
            [(["null-mc", "--config", "survey.cfg", "--out", "out",
               "--n-seeds", "1", "--threads", "2"],
              ["out/null_mc.csv", "out/null_summary.txt"])],
            "out/null_mc.csv")
    if name == "tune_tau":
        half = 1e-9 if tiny else 5e-8
        tune = survey + TAU_SCAN.format(lo=-half, hi=half)
        return Workload(
            {"tune.cfg": tune},
            [(["tune-tau", "--config", "tune.cfg", "--out", "out",
               "--level1", "../prepare/input/level1.csv"],
              ["out/tau_scan.csv", "out/tune_report.txt"])],
            "out/tau_scan.csv",
            prepare=[(["simulate", "--config", "tune.cfg", "--out", "input"],
                      ["input/level1.csv"])])
    raise SystemExit(f"unknown workload {name!r}")


def digest(path):
    """(sha256, first line, line count) of a file, or None if missing."""
    sha = hashlib.sha256()
    head = None
    lines = 0
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                if head is None:
                    head = chunk.split(b"\n", 1)[0].decode(errors="replace")
                sha.update(chunk)
                lines += chunk.count(b"\n")
    except FileNotFoundError:
        return None
    return sha.hexdigest(), head or "", lines


def run_worker(spec, cwd, timeout):
    """Run worker.py on spec in cwd; its result dict, or None on failure."""
    spec_path = os.path.join(cwd, "spec.json")
    result_path = os.path.join(cwd, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, WORKER, spec_path, result_path],
                              cwd=cwd, stdout=subprocess.DEVNULL,
                              timeout=max(timeout, 5.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker timed out in {cwd}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None
    with open(result_path) as fh:
        return json.load(fh)


@contextlib.contextmanager
def scratch_dir(root, prefix):
    """A fresh directory under WORK_DIR, removed with its contents on exit."""
    parent = os.path.join(root, WORK_DIR)
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=prefix, dir=parent)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):    # another run may still use it
            os.rmdir(parent)


def write_inputs(workload, directory):
    os.makedirs(directory)
    for name, text in workload.configs.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)


def run_commands(commands, directory, src, trace, timeout):
    """One repetition: (worker result, {artifact: digest})."""
    spec = {"src": src, "commands": [argv for argv, _ in commands],
            "trace": trace}
    result = run_worker(spec, directory, timeout)
    digests = {a: digest(os.path.join(directory, a))
               for _, artifacts in commands for a in artifacts}
    return result, digests


def check(commands, result, digests, oracle, failures):
    """Append one failure per failed command; return the number failed.

    Without frozen hashes the first repetition's hashes become the expected
    ones, so later repetitions must repeat its bytes.
    """
    expected = oracle["sha256"]
    stages = result["stages"] if result else []
    failed = 0
    for i, (argv, artifacts) in enumerate(commands):
        problems = []
        if i >= len(stages):
            problems.append("did not run")
        elif stages[i]["rc"] != 0:
            problems.append(f"exit code {stages[i]['rc']}")
        else:
            for text in oracle.get("stdout", {}).get(argv[0], []):
                if text not in stages[i]["stdout"]:
                    problems.append(f"output lacks {text!r}")
            for a in artifacts:
                d = digests.get(a)
                header = oracle["headers"].get(os.path.basename(a))
                if d is None:
                    problems.append(f"{a} missing")
                elif expected.setdefault(a, d[0]) != d[0]:
                    problems.append(f"{a} sha256 {d[0][:12]} != "
                                    f"{expected[a][:12]}")
                elif header is not None and d[1] != header:
                    problems.append(f"{a} header {d[1]!r}")
        if problems:
            failed += 1
            failures.append(f"{argv[0]}: {'; '.join(problems)}")
    return failed


def git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def load_oracle(name, seed, tiny):
    """CSV headers, plus frozen hashes and CLI output at the frozen seed."""
    with open(os.path.join(HERE, "oracle.json")) as fh:
        oracle = json.load(fh)
    entry = oracle["tiny" if tiny else "full"][name]
    if entry["seed"] != seed:
        return {"headers": oracle["headers"], "frozen": False, "sha256": {}}
    return {"headers": oracle["headers"], "frozen": True,
            "sha256": dict(entry["sha256"]),
            "stdout": entry.get("stdout", {})}


def median(values):
    return statistics.median(values) if values else 0.0


def time_setup(workload, work, src, timeout):
    """setup_s samples, and the numpy and scipy versions the program sees."""
    samples, versions = [], {}
    for i in range(SETUP_REPEATS):
        directory = os.path.join(work, f"setup-{i}")
        t0 = time.time()
        write_inputs(workload, directory)
        result = run_worker({"src": src, "commands": [], "trace": False},
                            directory, timeout)
        if result is None:
            raise SystemExit("perfbench: the program failed to import")
        samples.append(result["ready_at"] - t0)
        versions = {k: result[k] for k in ("numpy", "scipy")}
    return samples, versions


def summarize(plain, traced, setup, trace):
    """End-to-end metrics, or with trace the per-layer ones (medians)."""
    wall = median([r["wall_s"] for r in plain])
    if not trace:
        return {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": median(
                [r["items"] / r["wall_s"] for r in plain if r["wall_s"]]),
                "unit": "1/s"},
            "peak_rss_mb": {"value": median(
                [r["peak_rss_mb"] for r in plain]), "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    metrics = {metric: {"value": median([r["layers"][metric] for r in traced]),
                        "unit": unit}
               for metric, unit, _ in spans.metric_specs()}
    metrics["cli.cpu_s"]["value"] = median([r["cpu_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    metrics["trace.overhead"]["value"] = (
        traced_wall / wall - 1.0 if wall else 0.0)
    return metrics


def run(name, seed, seconds, trace, root, tiny=False):
    """Run one workload; returns (result, record) as printed by main."""
    began = time.perf_counter()
    load1 = os.getloadavg()[0]
    workload = build_workload(name, seed, tiny)
    oracle = load_oracle(name, seed, tiny)
    src = os.path.join(root, "src")

    def remaining():
        return DEADLINE_S - (time.perf_counter() - began)

    failures, attempted, failed = [], 0, 0
    record = {"workload": name, "seed": seed, "size": "tiny" if tiny else
              "full", "oracle": "frozen" if oracle["frozen"] else "recorded",
              "reps": [], "artifacts": {}}
    by_trace = {False: [], True: []}
    with scratch_dir(root, f"{name}-") as work:
        record["setup_s"], versions = time_setup(workload, work, src,
                                                 remaining())
        if workload.prepare:
            directory = os.path.join(work, "prepare")
            write_inputs(workload, directory)
            t0 = time.perf_counter()
            result, digests = run_commands(workload.prepare, directory, src,
                                           False, remaining())
            record["prepare_s"] = time.perf_counter() - t0
            attempted += len(workload.prepare)
            failed += check(workload.prepare, result, digests, oracle,
                            failures)
            record["artifacts"].update({a: d[0] for a, d in digests.items()
                                        if d})

        for traced in ([False, True] if trace else [False]):
            start = time.perf_counter()
            last = 0.0
            while not by_trace[traced] or (
                    time.perf_counter() - start < seconds
                    and remaining() > 1.5 * last):
                directory = os.path.join(work, f"rep-{len(record['reps'])}")
                write_inputs(workload, directory)
                t0 = time.perf_counter()
                result, digests = run_commands(workload.commands, directory,
                                               src, traced, remaining())
                last = time.perf_counter() - t0
                shutil.rmtree(directory)
                attempted += len(workload.commands)
                failed += check(workload.commands, result, digests, oracle,
                                failures)
                record["artifacts"].update(
                    {a: d[0] for a, d in digests.items() if d})
                if result is None:
                    continue
                items = workload.items
                if isinstance(items, str):
                    items = digests[items][2] - 1 if digests[items] else 0
                result["items"] = items
                by_trace[traced].append(result)
                record["reps"].append({
                    "trace": traced, "items": items,
                    **{k: result[k] for k in ("wall_s", "cpu_s",
                                              "peak_rss_mb")},
                    "stages": {s["command"]: s["s"] for s in result["stages"]},
                })

    metrics = summarize(by_trace[False], by_trace[True], record["setup_s"],
                        trace)
    record["absent"] = sorted({a for r in by_trace[True] for a in r["absent"]})
    record["env"] = {"python": platform.python_version(), **versions,
                     "nproc": os.cpu_count(), "commit": git_commit(root),
                     "load1": load1}
    record["fail_frac"] = failed / attempted
    record["failures"] = failures
    return ({"correct": failed == 0, "attempted": attempted,
             "failed": failed, "metrics": metrics}, record)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["survey", "frames", "null_mc", "tune_tau"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pulsepair", "cli.py")):
        print("perfbench: src/pulsepair not found; run from the root of a "
              "pulsepair checkout", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), root)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
