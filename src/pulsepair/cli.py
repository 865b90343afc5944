"""Command line front end.

One subcommand per pipeline stage plus calibration utilities.  Exit codes:
0 success, 1 bad usage, 2 stage failure, 3 validation/config error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, calib, kvconfig, pipeline, plotting
from .errors import StageError, UsageError, ValidationError
from .pairdetect import write_csv, write_level1_archive
from .skystats import peak_bin, read_stats_csv


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting itself."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_at_least(lowest: int):
    """An argparse type: an integer of at least `lowest`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {lowest}, got {value}")
        return value
    return integer


def _add_common(sub):
    sub.add_argument("--config", help="key = value experiment config file")
    sub.add_argument("--seed", type=_int_at_least(0), default=None,
                     help="override the config seed")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--threads", type=_int_at_least(1), default=1,
                     help="null-mc seeds run at once; every other stage "
                     "runs on one thread (never changes results)")


def build_parser() -> _Parser:
    parser = _Parser(prog="pulsepair",
                     description="pulse-pair interferometric search pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", metavar="command",
                                 parser_class=_Parser)

    p = subs.add_parser("simulate", help="generate a synthetic session")
    _add_common(p)

    p = subs.add_parser("detect",
                        help="first-level filter saved frames into an archive")
    _add_common(p)
    p.add_argument("--frames", help="frames .npz from simulate (frame modes)")

    p = subs.add_parser("refilter",
                        help="pair an archive and apply the second-level filter")
    _add_common(p)
    p.add_argument("--level1", help="level-1 archive CSV")
    p.add_argument("--diagnostics", action="store_true",
                   help="also dump per-candidate metric diagnostics")

    p = subs.add_parser("analyze",
                        help="RA-binned binomial statistics of candidates")
    _add_common(p)
    p.add_argument("--candidates", help="candidates CSV from refilter")

    # calibrate reads no manifest, so it takes none of the common flags
    # but --out
    p = subs.add_parser("calibrate",
                        help="fit a drift scan (Gaussian + flat floor)")
    p.add_argument("--scan", required=True,
                   help="two-column CSV of utc_s, power")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--source-name", default="",
                   help="label for the report")
    p.add_argument("--longitude-deg", type=float, default=-79.8398,
                   help="observatory longitude, maps UTC to RA")

    p = subs.add_parser("tune-tau",
                        help="scan assumed instrument delays for the best fit")
    _add_common(p)
    p.add_argument("--level1", help="level-1 archive CSV")

    p = subs.add_parser("null-mc",
                        help="source-free reruns: null distribution of the peak")
    _add_common(p)
    p.add_argument("--n-seeds", type=_int_at_least(1), default=20)
    p.add_argument("--significance", type=float, default=3.5)

    p = subs.add_parser("report",
                        help="render the significance profile figure")
    _add_common(p)
    p.add_argument("--stats", help="stats CSV from analyze")
    p.add_argument("--format", choices=("csv", "svg"), default="svg",
                   help="figure output format")

    return parser


def _load_manifest(args) -> pipeline.ExperimentManifest:
    if not args.config:
        raise UsageError(f"pulsepair {args.command}: --config is required")
    overrides = {}
    if args.seed is not None:
        overrides["config.seed"] = str(args.seed)
    return pipeline.manifest_from_file(args.config, overrides)


def _input(path, out: str, name: str, what: str) -> str:
    """`path` if given, else <out>/<name>; it must exist."""
    path = path or os.path.join(out, name)
    if not os.path.exists(path):
        raise ValidationError(f"{what} {path} does not exist")
    return path


def _archive(args, manifest) -> str:
    """--level1, else run.level1_in, else <out>/level1.csv; must exist."""
    return _input(getattr(args, "level1", None) or manifest.level1_in,
                  args.out, "level1.csv", "archive")


def _output(out: str, name: str) -> str:
    """<out>/<name>, out made if missing: a handler asks for it only once
    its inputs and checks have passed, so a refused run leaves no --out.
    refilter, analyze and the svg report leave that to their pipeline
    stage, which makes it once it has read its input."""
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _external(args, manifest) -> bool:
    """With run.level1_in set, simulate and detect have nothing to write."""
    path = pipeline.external_archive(manifest)
    if path is not None:
        print(f"{args.command}: external archive {path}, nothing written")
    return path is not None


def cmd_simulate(args) -> int:
    manifest = _load_manifest(args)
    if _external(args, manifest):
        return 0
    if manifest.mode == "events":
        events = pipeline.simulate_events(manifest)
        path = _output(args.out, "level1.csv")
        write_level1_archive(path, events)
        print(f"simulate: {len(events)} events -> {path}")
    else:
        store = pipeline.stack_frames(pipeline.session_frames(manifest))
        path = _output(args.out, "frames.npz")
        pipeline.save_frames_npz(path, store)
        print(f"simulate: {manifest.n_frames} frames -> {path}")
    return 0


def cmd_detect(args) -> int:
    manifest = _load_manifest(args)
    if _external(args, manifest):
        return 0
    frames_path = _input(args.frames, args.out, "frames.npz", "frames file")
    events = pipeline.detect_frames(manifest.config, manifest.filter,
                                    pipeline.load_frames_npz(frames_path))
    path = _output(args.out, "level1.csv")
    write_level1_archive(path, events)
    print(f"detect: {len(events)} events -> {path}")
    return 0


def cmd_refilter(args) -> int:
    manifest = _load_manifest(args)
    level1 = _archive(args, manifest)
    path = os.path.join(args.out, "candidates.csv")
    diag = (os.path.join(args.out, "metric_diagnostics.csv")
            if args.diagnostics else None)
    n_events, n_pairs, n_survivors = pipeline.refilter(manifest, level1,
                                                       path, diag)
    print(f"refilter: {n_events} events, {n_pairs} pairs, "
          f"{n_survivors} candidates -> {path}")
    if diag:
        print(f"refilter: diagnostics -> {diag}")
    return 0


def cmd_analyze(args) -> int:
    manifest = _load_manifest(args)
    cand_path = _input(args.candidates, args.out, "candidates.csv",
                       "candidates file")
    level1 = None                   # read only for the exposure
    if manifest.p_mode == "exposure":
        level1 = _archive(args, manifest)
    stats_path = os.path.join(args.out, "stats.csv")
    res = pipeline.write_analysis(manifest, cand_path, level1, stats_path,
                                  os.path.join(args.out, "report.txt"))
    peak = res.peak
    if peak is None:
        print(f"analyze: 0 trials -> {stats_path}")
    else:
        print(f"analyze: {res.n_trials} trials, peak d = {peak.cohens_d:.2f} "
              f"at RA [{peak.ra_low_hr:g}, {peak.ra_high_hr:g}) hr "
              f"-> {stats_path}")
        print(plotting.caption_line(peak))
    return 0


def cmd_calibrate(args) -> int:
    scan = calib.read_drift_scan_csv(args.scan, args.longitude_deg)
    fit = calib.fit_gauss_flat(scan)
    snr = calib.continuum_snr_db(fit)
    path = _output(args.out, "calib_report.txt")
    calib.write_fit_report(path, fit, extra={
        "continuum_snr_db": f"{snr:.6g}",
        "source_name": args.source_name or "unnamed",
    })
    print(f"calibrate: center {fit.center_ra_hr:.4f} hr, "
          f"FWHM {fit.fwhm_ra_deg:.2f} deg RA angle, "
          f"continuum {snr:.3f} dB -> {path}")
    return 0


def cmd_tune_tau(args) -> int:
    manifest = _load_manifest(args)
    level1 = _archive(args, manifest)
    best_tau, best_stat, taus, stats = pipeline.run_tune_tau(manifest, level1)
    scan_path = _output(args.out, "tau_scan.csv")
    write_csv(scan_path, pipeline.TAU_SCAN_COLUMNS, [taus, stats])
    report = os.path.join(args.out, "tune_report.txt")
    kvconfig.write_kv_file(report, {
        "best_tau_int_s": f"{best_tau:.12g}",
        "best_peak_cohens_d": f"{best_stat:.8g}",
        "n_taps": str(taus.size),
        "tap_step_s": f"{manifest.phase.tau_search_step_s:.12g}",
    })
    print(f"tune-tau: best tau_int = {best_tau * 1e9:.3f} ns "
          f"(peak d = {best_stat:.2f}) -> {report}")
    return 0


def cmd_null_mc(args) -> int:
    manifest = _load_manifest(args)
    rows, frac = pipeline.run_null_mc(manifest, args.n_seeds,
                                      args.significance, args.threads)
    path = _output(args.out, "null_mc.csv")
    write_csv(path, pipeline.NULL_MC_COLUMNS, list(zip(*rows)))
    summary = os.path.join(args.out, "null_summary.txt")
    kvconfig.write_kv_file(summary, {
        "n_seeds": str(args.n_seeds),
        "significance_d": f"{args.significance:g}",
        "fraction_below": f"{frac:.6g}",
    })
    print(f"null-mc: {args.n_seeds} seeds, "
          f"{frac * 100:.1f}% below d = {args.significance:g} -> {path}")
    return 0


def cmd_report(args) -> int:
    stats_path = _input(args.stats, args.out, "stats.csv", "stats file")
    manifest = (_load_manifest(args) if args.config
                else pipeline.ExperimentManifest())
    if args.format == "svg":
        path = os.path.join(args.out, "figure.svg")
        pipeline.write_figure(manifest, stats_path, path)
    else:
        stats = read_stats_csv(stats_path)
        path = _output(args.out, "figure_caption.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write("caption\n")
            if stats:
                fh.write(f"\"{plotting.caption_line(peak_bin(stats))}\"\n")
    print(f"report: -> {path}")
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "detect": cmd_detect,
    "refilter": cmd_refilter,
    "analyze": cmd_analyze,
    "calibrate": cmd_calibrate,
    "tune-tau": cmd_tune_tau,
    "null-mc": cmd_null_mc,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("pulsepair: a subcommand is required "
                             "(see pulsepair --help)")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except (StageError, OSError) as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
