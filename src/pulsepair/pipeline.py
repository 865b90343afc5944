"""Staged experiment runner: manifest in, artifacts plus manifest out.

Stages are simulate (or ingest an existing level-1 archive), refilter,
analyze, report.  `run_experiment` runs the same stage functions as the
CLI subcommands: `simulate_events`, `refilter`, `write_analysis` and
`write_figure`, so the figure is drawn from `stats.csv` on both paths.
Every artifact is written with fixed formats, hashed with sha256, and
recorded in `manifest.txt` together with a hash of exactly the parameters
that can change that artifact's bytes; a rerun in the same output directory
skips any stage whose parameter hash, input hashes, and output hashes all
still match.  A failed stage records `status = failed:<stage>`.  Thread
count and output location are deliberately excluded from the hashes: they
must never change results.
"""

from __future__ import annotations

import hashlib
import os
import typing
import zipfile
import zlib
from dataclasses import dataclass, field, fields as dc_fields, replace

import numpy as np

from . import kvconfig
from .calib import lst_hours
from .errors import StageError, ValidationError
from .pairdetect import (EventTable, FirstLevelFilterParams, PairTable,
                         first_level_filter_frame, pair_chunks,
                         read_columns, read_level1_archive, sha256_file,
                         write_level1_archive, write_rows)
from .phasefilter import (PhaseMetricParams, second_level_filter,
                          tune_tau_int, write_metric_diagnostics_csv)
from .plotting import caption_line, save_stats_figure
from .sigsim import (ObservationConfig, RfiSpec, SourceSpec, simulate_frames,
                     simulate_level1_events, thread_pool, transit_index)
from .skystats import (AnalysisResult, analyze, bin_probabilities,
                       peak_cohens_d, ra_bin_index, read_stats_csv,
                       write_stats_csv)

# candidates.csv: enough of each pair to re-run the statistics
CANDIDATE_COLUMNS = {
    "utc_a_s": float, "utc_b_s": float, "frame_a": int, "frame_b": int,
    "bin_a": int, "bin_b": int, "rf_a_hz": float, "rf_b_hz": float,
    "polarization_a": str, "polarization_b": str, "delta_t_s": float,
    "delta_f_hz": float, "log10_delta_f_mhz": float,
    "phase_metric_rad": float, "ra_pointing_hr": float,
}
_CANDIDATE_ROW = ("%.3f,%.3f,%d,%d,%d,%d,%.1f,%.1f,%s,%s,%.3f,%.6g,%.6g,"
                  "%.6g,%.6g\n")


def write_candidates_csv(path, candidates: PairTable) -> None:
    """Write candidates (typically second-level survivors) as CSV."""
    ev, a, b = candidates.events, candidates.a, candidates.b
    tags = np.asarray(ev.tags, dtype=object)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CANDIDATE_COLUMNS) + "\n")
        write_rows(fh, _CANDIDATE_ROW, [
            ev.utc_s[a], ev.utc_s[b], ev.frame_index[a], ev.frame_index[b],
            ev.bin_index[a], ev.bin_index[b], ev.rf_freq_hz[a],
            ev.rf_freq_hz[b], tags[ev.pol_code[a]], tags[ev.pol_code[b]],
            candidates.delta_t_s, candidates.delta_f_hz,
            candidates.log10_delta_f_mhz, candidates.phase_metric_rad,
            candidates.ra_pointing_hr])


def read_candidates_csv(path) -> dict:
    """The columns of a candidates CSV, by name."""
    return read_columns(path, CANDIDATE_COLUMNS)


@dataclass
class ExperimentManifest:
    """Full description of one experiment; serializes to key = value text."""

    config: ObservationConfig = field(default_factory=ObservationConfig)
    sources: list = field(default_factory=list)
    rfi: list = field(default_factory=list)
    phase: PhaseMetricParams = field(default_factory=PhaseMetricParams)
    filter: FirstLevelFilterParams = field(
        default_factory=FirstLevelFilterParams)
    mode: str = "events"                 # events | freq | time
    n_transits: int = 1
    window_lo_hr: float = 3.25
    window_hi_hr: float = 7.25
    n_frames: int | None = None          # frame modes only
    start_utc_s: float = 0.0
    ra_bin_hr: float = 0.1
    p_mode: str = "uniform"
    pairing_window_frames: int = 0
    require_pol_match: bool = False
    fwhm_center_hr: float | None = None
    fwhm_width_hr: float | None = None
    level1_in: str | None = None
    title: str = "RA-binned pair excess"
    threads: int = 1                     # never hashed
    out_dir: str = "."                   # never hashed

    def __post_init__(self):
        if self.mode not in ("events", "freq", "time"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not self.window_hi_hr > self.window_lo_hr:
            raise ValidationError("window_hi_hr must exceed window_lo_hr")
        if self.ra_bin_hr <= 0:
            raise ValidationError("ra_bin_hr must be > 0")
        if self.p_mode not in ("uniform", "exposure"):
            raise ValidationError(f"unknown p_mode {self.p_mode!r}")
        if self.n_transits < 1:
            raise ValidationError("n_transits must be >= 1")
        if self.mode in ("freq", "time") and self.level1_in is None:
            if self.n_frames is None or self.n_frames < 1:
                raise ValidationError("frame modes need n_frames >= 1")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")
        n_windows = (self.window_hi_hr - self.window_lo_hr) / self.ra_bin_hr
        if abs(n_windows - round(n_windows)) > 1e-9:
            raise ValidationError(
                "the analysis window must be an integer number of RA bins")

    def bin_edges(self) -> np.ndarray:
        n = int(round((self.window_hi_hr - self.window_lo_hr)
                      / self.ra_bin_hr))
        return self.window_lo_hr + self.ra_bin_hr * np.arange(n + 1)

    # -- serialization ----------------------------------------------------

    def to_kv(self) -> dict:
        return {prefix + name: _fmt(getattr(obj, name))
                for prefix, obj, names in self._sections() for name in names}

    def _sections(self):
        """(key prefix, object, field names) of every serialized section."""
        yield "config.", self.config, _names(ObservationConfig)
        for i, src in enumerate(self.sources):
            yield f"source.{i}.", src, _names(SourceSpec)
        for i, r in enumerate(self.rfi):
            yield f"rfi.{i}.", r, _names(RfiSpec)
        yield "phase.", self.phase, _names(PhaseMetricParams)
        yield "filter.", self.filter, _names(FirstLevelFilterParams)
        yield "run.", self, _run_keys()

    @classmethod
    def from_kv(cls, kv: dict, source: str = "<config>") -> "ExperimentManifest":
        known = set()

        def take(prefix, typ, names=None):
            hints = typing.get_type_hints(typ)
            kwargs = {}
            for name in names or _names(typ):
                key = prefix + name
                known.add(key)
                if key in kv:
                    kwargs[name] = _parse(kv[key], hints[name], key)
            return kwargs

        def build(prefix, typ):
            try:
                return typ(**take(prefix, typ))
            except TypeError as exc:        # a required key is missing
                raise ValidationError(f"{source}: {prefix}*: {exc}") from None

        config = build("config.", ObservationConfig)
        sources, rfi = [], []
        while f"source.{len(sources)}.name" in kv:
            sources.append(build(f"source.{len(sources)}.", SourceSpec))
        while f"rfi.{len(rfi)}.kind" in kv:
            rfi.append(build(f"rfi.{len(rfi)}.", RfiSpec))
        phase = build("phase.", PhaseMetricParams)
        filter_ = build("filter.", FirstLevelFilterParams)
        top = take("run.", cls, _run_keys())
        unknown = set(kv) - known
        if unknown:
            raise ValidationError(
                f"{source}: unknown keys: {', '.join(sorted(unknown))}")
        return cls(config=config, sources=sources, rfi=rfi, phase=phase,
                   filter=filter_, **top)

    # -- hashing ----------------------------------------------------------

    def _hash_subset(self, prefixes: tuple) -> str:
        kv = self.to_kv()
        subset = {k: v for k, v in kv.items()
                  if any(k.startswith(p) for p in prefixes)}
        text = kvconfig.format_kv(subset)
        return hashlib.sha256(text.encode()).hexdigest()

    def simulate_params_hash(self) -> str:
        return self._hash_subset(("config.", "source.", "rfi.", "filter.",
                                  "run.mode", "run.n_transits",
                                  "run.window_lo_hr", "run.window_hi_hr",
                                  "run.n_frames", "run.start_utc_s",
                                  "run.level1_in"))

    def refilter_params_hash(self) -> str:
        return self._hash_subset(("phase.", "run.pairing_window_frames",
                                  "run.require_pol_match"))

    def analyze_params_hash(self) -> str:
        return self._hash_subset(("run.ra_bin_hr", "run.p_mode",
                                  "run.window_lo_hr", "run.window_hi_hr"))

    def report_params_hash(self) -> str:
        return self._hash_subset(("run.fwhm_center_hr", "run.fwhm_width_hr",
                                  "run.title"))


def _names(cls) -> tuple:
    return tuple(f.name for f in dc_fields(cls))


def _run_keys() -> tuple:
    """The `run.` keys: every manifest field not serialized elsewhere."""
    other = ("config", "sources", "rfi", "phase", "filter", "threads",
             "out_dir")
    return tuple(name for name in _names(ExperimentManifest)
                 if name not in other)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


_BOOLS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}


def _parse(text: str, hint, key: str):
    """Parse one value by its field's type: bool, int, float, str, tuple.

    `none` is accepted only for an optional (`X | None`) field.
    """
    types = typing.get_args(hint) or (hint,)
    if text == "none":
        if type(None) in types:
            return None
        raise ValidationError(f"key {key!r}: none is not allowed")
    kind = next(t for t in types if t is not type(None))
    try:
        if kind is bool:
            return _BOOLS[text.lower()]
        if kind is tuple:
            return tuple(t.strip() for t in text.split(",") if t.strip())
        return kind(text)
    except (KeyError, ValueError):
        raise ValidationError(f"key {key!r}: cannot parse {text!r}") from None


def manifest_from_file(path, overrides: dict | None = None) -> ExperimentManifest:
    kv = kvconfig.read_kv_file(path)
    if overrides:
        kv.update(overrides)
    return ExperimentManifest.from_kv(kv, source=str(path))


# -- frame store (simulate/detect handoff in frame modes) ------------------

def save_frames_npz(path, config: ObservationConfig, frames) -> None:
    """Persist frames for the detect stage.

    frames is an iterable of (index, utc, pol, east, west, rf) tuples, as
    simulate_frames yields them and load_frames_npz gives them back.
    """
    frames = list(frames)
    if not frames:
        raise ValidationError("no frames to save")
    index, utc, pols, east, west, _ = zip(*frames)
    np.savez_compressed(
        path,
        frame_index=np.asarray(index, dtype=np.int64),
        utc_s=np.asarray(utc, dtype=float),
        polarization_tag=np.asarray(pols),
        east=np.asarray(east), west=np.asarray(west),
        rf_freqs_hz=config.rf_freqs())


def load_frames_npz(path):
    """Read the six members once; yield (index, utc, pol, east, west, rf)."""
    names = ("frame_index", "utc_s", "polarization_tag", "east", "west",
             "rf_freqs_hz")
    try:
        # np.load(path) would leave its file open when the zip is corrupt
        with open(path, "rb") as fh, np.load(fh) as data:
            arrays = {name: data[name] for name in names if name in data.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, TypeError,
            ValueError) as exc:
        raise ValidationError(
            f"{path}: not a readable frame store: {exc}") from None
    missing = set(names) - set(arrays)
    if missing:
        raise ValidationError(
            f"{path}: missing arrays: {', '.join(sorted(missing))}")
    index, utc, pols, east, west, rf = (arrays[name] for name in names)
    n = index.size
    shapes = ((n,),) * 3 + ((n, rf.size),) * 2
    for name, arr, shape in zip(names, (index, utc, pols, east, west), shapes):
        if arr.shape != shape:
            raise ValidationError(
                f"{path}: {name} has shape {arr.shape}, expected {shape}")
    for i in range(n):
        yield (int(index[i]), float(utc[i]), str(pols[i]), east[i], west[i],
               rf)


def detect_frames(config: ObservationConfig, params: FirstLevelFilterParams,
                  frames) -> EventTable:
    """First-level filter a stream of loaded frames into events."""
    tables = []
    for (frame_index, utc, pol, east, west, rf) in frames:
        lst = float(lst_hours(utc, config.longitude_deg))
        ra = float(config.pointing_ra(lst))
        tables.append(first_level_filter_frame(
            frame_index, utc, pol, east, west, rf, params, ra))
    return EventTable.concat(tables)


# -- staged runner ----------------------------------------------------------

@dataclass
class ExperimentResult:
    status: str
    out_dir: str
    paths: dict
    skipped: list
    n_events: int = 0
    n_candidates: int = 0
    n_survivors: int = 0
    analysis: AnalysisResult | None = None


def session_frames(manifest: ExperimentManifest):
    """Simulate the frame modes' session as load_frames_npz's tuples."""
    if manifest.n_transits != 1:
        raise ValidationError(
            "run.n_transits: a frame-mode session is run.n_frames consecutive "
            "frames; use run.mode = events for several transits")
    return simulate_frames(manifest.config, manifest.sources, manifest.rfi,
                           n_frames=manifest.n_frames,
                           start_utc_s=manifest.start_utc_s,
                           mode=manifest.mode)


def simulate_events(manifest: ExperimentManifest) -> EventTable:
    """The simulate stage in memory: the session's level-1 events.

    Events mode samples them directly; the frame modes synthesize the
    frames and first-level filter them.
    """
    if manifest.mode == "events":
        if manifest.n_frames is not None:
            raise ValidationError(
                "run.n_frames: the event-level sampler takes its frames from "
                "the RA window; use run.window_lo_hr and run.window_hi_hr")
        return simulate_level1_events(
            manifest.config, manifest.sources, manifest.filter,
            manifest.n_transits, manifest.window_lo_hr, manifest.window_hi_hr,
            start_utc_s=manifest.start_utc_s, threads=manifest.threads,
            rfi=manifest.rfi)
    return detect_frames(manifest.config, manifest.filter,
                         session_frames(manifest))


def external_archive(manifest: ExperimentManifest) -> str | None:
    """`run.level1_in`, checked to exist; None when the run simulates."""
    path = manifest.level1_in
    if path is not None and not os.path.exists(path):
        raise ValidationError(f"level1 archive {path} does not exist")
    return path


def session_pairs(manifest: ExperimentManifest, events: EventTable):
    """The session's pairs, a chunk at a time (pairdetect.pair_chunks).

    In events mode each event's transit (sigsim.transit_index) leads its
    block key, so no pair joins two transits.  A frame-mode session is one
    run of consecutive frames and needs no transit.
    """
    transit_of = None
    if manifest.mode == "events":
        def transit_of(utc_s):
            return transit_index(utc_s, manifest.config,
                                 manifest.window_lo_hr, manifest.window_hi_hr,
                                 manifest.start_utc_s)
    return pair_chunks(events, manifest.pairing_window_frames,
                       manifest.require_pol_match, transit_of)


def session_survivors(manifest: ExperimentManifest, events: EventTable,
                      diagnostics_path=None) -> tuple:
    """Pair and level-2 filter the session one chunk at a time.

    With diagnostics_path, also write every pair's metric and verdict, a
    chunk's rows after the one before.  Returns (n_pairs, survivors).
    """
    n_pairs, kept = 0, []
    for i, pairs in enumerate(session_pairs(manifest, events)):
        n_pairs += len(pairs)
        if diagnostics_path is None:
            survivors = second_level_filter(pairs, manifest.phase)
        else:
            survivors, verdicts = second_level_filter(pairs, manifest.phase,
                                                      explain=True)
            write_metric_diagnostics_csv(diagnostics_path, pairs, verdicts,
                                         append=i > 0)
        kept.append(survivors)
    return n_pairs, PairTable.concat(events, kept)


def refilter(manifest: ExperimentManifest, level1_path, candidates_path,
             diagnostics_path=None) -> tuple:
    """The refilter stage: pair an archive and write its level-2 survivors.

    With diagnostics_path, also write every pair's metric and verdict.
    Returns (n_events, n_pairs, n_survivors).
    """
    events = read_level1_archive(level1_path)
    n_pairs, survivors = session_survivors(manifest, events, diagnostics_path)
    write_candidates_csv(candidates_path, survivors)
    return len(events), n_pairs, len(survivors)


def run_experiment(manifest: ExperimentManifest,
                   resume: bool = True) -> ExperimentResult:
    """Run simulate -> refilter -> analyze -> report with hash-based resume.

    Each stage runs the function its CLI subcommand calls.  A stage is
    skipped when its params hash, its `stage.<name>.inputs` line (one
    `<file>=<sha256>` per input), its outputs' hashes and its record lines
    all match the prior manifest.txt.  A failure records
    `status = failed:<stage>` before it propagates.
    """
    out = manifest.out_dir
    os.makedirs(out, exist_ok=True)
    manifest_path = os.path.join(out, "manifest.txt")
    prior = {}
    if resume and os.path.exists(manifest_path):
        prior = kvconfig.read_kv_file(manifest_path)
    record = manifest.to_kv()
    record["run.threads"] = str(manifest.threads)
    record["run.out_dir"] = str(out)
    paths = {
        "level1": manifest.level1_in or os.path.join(out, "level1.csv"),
        "candidates": os.path.join(out, "candidates.csv"),
        "stats": os.path.join(out, "stats.csv"),
        "report": os.path.join(out, "report.txt"),
        "figure": os.path.join(out, "figure.svg"),
    }
    level1, candidates, stats, report, figure = paths.values()
    skipped: list[str] = []
    result = ExperimentResult("running", out, paths, skipped)
    counts = ("n_events", "n_candidates", "n_survivors")

    def refilter_stage():
        values = refilter(manifest, level1, candidates)
        for name, value in zip(counts, values):
            record[f"stage.refilter.{name}"] = str(value)

    def analyze_stage():
        result.analysis = write_analysis(manifest, candidates, level1, stats,
                                         report)

    exposure = [level1] if manifest.p_mode == "exposure" else []
    # (name, params hash, inputs, outputs, record lines, stage function)
    stages = [
        ("simulate", manifest.simulate_params_hash(), [], [level1], (),
         lambda: write_level1_archive(level1, simulate_events(manifest))),
        ("refilter", manifest.refilter_params_hash(), [level1], [candidates],
         counts, refilter_stage),
        ("analyze", manifest.analyze_params_hash(), [candidates] + exposure,
         [stats, report], (), analyze_stage),
        ("report", manifest.report_params_hash(), [stats], [figure], (),
         lambda: write_figure(manifest, stats, figure)),
    ]
    stage = "simulate"
    try:
        if external_archive(manifest) is not None:
            skipped.append("simulate (external archive)")
            del stages[0]
        for stage, params_hash, inputs, outputs, names, run in stages:
            lines = [f"stage.{stage}.{name}" for name in names]
            marks = {f"stage.{stage}.params": params_hash,
                     f"stage.{stage}.inputs": ",".join(
                         f"{os.path.basename(p)}={sha256_file(p)}"
                         for p in inputs) or "none"}
            if (all(prior.get(k) == v for k, v in marks.items())
                    and all(k in prior for k in lines)
                    and all(os.path.exists(p)
                            and prior.get(f"artifact.{os.path.basename(p)}")
                            == sha256_file(p) for p in outputs)):
                skipped.append(stage)
                record.update((k, prior[k]) for k in lines)
            else:
                run()
            record.update(marks)
            for p in outputs:
                record[f"artifact.{os.path.basename(p)}"] = sha256_file(p)
        stage = "analyze"
        if result.analysis is None:         # a resumed run still has a peak
            result.analysis = analyze_candidates(manifest, candidates, level1)
    except Exception as exc:
        record["status"] = f"failed:{stage}"
        record["error"] = str(exc).replace("\n", " ")
        kvconfig.write_kv_file(manifest_path, record)
        if isinstance(exc, ValidationError):
            raise
        raise StageError(stage, str(exc)) from exc
    for name in counts:
        setattr(result, name, int(record[f"stage.refilter.{name}"]))
    record["status"] = "ok"
    kvconfig.write_kv_file(manifest_path, record)
    result.status = "ok"
    return result


def analyze_candidates(manifest: ExperimentManifest, candidates_path,
                       level1_path) -> AnalysisResult:
    """RA-binned statistics of a candidates CSV, in memory.

    The level-1 archive is read only in exposure mode, for the exposure.
    """
    ra = read_candidates_csv(candidates_path)["ra_pointing_hr"]
    exposure = None
    if manifest.p_mode == "exposure":
        exposure = read_level1_archive(level1_path).ra_pointing_hr
    return analyze(ra, manifest.bin_edges(), manifest.p_mode,
                   exposure_ra_hr=exposure)


def _write_report(path, manifest: ExperimentManifest,
                  analysis: AnalysisResult) -> None:
    kv = {
        "n_trials": str(analysis.n_trials),
        "window_lo_hr": f"{analysis.window_lo_hr:.6g}",
        "window_hi_hr": f"{analysis.window_hi_hr:.6g}",
        "p_mode": manifest.p_mode,
    }
    peak = analysis.peak
    if peak is None:
        kv["peak"] = "none"
    else:
        kv.update({
            "peak.ra_low_hr": f"{peak.ra_low_hr:.6g}",
            "peak.ra_high_hr": f"{peak.ra_high_hr:.6g}",
            "peak.observed_count": str(peak.observed_count),
            "peak.expected_mean": f"{peak.expected_mean:.8g}",
            "peak.sigma": f"{peak.sigma:.8g}",
            "peak.cohens_d": f"{peak.cohens_d:.8g}",
            "peak.tail_prob_ge": f"{peak.tail_prob_ge:.8g}",
            "peak.tail_prob_gt": f"{peak.tail_prob_gt:.8g}",
            "caption": caption_line(peak),
        })
    kvconfig.write_kv_file(path, kv)


def write_analysis(manifest: ExperimentManifest, candidates_path, level1_path,
                   stats_path, report_path) -> AnalysisResult:
    """The analyze stage: write stats.csv and report.txt of a candidates CSV."""
    analysis = analyze_candidates(manifest, candidates_path, level1_path)
    write_stats_csv(stats_path, analysis.stats)
    _write_report(report_path, manifest, analysis)
    return analysis


def write_figure(manifest: ExperimentManifest, stats_path, figure_path) -> None:
    """The report stage: draw the significance figure from a stats CSV."""
    save_stats_figure(figure_path, read_stats_csv(stats_path),
                      manifest.fwhm_center_hr, manifest.fwhm_width_hr,
                      title=manifest.title)


def run_null_mc(manifest: ExperimentManifest, n_seeds: int,
                significance_d: float = 3.5):
    """Source-free reruns: the distribution of the peak bin's excess.

    Runs the events-mode chain (sample, then pair and filter a chunk at a
    time as refilter does, then peak_cohens_d) with all sources removed
    for seeds seed0 .. seed0+n_seeds-1.  Returns (rows, fraction_clean)
    where each row is (seed, n_trials, max_d, peak_ra_low) and
    fraction_clean is the share of seeds whose peak stays below
    `significance_d`.

    With manifest.threads > 1 the seeds run on a pool of up to that many
    threads, and each seed samples its transits on the thread that runs it,
    so one seed runs on the calling thread alone.  (Sampling one seed's
    transits in parallel gains only while every core is free; on a shared
    host its run time swung twice as widely as the serial run's.)  Rows come
    in seed order with the same bytes at any thread count; memory grows with
    the seeds in flight, each holding its event table plus one chunk.
    """
    if n_seeds < 1:
        raise ValidationError("n_seeds must be >= 1")
    if manifest.mode != "events":
        raise ValidationError("null-mc runs on the events mode")
    edges = manifest.bin_edges()

    def one(seed: int):
        events = simulate_events(replace(
            manifest, config=replace(manifest.config, seed=seed), sources=[],
            threads=1))
        _, survivors = session_survivors(manifest, events)
        bins = ra_bin_index(survivors.ra_pointing_hr, edges)
        bins = bins[bins >= 0]
        max_d, peak = peak_cohens_d(bins, bin_probabilities(
            edges, manifest.p_mode, events.ra_pointing_hr))
        return (seed, bins.size, max_d, float(edges[peak]))

    seeds = [manifest.config.seed + i for i in range(n_seeds)]
    if manifest.threads > 1 and n_seeds > 1:
        with thread_pool(min(manifest.threads, n_seeds)) as pool:
            rows = list(pool.map(one, seeds))
    else:
        rows = [one(seed) for seed in seeds]
    clean = sum(1 for row in rows if row[2] < significance_d)
    return rows, clean / n_seeds


def write_null_mc_csv(path, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("seed,n_trials,max_cohens_d,peak_ra_low_hr\n")
        write_rows(fh, "%d,%d,%.8g,%.6g\n", list(zip(*rows)))


def run_tune_tau(manifest: ExperimentManifest, level1_path):
    """Scan assumed instrument delays against an existing archive.

    tune_tau_int keeps, of each chunk of pairs, only those that can pass
    at some tap, so the scan holds the event table plus one chunk.
    Returns (best_tau_s, best_stat, taus, stats).
    """
    events = read_level1_archive(level1_path)
    edges = manifest.bin_edges()
    probs = bin_probabilities(edges, manifest.p_mode, events.ra_pointing_hr)
    return tune_tau_int(session_pairs(manifest, events), manifest.phase,
                        edges, probs)


def write_tau_scan_csv(path, taus, stats) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("tau_int_s,peak_cohens_d\n")
        write_rows(fh, "%.12g,%.8g\n", [taus, stats])
