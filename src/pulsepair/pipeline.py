"""Staged experiment runner: manifest in, artifacts plus manifest out.

Stages are simulate (or ingest an existing level-1 archive), refilter,
analyze, report.  `run_experiment` runs the same stage functions as the
CLI subcommands: `simulate_events`, `refilter`, `write_analysis` and
`write_figure`, so the figure is drawn from `stats.csv` on both paths.
Every artifact is written with fixed formats, hashed with sha256, and
recorded in `manifest.txt` together with a hash of exactly the parameters
that can change that artifact's bytes; a rerun in the same output directory
skips any stage whose parameter hash, input hashes, and output hashes all
still match.  A failed stage records `status = failed:<stage>`.
In the frame modes simulate hands detect a frame store, frames.npz's six
arrays with a row a frame's polarization, and no stage holds a whole one:
simulate writes the blocks of consecutive rows that frame_blocks makes as
it synthesizes them (save_frames_npz), and detect_frames scores the blocks
that load_frames_npz reads back, one at a time.
Every pool of threads comes from pairdetect.thread_pool: the frame
store's two deflate and inflate threads, null-mc's seed pool, the one
thread that writes the level-1 archive while the caller renders it, and
the one thread that checks the sha256 key of the archive's sidecar while
refilter, tune-tau or exposure-mode analyze reads it (consume_session).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import tempfile
import typing
import zipfile
import zlib
from dataclasses import dataclass, field, fields as dc_fields, replace
from functools import partial
from itertools import chain, islice

import numpy as np

from . import kvconfig
from .calib import lst_hours
from .errors import StageError, ValidationError
from .pairdetect import (EventStream, EventTable, FirstLevelFilterParams,
                         PairTable, chunk_events, consume_level1_archive,
                         first_level_filter_frames, form_pairs, read_columns,
                         sha256_file, thread_pool, write_csv,
                         write_level1_archive)
from .phasefilter import (PhaseMetricParams, second_level_filter,
                          tune_tau_int, write_metric_diagnostics_csv)
from .plotting import caption_line, save_stats_figure
from .sigsim import (ObservationConfig, RfiSpec, SourceSpec, simulate_frames,
                     simulate_level1_events, transit_index)
from .skystats import (AnalysisResult, analyze, bin_counts,
                       bin_probabilities, peak_cohens_d, read_stats_csv,
                       write_stats_csv)

# candidates.csv: enough of each pair to re-run the statistics
CANDIDATE_COLUMNS = {
    "utc_a_s": "%.3f", "utc_b_s": "%.3f", "frame_a": "%d", "frame_b": "%d",
    "bin_a": "%d", "bin_b": "%d", "rf_a_hz": "%.1f", "rf_b_hz": "%.1f",
    "polarization_a": "%s", "polarization_b": "%s", "delta_t_s": "%.3f",
    "delta_f_hz": "%.6g", "log10_delta_f_mhz": "%.6g",
    "phase_metric_rad": "%.6g", "ra_pointing_hr": "%.6g",
}
# null_mc.csv, a row per seed (run_null_mc), and tau_scan.csv, a row per tap
NULL_MC_COLUMNS = {"seed": "%d", "n_trials": "%d", "max_cohens_d": "%.8g",
                   "peak_ra_low_hr": "%.6g"}
TAU_SCAN_COLUMNS = {"tau_int_s": "%.12g", "peak_cohens_d": "%.8g"}


def _candidate_columns(candidates: PairTable) -> list:
    """The CANDIDATE_COLUMNS of candidates, in order; they hold none of
    the events."""
    ev, a, b = candidates.events, candidates.a, candidates.b
    tags = np.asarray(ev.tags, dtype=object)
    return [ev.utc_s[a], ev.utc_s[b], ev.frame_index[a], ev.frame_index[b],
            ev.bin_index[a], ev.bin_index[b], ev.rf_freq_hz[a],
            ev.rf_freq_hz[b], tags[ev.pol_code[a]], tags[ev.pol_code[b]],
            candidates.delta_t_s, candidates.delta_f_hz,
            candidates.log10_delta_f_mhz, candidates.phase_metric_rad,
            candidates.ra_pointing_hr]


def write_candidates_csv(path, candidates, append: bool = False) -> None:
    """Write candidates (typically second-level survivors) as CSV.

    `candidates` is a PairTable or its _candidate_columns.  `append` is
    write_csv's, so a session's candidates can be written a batch at a time.
    """
    if isinstance(candidates, PairTable):
        candidates = _candidate_columns(candidates)
    write_csv(path, CANDIDATE_COLUMNS, candidates, append)


def read_candidates_csv(path) -> dict:
    """The columns of a candidates CSV, by name."""
    return read_columns(path, CANDIDATE_COLUMNS)


# the manifest's sections, in key order: (key prefix, field, type, presence
# key).  A list section keys its Nth entry `prefix N.` and ends at the first
# N without its presence key; every other field is a `run.` key.
_SECTIONS = (
    ("config.", "config", ObservationConfig, None),
    ("source.", "sources", SourceSpec, "name"),
    ("rfi.", "rfi", RfiSpec, "kind"),
    ("phase.", "phase", PhaseMetricParams, None),
    ("filter.", "filter", FirstLevelFilterParams, None),
)
# each stage's params hash: the key prefixes that can change its outputs
STAGE_KEYS = {
    "simulate": ("config.", "source.", "rfi.", "filter.", "run.mode",
                 "run.n_transits", "run.window_lo_hr", "run.window_hi_hr",
                 "run.n_frames", "run.start_utc_s", "run.level1_in"),
    # the geometry keys fix each event's transit (consume_session)
    "refilter": ("phase.", "run.pairing_window_frames",
                 "run.require_pol_match", "run.mode", "config.longitude_deg",
                 "run.window_lo_hr", "run.window_hi_hr", "run.start_utc_s"),
    "analyze": ("run.ra_bin_hr", "run.p_mode", "run.window_lo_hr",
                "run.window_hi_hr"),
    "report": ("run.fwhm_center_hr", "run.fwhm_width_hr", "run.title"),
}


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

    def __post_init__(self):
        if self.mode not in ("events", "freq", "time"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.window_hi_hr - self.window_lo_hr <= 24.0:
            raise ValidationError("window_hi_hr must exceed window_lo_hr, "
                                  "by at most 24 h (one transit)")
        if self.ra_bin_hr <= 0:
            raise ValidationError("ra_bin_hr must be > 0")
        if self.p_mode not in ("uniform", "exposure"):
            raise ValidationError(f"unknown p_mode {self.p_mode!r}")
        if self.n_transits < 1:
            raise ValidationError("n_transits must be >= 1")
        if self.mode in ("freq", "time") and self.level1_in is None:
            if self.n_frames is None or self.n_frames < 1:
                raise ValidationError("frame modes need n_frames >= 1")
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
        kv = {}
        for prefix, name, typ, presence in _SECTIONS:
            value = getattr(self, name)
            entries = ({f"{prefix}{i}.": v for i, v in enumerate(value)}
                       if presence else {prefix: value})
            for at, part in entries.items():
                kv.update((at + key, _fmt(getattr(part, key)))
                          for key in _names(typ))
        kv.update(("run." + key, _fmt(getattr(self, key)))
                  for key in _run_keys())
        return kv

    @classmethod
    def from_kv(cls, kv: dict, source: str = "<config>") -> "ExperimentManifest":
        known = set()

        def take(prefix, typ, names):
            hints = typing.get_type_hints(typ)
            kwargs = {}
            for name in names:
                key = prefix + name
                known.add(key)
                if key in kv:
                    kwargs[name] = _parse(kv[key], hints[name], key)
            return kwargs

        def build(prefix, typ):
            try:
                return typ(**take(prefix, typ, _names(typ)))
            except TypeError as exc:        # a required key is missing
                raise ValidationError(f"{source}: {prefix}*: {exc}") from None

        parts = {}
        for prefix, name, typ, presence in _SECTIONS:
            if presence is None:
                parts[name] = build(prefix, typ)
                continue
            parts[name] = items = []
            while f"{prefix}{len(items)}.{presence}" in kv:
                items.append(build(f"{prefix}{len(items)}.", typ))
        parts.update(take("run.", cls, _run_keys()))
        unknown = set(kv) - known
        if unknown:
            message = f"{source}: unknown keys: {', '.join(sorted(unknown))}"
            # a list entry's own key is unknown only past a gap in N or in
            # an entry without its presence key: name that rule
            for prefix, _, typ, presence in _SECTIONS:
                entry_key = re.compile(
                    rf"{re.escape(prefix)}\d+\.({'|'.join(_names(typ))})")
                if presence and any(map(entry_key.fullmatch, unknown)):
                    message += (f"; {prefix}N. entries count up from N = 0 "
                                f"with no gap, and {prefix}N.{presence} "
                                f"starts each one")
            raise ValidationError(message)
        return cls(**parts)

    def params_hash(self, stage: str) -> str:
        """sha256 of the keys of STAGE_KEYS[stage], as format_kv writes them."""
        subset = {k: v for k, v in self.to_kv().items()
                  if k.startswith(STAGE_KEYS[stage])}
        return hashlib.sha256(kvconfig.format_kv(subset).encode()).hexdigest()


def _names(cls) -> tuple:
    return tuple(f.name for f in dc_fields(cls))


def _run_keys() -> tuple:
    """The `run.` keys: every manifest field no _SECTIONS row holds."""
    held = {name for _, name, _, _ in _SECTIONS}
    return tuple(name for name in _names(ExperimentManifest)
                 if name not in held)


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

    `none` is valid only for an optional (`X | None`) field; floats are finite.
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
        value = kind(text)
    except (KeyError, ValueError):
        raise ValidationError(f"key {key!r}: cannot parse {text!r}") from None
    if kind is float and not np.isfinite(value):
        raise ValidationError(f"key {key!r}: {text!r} is not finite")
    return value


def manifest_from_file(path, overrides: dict | None = None) -> ExperimentManifest:
    kv = kvconfig.read_kv_file(path)
    if overrides:
        kv.update(overrides)
    return ExperimentManifest.from_kv(kv, source=str(path))


# -- frame store (simulate/detect handoff in frame modes) ------------------

# the store's members, in the order np.savez_compressed would write them,
# with the kind of dtype each takes: a value a row (a frame's
# polarization), [rows, bins] spectra, and the one rf the rows share
_FRAME_MEMBERS = {"frame_index": np.integer, "utc_s": np.floating,
                  "polarization_tag": np.str_, "east": np.complexfloating,
                  "west": np.complexfloating, "rf_freqs_hz": np.floating}
# the [rows, bins] members, written and read a block of rows at a time
_SPECTRA = ("east", "west")
# bins of a block of a store's rows (64 of the README frames.cfg's 1,024-bin
# rows); a wider row is a block by itself
_BLOCK_BINS = 1 << 16
# bytes of a spectra member inflated at once: a whole block read through
# zipfile takes ~4 times the block in buffers
_READ_BYTES = 1 << 17


def stack_frames(frames) -> tuple:
    """The frame store (_FRAME_MEMBERS) of simulate_frames' (index, utc,
    pol, east, west, rf) tuples.  It holds one rf: frames whose rf differ,
    or a frame whose spectra and rf differ in length, raise ValidationError.
    """
    frames = list(frames)
    if not frames:
        raise ValidationError("no frames to stack")
    index, utc, pols, east, west, rfs = zip(*frames)
    for i, e, w, rf in zip(index, east, west, rfs):
        lengths = (np.size(e), np.size(w), np.size(rf))
        if lengths != lengths[2:] * 3:
            raise ValidationError(
                f"frame {i}: element/frequency lengths differ {lengths}")
        if not np.array_equal(rf, rfs[0]):
            raise ValidationError("frames differ in their rf_freqs_hz")
    return (np.asarray(index, dtype=np.int64), np.asarray(utc, dtype=float),
            np.asarray(pols), np.asarray(east), np.asarray(west),
            np.ascontiguousarray(rfs[0]))


class _DeflatedMember:
    """A .npy member as np.savez_compressed stores it, deflated as its data
    comes, by the compressor zipfile uses for ZIP_DEFLATED: its header, for
    `dtype` and `shape` in C order, then each array `add` is given.  The
    deflated pieces go to `write`; `finish` gives the member's ZipInfo."""

    def __init__(self, name, dtype, shape, write):
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False, "shape": shape})
        self.info = zipfile.ZipInfo(name + ".npy")      # dated 1980-01-01
        self.info.compress_type = zipfile.ZIP_DEFLATED
        self.info.external_attr = 0o600 << 16
        self.info.CRC = 0
        self._deflate = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION,
                                         zlib.DEFLATED, -15)
        self._write = write
        self._feed(memoryview(header.getvalue()))

    def add(self, array) -> None:
        # C order, with no copy of a C-ordered array
        self._feed(memoryview(
            np.ascontiguousarray(array).reshape(-1).view(np.uint8)))

    def _feed(self, data) -> None:
        # 256 KiB at a time, so no output larger than that is ever copied
        for at in range(0, data.nbytes, 1 << 18):
            self._put(self._deflate.compress(data[at:at + (1 << 18)]))
        self.info.file_size += data.nbytes
        self.info.CRC = zlib.crc32(data, self.info.CRC)

    def _put(self, piece) -> None:
        self._write(piece)
        self.info.compress_size += len(piece)

    def finish(self) -> zipfile.ZipInfo:
        self._put(self._deflate.flush())
        return self.info


def _deflated_member(name, array):
    """(ZipInfo, deflated pieces) of the whole of `array` (_DeflatedMember)."""
    pieces = []
    member = _DeflatedMember(name, array.dtype, array.shape, pieces.append)
    member.add(array)
    return member.finish(), pieces


def _spooled(spool):
    """The deflated pieces written to `spool`, read back a MiB at a time."""
    spool.seek(0)
    return iter(partial(spool.read, 1 << 20), b"")


def save_frames_npz(path, blocks, rows: int) -> None:
    """Write frame store blocks (frame_blocks, stack_frames), `rows` rows
    in all, as the one frame store of their rows for the detect stage.

    The file is byte for byte the one np.savez_compressed writes for the six
    members of the blocks' rows joined, but two blocks at most are held:
    each block's east and west deflate on a thread each (zlib lets go of
    the GIL) into a temporary file beside path while the caller makes the
    next block.  The per-row members, kept whole, and rf_freqs_hz deflate
    at the end; then the file is put together in member order.  Blocks
    whose rf, bins or spectra dtypes differ from the first's, or whose rows
    do not add up to `rows`, raise ValidationError before path is opened;
    the temporary files go on every path.
    """
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        raise ValidationError(f"{path}: no frames to save")
    rf = first[5]
    spectra = [(part.dtype, part.shape[1:]) for part in first[3:5]]
    blocks = chain([first], blocks)
    del first                   # held no longer than its deflate
    directory = os.path.dirname(path) or os.curdir
    columns, pending, seen = [], (), 0
    with contextlib.ExitStack() as files:
        spools = [files.enter_context(tempfile.TemporaryFile(dir=directory))
                  for _ in _SPECTRA]
        # closed before the spools, which its tasks write
        pool = files.enter_context(thread_pool(2))
        members = [_DeflatedMember(name, dtype, (rows, *bins), spool.write)
                   for name, (dtype, bins), spool in zip(
                       _SPECTRA, spectra, spools)]
        for block in blocks:
            *head, east, west, block_rf = block
            if not np.array_equal(block_rf, rf):
                raise ValidationError("frames differ in their rf_freqs_hz")
            if [(part.dtype, part.shape[1:]) for part in (east, west)] \
                    != spectra:
                raise ValidationError(
                    f"frame {head[0][0]}: spectra of another dtype or "
                    f"width than the first block's")
            seen += len(head[0])
            columns.append(head)
            for done in pending:            # the block before, in order
                done.result()
            pending = [pool.submit(member.add, part)
                       for member, part in zip(members, (east, west))]
        for done in pending:
            done.result()
        if seen != rows:
            raise ValidationError(
                f"{path}: the blocks hold {seen} rows, not {rows}")
        stored = [_deflated_member(name, np.concatenate(column))
                  for name, column in zip(_FRAME_MEMBERS, zip(*columns))]
        stored += [(member.finish(), _spooled(spool))
                   for member, spool in zip(members, spools)]
        stored.append(_deflated_member("rf_freqs_hz", rf))
        with open(path, "wb") as fh:
            for info, pieces in stored:
                info.header_offset = fh.tell()
                fh.write(info.FileHeader(zip64=True))  # numpy forces zip64
                fh.writelines(pieces)
            with zipfile.ZipFile(fh, "w") as archive:
                # closing it writes the central directory of its members
                archive.filelist.extend(info for info, _ in stored)


def _read_rows(stream, dtype, shape):
    """An array of `dtype` and `shape` read from stream in C order, in
    reads of at most _READ_BYTES."""
    rows = np.empty(shape, dtype)
    view = memoryview(rows.reshape(-1).view(np.uint8))
    at = 0
    while at < view.nbytes:
        got = stream.readinto(view[at:at + _READ_BYTES])
        if not got:
            raise EOFError(f"{stream.name} ends inside its rows")
        at += got
    return rows


def _open_member(files, path, name):
    """(stream past its .npy header, dtype, shape, Fortran order) of member
    `name` of the .npz at path, on a ZipFile and file handle of its own, so
    calls on a pool's threads share no zip state; `files` closes both."""
    archive = files.enter_context(zipfile.ZipFile(path))
    stream = files.enter_context(archive.open(name + ".npy"))
    version = np.lib.format.read_magic(stream)
    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                   else np.lib.format.read_array_header_2_0)
    shape, in_fortran_order, dtype = read_header(stream)
    return stream, dtype, shape, in_fortran_order


def load_frames_npz(path):
    """The frame store at path as blocks of consecutive rows, each a
    stack_frames tuple of at most _BLOCK_BINS bins (a wider row alone).

    Before the first block it reads the per-row members and rf_freqs_hz
    whole and checks them and the .npy headers of east and west: a member
    missing, of the wrong kind of dtype or shape, or (east, west) not in C
    order raises ValidationError naming it.  east and west are then
    inflated a block at a time, each on a file handle and a thread of its
    own, and read to their end, so zipfile checks their CRC-32.  A store
    that is not a readable .npz (truncated, empty, or with a corrupt
    member) raises ValidationError naming path, at the block where that
    shows.
    """
    try:
        with contextlib.ExitStack() as files:
            archive = files.enter_context(zipfile.ZipFile(path))
            missing = [name for name in _FRAME_MEMBERS
                       if name + ".npy" not in archive.namelist()]
            if missing:
                raise ValidationError(
                    f"{path}: missing arrays: {', '.join(sorted(missing))}")
            index, utc, pols, rf = (
                np.lib.format.read_array(files.enter_context(
                    archive.open(name + ".npy")))
                for name in _FRAME_MEMBERS if name not in _SPECTRA)
            streams, dtypes, shapes, fortran = zip(*(
                _open_member(files, path, name) for name in _SPECTRA))
            if rf.ndim != 1 or rf.size == 0:    # a block's rows divide by it
                raise ValidationError(
                    f"{path}: rf_freqs_hz has shape {rf.shape}, expected "
                    f"one axis of at least one bin")
            n = index.size
            found = [(a.dtype, a.shape) for a in (index, utc, pols)]
            found += [*zip(dtypes, shapes), (rf.dtype, rf.shape)]
            wanted = ((n,),) * 3 + ((n, rf.size),) * 2 + (rf.shape,)
            for (name, kind), (dtype, shape), want in zip(
                    _FRAME_MEMBERS.items(), found, wanted):
                if shape != want or not np.issubdtype(dtype, kind):
                    raise ValidationError(
                        f"{path}: {name} is {dtype} of shape {shape}, "
                        f"expected {kind.__name__} of shape {want}")
            for name, in_fortran_order in zip(_SPECTRA, fortran):
                if in_fortran_order:
                    raise ValidationError(f"{path}: {name} is in Fortran "
                                          f"order, expected C order")
            step = max(1, _BLOCK_BINS // rf.size)
            with thread_pool(2) as pool:
                for at in range(0, n, step):
                    rows = (min(step, n - at), rf.size)
                    yield (index[at:at + step], utc[at:at + step],
                           pols[at:at + step], *pool.map(
                               partial(_read_rows, shape=rows), streams,
                               dtypes), rf)
            for stream in streams:
                while stream.read(_READ_BYTES):     # to its end and CRC-32
                    pass
    except ValidationError:
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise ValidationError(
            f"{path}: not a readable frame store: {exc}") from None


def detect_frames(config: ObservationConfig, params: FirstLevelFilterParams,
                  blocks) -> EventTable:
    """First-level filter frame store blocks (frame_blocks, load_frames_npz,
    stack_frames) into events: first_level_filter_frames of each block in
    turn, with its rows' pointing RA."""
    def scored(block):
        index, utc, pols, east, west, rf = block
        ra = config.pointing_ra(lst_hours(utc, config.longitude_deg))
        return first_level_filter_frames(index, utc, pols, east, west, rf,
                                         params, ra)
    return EventTable.concat(map(scored, blocks))


# -- staged runner ----------------------------------------------------------

@dataclass
class ExperimentResult:
    status: str
    paths: dict
    skipped: list
    n_events: int = 0
    n_pairs: int = 0
    n_survivors: int = 0
    analysis: AnalysisResult | None = None


def session_frames(manifest: ExperimentManifest):
    """Simulate the frame modes' session: simulate_frames' tuples."""
    if manifest.n_transits != 1:
        raise ValidationError(
            "run.n_transits: a frame-mode session is run.n_frames consecutive "
            "frames; use run.mode = events for several transits")
    if manifest.n_frames is None:
        raise ValidationError(
            "run.n_frames: a frame-mode session needs run.n_frames >= 1")
    return simulate_frames(manifest.config, manifest.sources, manifest.rfi,
                           n_frames=manifest.n_frames,
                           start_utc_s=manifest.start_utc_s,
                           mode=manifest.mode)


def frame_blocks(manifest: ExperimentManifest):
    """The frame modes' session (session_frames) as frame stores of
    consecutive rows (stack_frames) of at most _BLOCK_BINS bins each (a
    wider row alone), made one at a time as they are consumed."""
    frames = session_frames(manifest)
    rows = manifest.n_frames * len(manifest.config.polarization_tags)
    step = max(1, _BLOCK_BINS // manifest.config.n_bins)
    for _ in range(0, rows, step):
        yield stack_frames(islice(frames, step))


def simulate_events(manifest: ExperimentManifest) -> EventStream:
    """The simulate stage in memory: the session's level-1 events.

    Events mode samples them directly, a pair chunk at
    run.pairing_window_frames at a time as the stream is consumed (the
    archive's bytes do not depend on it); the frame modes first-level
    filter the session's blocks (frame_blocks) as they are synthesized,
    into one table that chunk_events cuts into the archive's pair chunks.
    """
    if manifest.mode == "events":
        if manifest.n_frames is not None:
            raise ValidationError(
                "run.n_frames: the event-level sampler takes its frames from "
                "the RA window; use run.window_lo_hr and run.window_hi_hr")
        return simulate_level1_events(
            manifest.config, manifest.sources, manifest.filter,
            manifest.n_transits, manifest.window_lo_hr, manifest.window_hi_hr,
            start_utc_s=manifest.start_utc_s, rfi=manifest.rfi,
            pairing_window_frames=manifest.pairing_window_frames)
    events = detect_frames(manifest.config, manifest.filter,
                           frame_blocks(manifest))
    return EventStream(events.tags, len(events), chunk_events(
        events, None, manifest.pairing_window_frames))


def external_archive(manifest: ExperimentManifest) -> str | None:
    """`run.level1_in`, checked to exist; None when the run simulates."""
    path = manifest.level1_in
    if path is not None and not os.path.exists(path):
        raise ValidationError(f"level1 archive {path} does not exist")
    return path


def consume_session(manifest: ExperimentManifest, level1_path, consume,
                    outputs=()):
    """consume(an archive's pair chunks), through
    pairdetect.consume_level1_archive: the sidecar's key is checked on one
    thread while consume reads them, and a stale key drops consume's result
    or error, removes `outputs` and runs consume again on the text.

    The chunks come in (transit, block) order, cut
    at run.pairing_window_frames, as the sampler cuts an events-mode
    session (simulate_events), so each pairs on its own (session_pairs).
    In events mode each event's transit is sigsim.transit_index's; a
    frame-mode session is one transit.
    """
    transit_of = None
    if manifest.mode == "events":
        transit_of = partial(transit_index, config=manifest.config,
                             window_lo_hr=manifest.window_lo_hr,
                             window_hi_hr=manifest.window_hi_hr,
                             start_utc_s=manifest.start_utc_s)
    return consume_level1_archive(level1_path, consume, transit_of,
                                  manifest.pairing_window_frames, outputs)


def _make_dirs(*paths) -> None:
    """Make each path's directory if missing.  A stage calls this only once
    it has read its input, so a run refused for the input's contents
    leaves no directory."""
    for path in paths:
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)


def session_pairs(manifest: ExperimentManifest, tables):
    """form_pairs of each pair chunk of `tables` (simulate_events' or
    consume_session's), in turn.  A PairTable holds its chunk: drop it
    before asking for the next."""
    for events in tables:
        yield form_pairs(events, manifest.pairing_window_frames,
                         manifest.require_pol_match)
        del events                  # before the next chunk is read


# survivors refilter holds before it writes them: a write per chunk costs
# time, and rendering a batch takes ~0.8 kB a row of temporaries, so a
# batch of this many costs about what a pair chunk does
_HELD_CANDIDATES = 1 << 12


def _joined(held: list) -> list:
    """One column list of _candidate_columns lists, rows in turn."""
    return [np.concatenate(column) for column in zip(*held)]


def refilter(manifest: ExperimentManifest, level1_path, candidates_path,
             diagnostics_path=None) -> tuple:
    """The refilter stage: pair an archive and write its level-2 survivors.

    The archive is read, paired and filtered one chunk at a time
    (session_pairs of consume_session's chunks).  Each chunk's survivors
    are kept as their _candidate_columns, which hold none of its events,
    and written to candidates_path together: once, at the end, or whenever
    _HELD_CANDIDATES of them are held.  With diagnostics_path, also write
    every pair's metric and verdict, a chunk at a time.  The first write
    of each file starts it afresh, so a second pass over the text after a
    stale sidecar key rewrites both.  Their directories are made once the
    first chunk is read.
    Returns (n_events, n_pairs, n_survivors).
    """
    outputs = [candidates_path] + ([] if diagnostics_path is None
                                   else [diagnostics_path])

    def consume(tables) -> tuple:
        n_events = n_pairs = n_survivors = n_held = 0
        held, append = [], False
        # a plain loop: enumerate would hold the last chunk while the next
        # is read
        for pairs in session_pairs(manifest, tables):
            if not n_events:        # no event read before this chunk
                _make_dirs(*outputs)
            if diagnostics_path is None:
                survivors = second_level_filter(pairs, manifest.phase)
            else:               # rows go on after the first chunk's
                survivors, verdicts = second_level_filter(
                    pairs, manifest.phase, explain=True)
                write_metric_diagnostics_csv(diagnostics_path, pairs,
                                             verdicts, n_events > 0)
                del verdicts
            held.append(_candidate_columns(survivors))
            n_events += len(pairs.events)
            n_pairs += len(pairs)
            n_held += len(survivors)
            del pairs, survivors    # before a write or the next chunk
            if n_held >= _HELD_CANDIDATES:
                write_candidates_csv(candidates_path, _joined(held), append)
                n_survivors += n_held
                held, n_held, append = [], 0, True
        if held:
            write_candidates_csv(candidates_path, _joined(held), append)
        return n_events, n_pairs, n_survivors + n_held

    return consume_session(manifest, level1_path, consume, outputs)


def session_exposure(manifest: ExperimentManifest, tables) -> tuple:
    """(exposure, tables): in exposure mode, the per-bin counts (bin_counts)
    of the events of `tables`, such as consume_session's chunks, summed as
    the passed-through tables go by, else None.  One read of the session
    gives both its exposure and its events."""
    if manifest.p_mode != "exposure":
        return None, tables
    edges = manifest.bin_edges()
    exposure = np.zeros(edges.size - 1, dtype=np.int64)

    def counted():
        for events in tables:
            exposure[:] += bin_counts(events.ra_pointing_hr, edges)
            yield events
            del events              # before the next table is read
    return exposure, counted()


def run_experiment(manifest: ExperimentManifest, out_dir) -> ExperimentResult:
    """Run simulate -> refilter -> analyze -> report in out_dir, with
    hash-based resume.

    Each stage runs the function its CLI subcommand calls.  A stage is
    skipped when its params hash, its `stage.<name>.inputs` line (one
    `<file>=<sha256>` per input), its outputs' hashes and its record lines
    all match the prior manifest.txt.  A failure records
    `status = failed:<stage>` before it propagates.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.txt")
    prior = {}
    if os.path.exists(manifest_path):
        prior = kvconfig.read_kv_file(manifest_path)
    record = manifest.to_kv()
    paths = {
        "level1": manifest.level1_in or os.path.join(out_dir, "level1.csv"),
        "candidates": os.path.join(out_dir, "candidates.csv"),
        "stats": os.path.join(out_dir, "stats.csv"),
        "report": os.path.join(out_dir, "report.txt"),
        "figure": os.path.join(out_dir, "figure.svg"),
    }
    level1, candidates, stats, report, figure = paths.values()
    skipped: list[str] = []
    result = ExperimentResult("running", paths, skipped)
    counts = ("n_events", "n_pairs", "n_survivors")

    def refilter_stage():
        values = refilter(manifest, level1, candidates)
        for name, value in zip(counts, values):
            record[f"stage.refilter.{name}"] = str(value)

    def analyze_stage():
        result.analysis = write_analysis(manifest, candidates, level1, stats,
                                         report)

    exposure = [level1] if manifest.p_mode == "exposure" else []
    # (name, inputs, outputs, record lines, stage function)
    stages = [
        ("simulate", [], [level1], (),
         lambda: write_level1_archive(level1, simulate_events(manifest))),
        ("refilter", [level1], [candidates], counts, refilter_stage),
        ("analyze", [candidates] + exposure, [stats, report], (),
         analyze_stage),
        ("report", [stats], [figure], (),
         lambda: write_figure(manifest, stats, figure)),
    ]
    digests = {}

    def digest(path):
        """sha256_file(path), once per call until a stage rewrites path."""
        if path not in digests:
            digests[path] = sha256_file(path)
        return digests[path]

    stage = "simulate"
    try:
        if external_archive(manifest) is not None:
            skipped.append("simulate (external archive)")
            del stages[0]
        for stage, inputs, outputs, names, run in stages:
            lines = [f"stage.{stage}.{name}" for name in names]
            marks = {f"stage.{stage}.params": manifest.params_hash(stage),
                     f"stage.{stage}.inputs": ",".join(
                         f"{os.path.basename(p)}={digest(p)}"
                         for p in inputs) or "none"}
            if (all(prior.get(k) == v for k, v in marks.items())
                    and all(k in prior for k in lines)
                    and all(os.path.exists(p)
                            and prior.get(f"artifact.{os.path.basename(p)}")
                            == digest(p) for p in outputs)):
                skipped.append(stage)
                record.update((k, prior[k]) for k in lines)
            else:
                for p in outputs:
                    digests.pop(p, None)
                run()
            record.update(marks)
            for p in outputs:
                record[f"artifact.{os.path.basename(p)}"] = digest(p)
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

    The level-1 archive is read, a chunk at a time (consume_session),
    only in exposure mode, for the exposure.
    """
    def consume(tables):
        exposure, tables = session_exposure(manifest, tables)
        for events in tables:
            del events              # before the next chunk is read
        return exposure

    ra = read_candidates_csv(candidates_path)["ra_pointing_hr"]
    exposure = None
    if manifest.p_mode == "exposure":
        exposure = consume_session(manifest, level1_path, consume)
    return analyze(ra, manifest.bin_edges(), manifest.p_mode, exposure)


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
    """The analyze stage: write stats.csv and report.txt of a candidates CSV,
    their directories made once it has been read."""
    analysis = analyze_candidates(manifest, candidates_path, level1_path)
    _make_dirs(stats_path, report_path)
    write_stats_csv(stats_path, analysis.stats)
    _write_report(report_path, manifest, analysis)
    return analysis


def write_figure(manifest: ExperimentManifest, stats_path, figure_path) -> None:
    """The report stage: draw the significance figure from a stats CSV,
    its directory made once the CSV has been read."""
    stats = read_stats_csv(stats_path)
    _make_dirs(figure_path)
    save_stats_figure(figure_path, stats, manifest.fwhm_center_hr,
                      manifest.fwhm_width_hr, title=manifest.title)


def run_null_mc(manifest: ExperimentManifest, n_seeds: int,
                significance_d: float = 3.5, threads: int = 1):
    """Source-free reruns: the distribution of the peak bin's excess.

    Runs refilter's chain on a sampled session with no sources, for seeds
    seed0 .. seed0+n_seeds-1: session_pairs of simulate_events, each chunk's
    survivors' bin_counts summed into trials, and their peak_cohens_d (with
    session_exposure's exposure).  Returns (rows, fraction_clean) where each
    row is (seed, n_trials, max_d, peak_ra_low) and fraction_clean is the
    share of seeds whose peak stays below `significance_d`.

    With threads > 1 the seeds run on a pool of up to that many threads;
    the sampler draws each seed's transits on the thread that runs it, so
    one seed runs on the calling thread alone.  Rows come in seed
    order with the same bytes at any thread count; memory grows with the
    seeds in flight, each holding one transit's packed, sorted words and
    float draws plus one chunk (sigsim.simulate_level1_events).
    """
    if n_seeds < 1:
        raise ValidationError("n_seeds must be >= 1")
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    if manifest.mode != "events":
        raise ValidationError("null-mc runs on the events mode")
    edges = manifest.bin_edges()

    def one(seed: int):
        seeded = replace(manifest, config=replace(manifest.config, seed=seed),
                         sources=[])
        exposure, tables = session_exposure(seeded, simulate_events(seeded))
        trials = np.zeros(edges.size - 1, dtype=np.int64)
        for pairs in session_pairs(seeded, tables):
            survivors = second_level_filter(pairs, seeded.phase)
            trials += bin_counts(survivors.ra_pointing_hr, edges)
            del pairs, survivors    # before the next chunk is sampled
        max_d, peak = peak_cohens_d(trials, bin_probabilities(
            edges, manifest.p_mode, exposure))
        return (seed, int(trials.sum()), max_d, float(edges[peak]))

    seeds = [manifest.config.seed + i for i in range(n_seeds)]
    if threads > 1 and n_seeds > 1:
        with thread_pool(min(threads, n_seeds)) as pool:
            rows = list(pool.map(one, seeds))
    else:
        rows = [one(seed) for seed in seeds]
    clean = sum(1 for row in rows if row[2] < significance_d)
    return rows, clean / n_seeds


def run_tune_tau(manifest: ExperimentManifest, level1_path):
    """Scan assumed instrument delays against an existing archive.

    The archive is read a chunk at a time (consume_session: once, and
    once more from the text when the sidecar's key is stale), and
    tune_tau_int adds each chunk's pairs (session_pairs) to its pass counts
    before the next chunk is read, so the scan holds one chunk (and the
    whole table from a text archive).  In exposure mode session_exposure
    adds each chunk's exposure counts as it goes by, and the probabilities
    are made from them after the last chunk.
    Returns (best_tau_s, best_stat, taus, stats).
    """
    edges = manifest.bin_edges()

    def consume(tables):
        exposure, tables = session_exposure(manifest, tables)
        return tune_tau_int(session_pairs(manifest, tables), manifest.phase,
                            edges, lambda: bin_probabilities(
                                edges, manifest.p_mode, exposure))
    return consume_session(manifest, level1_path, consume)
