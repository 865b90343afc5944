"""First-level event filtering, pair formation, and the level-1 archive.

A pulse EVENT is an FFT bin whose segment-relative SNR clears the threshold
on BOTH elements simultaneously, inside the accepted RF band and outside the
excision band.  Events are paired by sorting each block of (2K+1) frames in
(bin_index, frame_index, polarization_tag, utc_s) order and joining
consecutive entries, so a pair's two members are adjacent in frequency-major
order and at most 2K frames apart.  K = 0 pairs only within single frames.

A session is paired one transit at a time, so no pair joins two transits:
an EventStream knows its row count and the tags up front and makes its
EventTables one after another, and write_level1_archive writes them as
they come.  Pairing is local to a block, so chunk_events cuts a table at
every transit edge and at the first block edge at least 16,384 rows after
the last cut, once its rows are in (transit, block) order, and each such
pair chunk is paired in turn.  One cutter, _chunk_cuts, built on one scan
(_cuts) and one block key (_block_key), finds those edges in a table, in
an archive's sidecar as read_level1_archive streams it, and in the event
sampler's sorted key (sigsim), so every archive and sampled session
yields the same chunks.  A stage that takes each chunk as it comes holds
one chunk; one that reads a text archive holds the table too, and the
sampler one transit's sort and float draws.

Events and pairs move between stages as columns, not objects.  An
EventTable holds one numpy array per archive column; the polarization tag is
stored as an integer code into the table's sorted, unique `tags` (checked
when the table is made), so sorting on the code sorts on the tag string.
A PairTable holds index arrays `a` and `b` into its EventTable plus the
delta_t_s, delta_f_hz and phase_metric_rad columns; its log10_delta_f_mhz
is computed from delta_f_hz when read, so pairing and filtering never take
a per-pair logarithm.  Iterating a PairTable yields PairCandidate rows
built from the columns, for inspection; no stage iterates them.

Each CSV the package writes is declared once, as a dict of its columns'
write_rows conversions by name (ARCHIVE_COLUMNS, and one per artifact):
write_csv writes its header and rows, and read_columns reads it back.

The level-1 archive is the package's interchange format: one CSV row per
event with fixed column order and fixed numeric formats, so identical inputs
produce byte-identical archives.  When every tag it declares is used,
write_level1_archive also leaves a binary column sidecar beside it, a
cache keyed to the archive's sha256 that read_level1_archive reads, a
chunk at a time, in place of parsing the text; the tags in use are always
those the text gives.  The writer lays out each chunk of rows on the
calling thread while one thread (thread_pool) writes the chunk before.
Every archive is read through consume_level1_archive, which checks the
key on one thread while a stage takes the chunks, and runs the stage once
more on the text when the key is stale, so a stale sidecar costs one more
pass and is never served.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import math
import os
import re
import struct
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, NoReturn

import numpy as np

from .channelizer import bin_phase, segment_power, segment_ratio
from .errors import ArchiveFormatError, ValidationError

ARCHIVE_SCHEMA_VERSION = 1
# level1.csv: each column's write_rows conversion, in order
ARCHIVE_COLUMNS = {
    "schema_version": "%d", "utc_s": "%.3f", "frame_index": "%d",
    "bin_index": "%d", "rf_freq_hz": "%.1f", "snr_east_db": "%.6g",
    "snr_west_db": "%.6g", "phase_east_rad": "%.6g", "phase_west_rad": "%.6g",
    "polarization_tag": "%s", "ra_pointing_hr": "%.6g",
}
# EventTable columns and their dtypes (pol_code codes the polarization tag).
EVENT_DTYPES = {
    "frame_index": np.int64, "utc_s": np.float64, "bin_index": np.int64,
    "rf_freq_hz": np.float64, "snr_east_db": np.float64,
    "snr_west_db": np.float64, "phase_east_rad": np.float64,
    "phase_west_rad": np.float64, "pol_code": np.int64,
    "ra_pointing_hr": np.float64,
}
EVENT_COLUMNS = tuple(EVENT_DTYPES)


class PairCandidate(NamedTuple):
    """Row view of one pair: indices into the event table plus pair columns.

    Event a precedes event b in the block sort order, so delta_t_s is
    |utc_b - utc_a| and delta_f_hz is rf_b - rf_a.  log10_delta_f_mhz is
    math.log10(|delta_f_hz| / 1e6), or -inf for the degenerate delta_f = 0
    case (same bin, different polarization); such pairs never survive the
    frequency-offset filter.
    phase_metric_rad is NaN until the second-level filter fills it in.
    """

    a: int
    b: int
    delta_t_s: float
    delta_f_hz: float
    log10_delta_f_mhz: float
    phase_metric_rad: float


PAIR_COLUMNS = PairCandidate._fields
_STORED_PAIR_COLUMNS = tuple(n for n in PAIR_COLUMNS
                             if n != "log10_delta_f_mhz")


@dataclass(eq=False)
class EventTable:
    """Level-1 events as one numpy array per column (see EVENT_COLUMNS).

    pol_code indexes `tags`, which is sorted and unique, so the code ranks
    each event's polarization tag in Python string order; a table that
    breaks this raises ValidationError.
    """

    frame_index: np.ndarray
    utc_s: np.ndarray
    bin_index: np.ndarray
    rf_freq_hz: np.ndarray
    snr_east_db: np.ndarray
    snr_west_db: np.ndarray
    phase_east_rad: np.ndarray
    phase_west_rad: np.ndarray
    pol_code: np.ndarray
    ra_pointing_hr: np.ndarray
    tags: tuple = ()

    def __post_init__(self):
        for name, dtype in EVENT_DTYPES.items():
            setattr(self, name,
                    np.ascontiguousarray(getattr(self, name), dtype=dtype))
        self.tags = tuple(self.tags)
        if len({getattr(self, n).shape for n in EVENT_COLUMNS}) != 1:
            raise ValidationError("event columns differ in length")
        if list(self.tags) != sorted(set(self.tags)):
            raise ValidationError(
                f"event tags {self.tags!r} are not sorted and unique")
        if len(self) and not (0 <= self.pol_code.min()
                              and self.pol_code.max() < len(self.tags)):
            raise ValidationError("pol_code does not index the event tags")

    def __len__(self) -> int:
        return self.frame_index.size

    def take(self, idx) -> EventTable:
        return EventTable(tags=self.tags, **{
            n: getattr(self, n)[idx] for n in EVENT_COLUMNS})

    @classmethod
    def concat(cls, tables) -> EventTable:
        """Rows of every table in order; tag codes are remapped to the union."""
        tables = list(tables)
        tags = tuple(sorted(set().union(*(t.tags for t in tables))))
        cols = {n: [getattr(t, n) for t in tables] for n in EVENT_COLUMNS}
        cols["pol_code"] = [
            np.array([tags.index(g) for g in t.tags], dtype=np.int64)[
                t.pol_code] for t in tables]
        return cls(tags=tags, **{n: np.concatenate(c) if c else []
                                 for n, c in cols.items()})


def empty_event_columns(n: int) -> dict:
    """Uninitialized EVENT_COLUMNS columns of n rows, by name, as views of
    one allocation.

    numpy asks for huge pages for an allocation of a transit's size, so
    filling one block takes far fewer page faults than filling ten
    separate columns: reading the seed-42 survey archive a transit at a
    time took 2,316 minor faults against 17,519.
    """
    block = np.empty((len(EVENT_DTYPES), n), np.int64)
    return {name: row.view(dtype)
            for row, (name, dtype) in zip(block, EVENT_DTYPES.items())}


@dataclass(eq=False)
class EventStream:
    """A session's events as consecutive EventTables (parts), made one at a
    time as they are consumed, such as one per pair chunk.

    `rows` is the parts' total row count and `tags` every part's tags
    (used or not), both known before the first part is made.
    A stream iterates once.  A consumer that holds one part at a time must
    drop it before it asks for the next.
    """

    tags: tuple
    rows: int
    parts: Iterator[EventTable] | None

    def __post_init__(self):
        self.tags = tuple(self.tags)

    def __len__(self) -> int:
        return self.rows

    def __iter__(self) -> Iterator[EventTable]:
        if self.parts is None:
            raise ValueError("an EventStream iterates once")
        parts, self.parts = self.parts, None
        return parts


@dataclass(eq=False)
class PairTable:
    """Candidate pairs as columns (see PAIR_COLUMNS); a and b index events.

    log10_delta_f_mhz is not stored: it is computed from delta_f_hz on
    each read.
    """

    events: EventTable
    a: np.ndarray
    b: np.ndarray
    delta_t_s: np.ndarray
    delta_f_hz: np.ndarray
    phase_metric_rad: np.ndarray

    def __len__(self) -> int:
        return self.a.size

    def __iter__(self):
        cols = [getattr(self, n).tolist() for n in PAIR_COLUMNS]
        return map(PairCandidate._make, zip(*cols))

    @property
    def ra_pointing_hr(self) -> np.ndarray:
        """A pair is placed at the pointing RA of its later event."""
        return self.events.ra_pointing_hr[self.b]

    @property
    def log10_delta_f_mhz(self) -> np.ndarray:
        """math.log10(|delta_f_hz| / 1e6) per pair, -inf where delta_f is 0.

        math.log10 rather than np.log10: the two differ in the last bit for
        some inputs, and candidates.csv prints these values.  A chunk at a
        time, so that few Python floats exist at once.
        """
        delta_f = self.delta_f_hz
        log_df = np.full(delta_f.size, -np.inf)
        nonzero = np.flatnonzero(delta_f != 0.0)
        for start in range(0, nonzero.size, _CHUNK_ROWS):
            rows = nonzero[start:start + _CHUNK_ROWS]
            log_df[rows] = np.fromiter(
                map(math.log10, (np.abs(delta_f[rows]) / 1.0e6).tolist()),
                float, rows.size)
        return log_df

    def take(self, idx) -> PairTable:
        return PairTable(self.events, **{
            n: getattr(self, n)[idx] for n in _STORED_PAIR_COLUMNS})


@dataclass
class FirstLevelFilterParams:
    """Every first-level setting: the manifest's `filter.` section.

    A dual-element SNR threshold against the mean power of each bin's
    segment of `bins_per_segment` bins (the bin itself included when
    `segment_include_self`), plus the accepted RF band.  Defaults are the
    survey values: 8.5 dB on both elements, 1405-1455 MHz with 1424-1426
    MHz excised, 256-bin segments.  An excision band lying outside the
    accepted band simply excises nothing (narrow-band test configurations
    keep the default excision without effect).
    """

    snr_threshold_db: float = 8.5
    accept_band_low_hz: float = 1405.0e6
    accept_band_high_hz: float = 1455.0e6
    excision_low_hz: float = 1424.0e6
    excision_high_hz: float = 1426.0e6
    bins_per_segment: int = 256
    segment_include_self: bool = True

    def __post_init__(self):
        if not self.accept_band_high_hz > self.accept_band_low_hz:
            raise ValidationError(
                "accept_band_high_hz must exceed accept_band_low_hz")
        if self.excision_high_hz < self.excision_low_hz:
            raise ValidationError("excision_high_hz below excision_low_hz")
        if not math.isfinite(self.snr_threshold_db):
            raise ValidationError("snr_threshold_db must be finite")
        if self.bins_per_segment < 2:
            raise ValidationError("bins_per_segment must be >= 2")

    def rf_accepted(self, rf_hz) -> np.ndarray:
        """Boolean mask: inside the band (inclusive) and not excised."""
        rf = np.asarray(rf_hz, dtype=float)
        inside = ((rf >= self.accept_band_low_hz)
                  & (rf <= self.accept_band_high_hz))
        excised = (rf >= self.excision_low_hz) & (rf <= self.excision_high_hz)
        return inside & ~excised


def first_level_filter_frames(frame_index, utc_s, polarization_tag,
                              east_bins, west_bins, rf_freqs_hz,
                              params: FirstLevelFilterParams,
                              ra_pointing_hr) -> EventTable:
    """Score a block of dual-element frames; return its surviving events
    in (frame, bin) order.

    east_bins and west_bins are [frames, bins] spectra aligned bin for bin
    with rf_freqs_hz, which every frame of the block shares; frame_index,
    utc_s, polarization_tag and ra_pointing_hr give one value per frame.  A
    bin where only one element crosses threshold yields nothing (the dual
    requirement is what suppresses single-dish RFI).  Each element's power
    and segment sums are taken once over the block; only the bins whose two
    ratios to their segment means can exceed 10**(thr/10), less a relative
    1e-9, take their ratio (channelizer.segment_ratio), a log10 and the
    exact `snr > thr` test, and only the kept bins a phase, so each event's
    columns are frame_bin_stats' to the bit.
    """
    rf = np.asarray(rf_freqs_hz, dtype=float)
    east = np.asarray(east_bins)
    west = np.asarray(west_bins)
    frames = np.asarray(frame_index, dtype=np.int64)
    utc = np.asarray(utc_s, dtype=float)
    ra = np.asarray(ra_pointing_hr, dtype=float)
    if east.ndim != 2 or any(np.shape(column) != east.shape[:1] for column in
                             (frames, utc, polarization_tag, ra)):
        raise ValidationError(
            "first_level_filter_frames: [frames, bins] spectra and one "
            "frame_index, utc_s, polarization_tag and ra_pointing_hr a frame")
    if east.shape != west.shape or east.shape[1] != rf.size:
        raise ValidationError(
            f"frame {frames[0]}: element/frequency lengths differ "
            f"({east.shape[1]}, {west.shape[-1]}, {rf.size})")
    tags = sorted(set(polarization_tag))
    m, include_self = params.bins_per_segment, params.segment_include_self
    with np.errstate(over="ignore"):
        floor = np.float64(10.0) ** (params.snr_threshold_db / 10.0)
    floor *= 1.0 - 1.0e-9
    # a bin's ratio exceeds floor where its power exceeds reach * the sum
    # of its segment's power: reach is floor / m with the bin in the mean,
    # floor / (m - 1 + floor) without it
    reach = floor / m if include_self else floor / (m - 1 + floor)
    (_, seg_e, sums_e), (_, seg_w, sums_w) = (
        segment_power(spectra, m) for spectra in (east, west))
    # flat indices: np.nonzero of a 3-D mask takes ~8 times as long
    at = np.flatnonzero((seg_e > reach * sums_e) & (seg_w > reach * sums_w))
    rows, bins = np.divmod(at, seg_e.shape[-2] * m)
    snr_e, snr_w = (10.0 * np.log10(segment_ratio(
        seg.reshape(-1)[at], sums.reshape(-1)[at // m], m, include_self))
        for seg, sums in ((seg_e, sums_e), (seg_w, sums_w)))
    keep = ((snr_e > params.snr_threshold_db)
            & (snr_w > params.snr_threshold_db)
            & params.rf_accepted(rf[bins]))
    rows, bins = rows[keep], bins[keep]
    return EventTable(
        frame_index=frames[rows], utc_s=utc[rows], bin_index=bins,
        rf_freq_hz=rf[bins], snr_east_db=snr_e[keep], snr_west_db=snr_w[keep],
        phase_east_rad=bin_phase(east[rows, bins]),
        phase_west_rad=bin_phase(west[rows, bins]),
        pol_code=np.array([tags.index(g) for g in polarization_tag],
                          dtype=np.int64)[rows],
        ra_pointing_hr=ra[rows], tags=tags)


def first_level_filter_frame(frame_index: int, utc_s: float,
                             polarization_tag: str, east_bins, west_bins,
                             rf_freqs_hz, params: FirstLevelFilterParams,
                             ra_pointing_hr: float) -> EventTable:
    """first_level_filter_frames of one frame, as a block of one."""
    return first_level_filter_frames(
        [frame_index], [utc_s], [polarization_tag], [east_bins], [west_bins],
        rf_freqs_hz, params, [ra_pointing_hr])


def _packed_key(fields) -> np.ndarray:
    """One int64 per row that sorts as the rows of `fields` (int64 columns,
    most significant first) sort lexicographically.

    Each field is shifted to start at zero and takes its span (max - min +
    1) of the key; a field of span 1 adds nothing and is skipped.  A product
    of spans of 2**63 or more is rejected.
    """
    key = np.zeros(fields[0].size, dtype=np.int64)
    total = 1
    for column in fields:
        lo, hi = ((int(column.min()), int(column.max())) if column.size
                  else (0, 0))
        if hi == lo:
            continue
        total *= hi - lo + 1
        if total >= 2 ** 63:
            raise ValidationError(
                "form_pairs: the frame, bin and polarization ranges of the "
                "events are too wide for one int64 sort key")
        key *= hi - lo + 1
        key += column - lo
    return key


def _block_width(pairing_window_frames: int) -> int:
    if pairing_window_frames < 0:
        raise ValidationError("pairing_window_frames must be >= 0")
    return 2 * pairing_window_frames + 1


def _block_key(frame_index, pairing_window_frames: int) -> np.ndarray:
    """The frame block of each frame index, frame // (2K+1), that pairing
    sorts on first; at K = 0 a block is one frame, keyed by the frame
    itself, with no division."""
    width = _block_width(pairing_window_frames)
    return frame_index // width if width > 1 else frame_index


def form_pairs(events: EventTable, pairing_window_frames: int = 0,
               require_pol_match: bool = False) -> PairTable:
    """Pair events by sorted adjacency within frame blocks.

    Frames are grouped into fixed blocks of (2K+1) consecutive frame indices
    (block = frame_index // (2K+1)); events of one block (and, when
    require_pol_match is set, one polarization) are sorted by
    (bin_index, frame_index, polarization_tag, utc_s) and every consecutive
    pair becomes a candidate.  An event can therefore appear in at most two
    candidates (as the later and as the earlier member), matching the
    fixed-block reading of the pairing window.  `events` is one transit, or
    a chunk of one, as read_level1_archive yields them, so no pair joins
    two transits.  The sort is two stable passes, on utc_s and then on the
    other keys packed into one int64, so equal keys keep their table
    order; events whose frame and bin ranges are too wide to pack raise
    ValidationError.
    """
    width = _block_width(pairing_window_frames)
    block = _block_key(events.frame_index, pairing_window_frames)
    pol = events.pol_code
    fields = [block, events.bin_index, pol]
    if width > 1:
        fields.insert(2, events.frame_index - block * width)
    if require_pol_match:
        fields.insert(1, pol)
    by_utc = np.argsort(events.utc_s, kind="stable")
    order = by_utc[np.argsort(_packed_key(fields)[by_utc], kind="stable")]
    first, second = order[:-1], order[1:]
    same = block[first] == block[second]
    if require_pol_match:
        same &= pol[first] == pol[second]
    a, b = first[same], second[same]
    return PairTable(events, a, b, np.abs(events.utc_s[b] - events.utc_s[a]),
                     events.rf_freq_hz[b] - events.rf_freq_hz[a],
                     np.full(a.size, np.nan))


def _cuts(key_of, n: int, min_rows: int = 1) -> list | None:
    """Row offsets [0, ..., n] that cut rows 0..n where their key changes,
    each cut at least min_rows rows after the one before (so a range may
    hold more than one key, and the last may be shorter), or None when the
    key ever decreases.

    key_of(lo, hi) gives the keys of rows lo..hi; it is asked for
    _CHUNK_ROWS rows at a time, so the scan holds no whole-table temporary.
    """
    cuts, last = [0], None
    for lo in range(0, n, _CHUNK_ROWS):
        key = key_of(lo, min(lo + _CHUNK_ROWS, n))
        # step[i] compares row lo + i with the row before it
        step = np.diff(key, prepend=key[:1] if last is None else last)
        if step.min() < 0:
            return None
        edges = lo + np.flatnonzero(step)
        while (at := np.searchsorted(edges, cuts[-1] + min_rows)) < edges.size:
            cuts.append(int(edges[at]))
        last = key[-1:]
    return cuts + [n]


def _chunk_cuts(transit_key, frame_key, n: int,
                pairing_window_frames) -> list | None:
    """The _cuts of rows 0..n into pair chunks, or None when they are out
    of (transit, block) order: at every change of transit_key(lo, hi) (if
    given), and with pairing window K at the first block edge of
    frame_key(lo, hi) at least _CHUNK_ROWS rows after the last cut."""
    transits = [0, n] if transit_key is None else _cuts(transit_key, n)
    if transits is None or pairing_window_frames is None:
        return transits
    cuts = [0]
    for lo, hi in zip(transits, transits[1:]):
        blocks = _cuts(lambda a, b: _block_key(frame_key(lo + a, lo + b),
                                               pairing_window_frames),
                       hi - lo, _CHUNK_ROWS)
        if blocks is None:
            return None
        cuts += [lo + cut for cut in blocks[1:]]
    return cuts


def chunk_events(events: EventTable, transit_of=None,
                 pairing_window_frames=None) -> Iterator[EventTable]:
    """Yield `events` in pair chunks (_chunk_cuts) in (transit, block)
    order; `transit_of` maps utc_s values to transit indices, and without
    it the events are one transit.

    Rows out of that order are first stable-sorted by it (np.lexsort), so
    each block keeps its rows in table order.  form_pairs joins only rows
    of one block and its sorts are stable, so the chunks' pairs are those
    of each transit's table, in order.  Without transit_of and K the table
    is one chunk as it is; a table without rows is one empty chunk.
    """
    transit = None if transit_of is None else transit_of(events.utc_s)

    def cuts():
        return _chunk_cuts(
            None if transit is None else lambda lo, hi: transit[lo:hi],
            lambda lo, hi: events.frame_index[lo:hi], len(events),
            pairing_window_frames)

    found = cuts()
    if found is None:
        keys = [] if transit is None else [transit]
        if pairing_window_frames is not None:
            keys.insert(0, _block_key(events.frame_index,
                                      pairing_window_frames))
        order = np.lexsort(keys)
        events = events.take(order)
        transit = None if transit is None else transit[order]
        found = cuts()
    for lo, hi in zip(found, found[1:]):
        yield events.take(slice(lo, hi))


# write_rows lays each chunk of rows out as one uint8 grid holding a row of
# text per row, NUL where a row is shorter than the widest (_lay_out), and
# drops the NULs with a boolean compress a slab of rows at a time
# (_compact).  write_level1_archive lays out each chunk on the calling
# thread while its one writer thread compacts the chunk before; write_rows
# does both in turn.  A column becomes "parts": a per-row byte
# (a sign or a '.'), a literal, a block of bytes (%s), or a uint32 word of
# four digits from _WORDS, the ASCII of 0000..9999 in three layouts:
# zero-padded, leading zeros as NUL (the top word of an integer), and
# trailing zeros as NUL (the last word of a %g fraction).  A word that holds
# r < 4 digits is still written as four bytes, its 4 - r spare bytes over
# the part to its left; parts are written right to left, so that part then
# writes over them.
_PAD, _LEAD, _TRAIL = 0, 10000, 20000


def _word_tables() -> np.ndarray:
    digits = (np.arange(10000, dtype=np.int32)[:, None]
              // np.array([1000, 100, 10, 1], np.int32) % 10
              + ord("0")).astype(np.uint8)
    nonzero = digits != ord("0")
    lead = np.logical_or.accumulate(nonzero, axis=1)
    lead[:, -1] = True
    trail = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([digits, digits * lead, digits * trail]).view(
        np.uint32).ravel()


_WORDS = _word_tables()
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10F = _POW10.astype(float)      # exact: so is every 10**k to 10**22
# events a pair chunk, and rows _cuts scans at a time
_CHUNK_ROWS = 1 << 14
# bytes of a grid (~1.6 MB, fits a 2 MB L2): ~17,200 archive rows
_GRID_BYTES = 100 * _CHUNK_ROWS
_MARGIN = 3                         # room for the spare bytes of a first word
# grid rows _compact strips at a time (~100 KB of archive text): on the
# archive's writer thread, whole-grid temporaries raised simulate's peak RSS
_SLAB_ROWS = 1 << 10
# %d, %s, %.Nf and %.Ng: the conversions write_rows renders.
_CONVERSION = re.compile(r"%(\.\d+[fg]|[ds])")
# Text the grid can hold: ASCII without NUL (padding) or \1 (row marker).
_NOT_TEXT = re.compile(r"[^\x02-\x7f]")


def _words(v, ndigits: int, layout: int) -> list:
    """Word parts of the `ndigits` low digits of the non-negative int64 v.

    _LEAD writes an integer without leading zeros (and "0" for 0), _TRAIL
    a fraction without trailing zeros (nothing for 0), _PAD every digit.
    """
    parts, zero_below = [], True
    for g in range(-(-ndigits // 4)):
        rest = v // 10000           # several times faster than np.divmod
        low = v - rest * 10000
        if layout == _LEAD:
            word = _WORDS[low + _LEAD * (rest == 0)]
            if g:
                word *= v != 0
        else:
            word = _WORDS[low + layout * zero_below]
            zero_below = zero_below & (low == 0)
        parts.append((min(4, ndigits - 4 * g), word))
        v = rest
    return parts[::-1]


def _sign(neg) -> list:
    return [(1, neg.view(np.uint8) * np.uint8(ord("-")))] if neg.any() else []


def _integer(v) -> list:
    return _words(v, len(str(int(v.max()))), _LEAD)


def _fixed(neg, ipart, fpart, ndec: int, layout: int) -> list:
    """Parts of [-]ipart.fpart, fpart holding ndec digits; _TRAIL drops its
    trailing zeros, and the '.' when none are left."""
    parts = _sign(neg) + _integer(ipart)
    if ndec:
        dot = np.uint8(ord("."))
        if layout == _TRAIL:
            dot = (fpart != 0).view(np.uint8) * dot
        parts += [(1, dot)] + _words(fpart, ndec, layout)
    return parts


def _rint(m, bad):
    """rint(m) as int64, for m = |x| * 10**k formed in one multiplication.

    m then carries one rounding error of at most 2**-53 relative, so it
    rounds as the exact decimal value of |x| to k decimals does (the way %
    rounds) unless it lies that close to a tie; such rows, and m of 2**50
    or more, are flagged in bad.
    """
    unsure = ~(m < 2.0 ** 50) | (np.abs(m - np.floor(m) - 0.5)
                                 <= m * 2.0 ** -51)
    bad |= unsure
    return np.rint(np.where(unsure, 0.0, m)).astype(np.int64)


def _render_f(x, ndec: int, bad) -> tuple:
    """%.{ndec}f of the float64 column x, and its read-back values."""
    m = _rint(np.abs(x) * _POW10F[ndec], bad)
    ipart = m // _POW10[ndec]
    return (_fixed(np.signbit(x), ipart, m - ipart * _POW10[ndec], ndec,
                   _PAD), np.copysign(m / _POW10F[ndec], x))


def _render_g(x, prec: int, bad) -> tuple:
    """%.{prec}g of the float64 column x in positional notation, and its
    read-back values.

    Rows that %g writes with an exponent (decimal exponent below -4 or of
    prec or more) are flagged in bad, as are nan and inf.
    """
    a = np.abs(x)
    bad |= ~np.isfinite(a)
    nonzero = np.isfinite(a) & (a > 0)
    a = np.where(nonzero, a, 1.0)
    lo, hi, kmax = _POW10F[prec - 1], _POW10F[prec], prec + 3
    # k decimals bring prec significant digits before the point; where
    # log10 misses by one, next to a power of ten, m is out of range
    k = np.clip(prec - 1 - np.floor(np.log10(a)), 0, kmax).astype(np.int64)
    m = a * _POW10F[k]
    bad |= (m < lo) | (m >= hi)
    digits = _rint(m, bad)
    carry = digits == _POW10[prec]          # 999999.5 -> 1000000
    digits[carry] = _POW10[prec - 1]
    k -= carry
    bad |= k < 0
    digits[bad | ~nonzero] = 0
    k = np.maximum(k, 0)
    ipart = digits // _POW10[k]
    ndec = int(k.max())
    return (_fixed(np.signbit(x), ipart, (digits - ipart * _POW10[k])
                   * _POW10[ndec - k], ndec, _TRAIL),
            np.copysign(digits / _POW10F[k], x))


@dataclass(frozen=True)
class _Coded:
    """A str column as int codes into `values`, such as the archive's
    polarization_tag (pol_code into the tags): write_rows renders it by
    gathering each value's bytes by code, with no str made per row."""

    codes: np.ndarray
    values: tuple

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> _Coded:
        return _Coded(self.codes[rows], self.values)

    def tolist(self) -> list:
        return [self.values[code] for code in self.codes.tolist()]


def _render_s(col, bad) -> list:
    """%s of a _Coded column or a column, each of str or numpy.str_.

    Rows whose text the grid cannot hold are flagged in bad, and so is
    every row of a column holding anything else (its __str__ may differ).
    """
    coded = isinstance(col, _Coded)
    values = list(col.values) if coded else col.tolist()
    if not set(map(type, values)) <= {str, np.str_}:
        bad[:] = True
        return []
    if coded:
        distinct, codes = values, col.codes
    else:
        distinct = list(set(values))
        code = {v: i for i, v in enumerate(distinct)}
        codes = (np.fromiter(map(code.__getitem__, values), np.intp,
                             len(values))
                 if len(distinct) > 1 else np.zeros(len(values), np.intp))
    ok = np.array([not _NOT_TEXT.search(v) for v in distinct])
    bad |= ~ok[codes]
    table = np.zeros((len(distinct), max(map(len, distinct))), np.uint8)
    for row, v, v_ok in zip(table, distinct, ok):
        if v_ok:
            row[:len(v)] = np.frombuffer(v.encode(), np.uint8)
    return [(table.shape[1], table[codes])]


def _render(conv: str, col, bad) -> tuple:
    """(parts, back) of one column under one conversion.

    The parts are (width, bytes): the bytes are a uint32 word (the last
    four bytes of its width and spare ones before it), per-row uint8
    values, a [rows, width] block or one value for every row.  For %f and
    %g, back holds the float64 values that parsing the text gives back:
    copysign(m / 10**k, x) for the digits m and the k decimals written.
    That is one correctly rounded division of two exact numbers (Clinger's
    fast path: m < 2**53, k <= 22), so it is what strtod returns on every
    row not flagged in bad.  back is None for %d, %s and a column the
    kernel leaves to %.
    """
    if conv == "s":
        return _render_s(col, bad), None
    kind = col.dtype.kind
    if conv == "d" and (kind == "i" or kind == "u" and col.dtype.itemsize < 8):
        v = col.astype(np.int64)
        bad |= v == np.iinfo(np.int64).min
        return _sign(v < 0) + _integer(np.abs(np.where(bad, 0, v))), None
    if conv != "d" and kind in "iuf" and col.dtype.itemsize <= 8:
        render = _render_f if conv[-1] == "f" else _render_g
        return render(col.astype(float), int(conv[1:-1]), bad)
    bad[:] = True
    return [], None


def _grid_rows(fmt: str) -> int:
    """Rows of fmt that fill _GRID_BYTES at an estimated row width: its
    literals and 8 bytes a conversion, the width of the int64 or float64
    it renders (95 bytes for an archive row, whose grid is 98 wide)."""
    pieces = _CONVERSION.split(fmt)
    width = _MARGIN + sum(map(len, pieces[::2])) + 8 * (len(pieces) // 2)
    return max(1, _GRID_BYTES // width)


def _grid_cuts(fmt: str, n: int) -> list:
    """Row offsets [0, ..., n] of the grids _chunks lays n rows of fmt out
    in: n // _grid_rows(fmt) grids of near equal size, or one.  So a wider
    row takes fewer rows a grid, and rows shorter than two grids are one
    grid."""
    grids = min(n, max(1, n // _grid_rows(fmt)))
    return [n * i // grids for i in range(grids + 1)] if grids else [0]


def _chunks(fmt: str, columns, read_back: bool = False):
    """Yield the _lay_out of each grid of the columns' rows (_grid_cuts),
    whose _compact is `fmt % row` for every row."""
    pieces = _CONVERSION.split(fmt)
    literals, conversions = pieces[::2], pieces[1::2]
    # %.Nf keeps N <= 18 decimals in int64; %.Ng needs 1 <= N <= 15 for
    # its digits to be exact in a double
    if (any("%" in t or _NOT_TEXT.search(t) for t in literals)
            or any(c[-1] == "f" and int(c[1:-1]) > 18
                   or c[-1] == "g" and not 1 <= int(c[1:-1]) <= 15
                   for c in conversions)
            or len(conversions) != len(columns)):
        raise ValueError(
            f"write_rows: cannot render {len(columns)} columns as {fmt!r}")
    if len({len(c) for c in columns}) > 1:
        raise ValueError("write_rows: columns differ in length")
    lit = [(len(t), np.frombuffer(t.encode(), np.uint8)) for t in literals]
    cuts = _grid_cuts(fmt, len(columns[0]))
    for lo, hi in zip(cuts, cuts[1:]):
        yield _lay_out(conversions, lit, [
            c[lo:hi] if isinstance(c, _Coded) else np.asarray(c[lo:hi])
            for c in columns], read_back)


def _lay_out(conversions, lit, chunk, read_back: bool) -> tuple:
    """(grid, flagged, backs) of one chunk of columns.

    grid holds each row's text, NUL-padded, or a \\1 byte for a row the
    kernel leaves to %; flagged holds those rows' values, in order.  With
    read_back, backs holds one float64 array per %f and %g conversion: the
    values that parsing its fields gives back, bit for bit (the kernel's
    digits for most rows, float() of the text for the rows % writes);
    else it is empty.
    """
    n = len(chunk[0])
    bad = np.zeros(n, dtype=bool)
    parts, values = lit[:1], []
    with np.errstate(all="ignore"):
        for conv, col, after in zip(conversions, chunk, lit[1:]):
            col_parts, value = _render(conv, col, bad)
            parts += col_parts + [after]
            values.append(value)
    at = _MARGIN + sum(width for width, _ in parts)
    grid = np.empty((n, at), np.uint8)
    for width, value in reversed(parts):
        if value.dtype == np.uint32:
            grid[:, at - 4:at].view(np.uint32)[:, 0] = value
        elif width:
            grid[:, at - width:at] = value.reshape(-1, width)
        at -= width
    grid[:, :_MARGIN] = 0
    # a flagged row keeps one \1 byte to mark where its text goes
    grid[bad] = 0
    grid[bad, 0] = 1
    backs = []
    for conv, col, value in zip(conversions, chunk, values):
        if read_back and conv[-1] in "fg":
            # a flagged row is written by %: read back from its text
            value = np.empty(n) if value is None else value
            value[bad] = [float(f"%{conv}" % v) for v in col[bad].tolist()]
            backs.append(value)
    flagged = list(zip(*[col[bad].tolist() for col in chunk]))
    return grid, flagged, backs


def _compact(fmt: str, grid, flagged) -> Iterator[bytes]:
    """Yield the UTF-8 text of a _lay_out grid in pieces: its bytes without
    the NULs, each \\1 replaced by `fmt % row` of the next flagged row.
    It takes _SLAB_ROWS rows at a time, so its temporaries stay small."""
    rows = iter(flagged)
    for lo in range(0, len(grid), _SLAB_ROWS):
        slab = grid[lo:lo + _SLAB_ROWS]
        text, prev = slab[slab != 0].tobytes(), 0
        while (at := text.find(b"\1", prev)) >= 0:
            yield text[prev:at]
            yield (fmt % next(rows)).encode()
            prev = at + 1
        yield text[prev:]


def write_rows(fh, fmt: str, columns) -> None:
    """Write `fmt % row` for every row of equal-length array columns.

    The text is rendered column by column in numpy, ~1.6 MB of text at a
    time (_grid_cuts).
    fmt may hold only the conversions %d, %s, %.Nf (N <= 18) and %.Ng
    (1 <= N <= 15), one per column; any other format raises ValueError.
    A row whose text the numpy kernel cannot show to equal `fmt % row` (a
    value within rounding error of a tie, nan or inf, a %g value that
    needs an exponent, a str holding a NUL, \\x01 or non-ASCII character)
    is formatted with `fmt % row` and spliced back in place, so the bytes
    are those of `fmt % row` for any input.
    """
    for grid, flagged, _ in _chunks(fmt, columns):
        fh.write(b"".join(_compact(fmt, grid, flagged)).decode())


def _row_format(columns: dict) -> str:
    return ",".join(columns.values()) + "\n"


def write_csv(path, columns: dict, values, append: bool = False) -> None:
    """Write the equal-length columns `values` as the CSV `columns` declares
    (name -> write_rows conversion): its header, unless `append`, and rows."""
    with open(path, "a" if append else "w", newline="\n",
              encoding="utf-8") as fh:
        if not append:
            fh.write(",".join(columns) + "\n")
        write_rows(fh, _row_format(columns), values)


# the schema version is written as a literal, not rendered as a column
_ARCHIVE_ROW = _row_format(
    ARCHIVE_COLUMNS | {"schema_version": str(ARCHIVE_SCHEMA_VERSION)})


# <archive>.cols, the column sidecar: the _SIDECAR header (magic, format
# version, rows, the archive's sha256 in hex, the length of the tag text),
# the tags in use joined by "\n", then each EVENT_COLUMNS column as
# _SIDECAR_DTYPES.
_SIDECAR = struct.Struct("<8sIQ64sI")
_SIDECAR_MAGIC, _SIDECAR_VERSION = b"PPL1COLS", 1
_SIDECAR_DTYPES = {name: np.dtype(dtype).newbyteorder("<")
                   for name, dtype in EVENT_DTYPES.items()}
# A polarization tag the archive may hold: printable ASCII without ','
# (the delimiter) or '"' (read_columns unquotes a field that starts with
# one), so that the CSV path reads every tag back as written.
_TAG = re.compile(r'[ !#-+\--~]+')


def check_tags(tags) -> None:
    """Raise ValidationError unless every tag can be held in an archive."""
    for tag in tags:
        if not _TAG.fullmatch(tag):
            raise ValidationError(
                f"bad polarization_tag {tag!r}: a tag must be non-empty "
                "printable ASCII without ',' or '\"'")


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".cols"


def sha256_file(path) -> str:
    """The sha256 of path's bytes, in hex, read through one reused buffer:
    128 KiB hash as fast as 1 MiB, and it is held beside a stage's chunk
    while consume_level1_archive hashes an archive to check its sidecar's
    key."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 17)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def _caller_cpu():
    """The CPU the calling thread runs on, from /proc/thread-self/stat
    (Linux), or None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            stat = fh.read()
        # field 39, counted after the command name, which may hold spaces
        return int(stat.rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _start_on_own_cpu(slots, caller_cpu=None) -> None:
    """Pool initializer: move the new worker thread to the next CPU the
    process may use, then give it back the whole set.  Slots are counted
    from the CPU after `caller_cpu`, the pool's creator's, where it is one
    of them, so the first worker starts beside its caller, not on it.

    Some kernels leave a pool's new threads on the CPU that spawned them and
    do not rebalance while they run: two null-mc seeds then take turns on
    one core, as slow as one thread, while the other core idles.  Only
    where the worker starts is chosen; the scheduler may still move it
    later.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = sorted(os.sched_getaffinity(0))
        if len(allowed) > 1:
            slot = next(slots)
            if caller_cpu in allowed:
                slot += allowed.index(caller_cpu) + 1
            os.sched_setaffinity(0, {allowed[slot % len(allowed)]})
            os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def thread_pool(threads: int):
    """A pool of `threads` workers, each started on its own CPU, the first
    on the CPU after the caller's: null-mc's seed pool, the frame store's
    two-thread (de)compression pool, the level-1 archive's writer thread,
    and the thread that checks a sidecar's key as a stage reads it
    (consume_level1_archive)."""
    # imported here: imported with this module, it raised the peak RSS of
    # stages that start no pool (tune-tau's by 0.4 MB)
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=threads,
                              initializer=_start_on_own_cpu,
                              initargs=(itertools.count(), _caller_cpu()))


def write_level1_archive(path, events) -> None:
    """Write events as a level-1 archive CSV (schema version 1), and its
    column sidecar when every tag of the events is used.

    `events` is an EventTable or an EventStream; a stream's parts, such as
    the sampler's pair chunks, are written in turn as they are made, so
    the writer holds one part plus two grids of rows, and a part whose
    tags are not the stream's raises ValueError, as does a row count other
    than the stream declared.
    Fixed formats (utc to ms, rf to 0.1 Hz, SNR/phase/RA to 6 significant
    digits) make the file a function of the data alone.  Every tag of the
    events (a table's or a stream's tags, used or not) must be non-empty
    printable ASCII without ',' or '"'; else ValidationError is raised
    before any file is opened.  The sidecar, <path>.cols, holds the
    columns and tags that parsing the CSV text gives back, keyed to the
    text's sha256 (see read_level1_archive).  The text's tags are the tags
    in use, so when some tag has no event no sidecar is kept (and an old
    one is removed): the archive is then read from its text.
    Both are written in one pass to temporary files beside them.  The
    calling thread makes the parts and lays out each grid (_lay_out), its
    tags gathered by pol_code; one writer thread does all file work in
    order, one task a grid, a grid behind the caller across parts: the
    grid's text (_compact) to the CSV and the sha256, and its rows'
    read-back float and int columns to their offsets in the sidecar.  The
    header carrying the digest goes in last.  Only once
    every row is written do they replace the old files, so a write that
    raises on either thread leaves the old archive and sidecar as they
    were; the writer thread has ended when this returns or raises.
    """
    stream = (events if isinstance(events, EventStream)
              else EventStream(events.tags, len(events), iter([events])))
    tags = list(stream.tags)
    check_tags(tags)
    n = len(stream)
    used = np.zeros(len(tags), dtype=bool)
    floats = [name for name, c in ARCHIVE_COLUMNS.items() if c[-1] in "fg"]
    text = "\n".join(tags).encode()
    offset = {name: _SIDECAR.size + len(text) + 8 * n * i
              for i, name in enumerate(EVENT_COLUMNS)}
    sha256 = hashlib.sha256()
    sidecar = _sidecar_path(path)
    tmp, side_tmp = (f"{name}.{os.getpid()}.tmp"
                     for name in (os.fspath(path), sidecar))

    def put(start: int, columns: dict) -> None:
        for name, column in columns.items():
            side.seek(offset[name] + 8 * start)
            side.write(np.ascontiguousarray(column, _SIDECAR_DTYPES[name]))

    def add(rows: bytes) -> None:
        fh.write(rows)
        sha256.update(rows)

    def write(start: int, grid, flagged, columns: dict) -> None:
        for rows in _compact(_ARCHIVE_ROW, grid, flagged):
            add(rows)
        put(start, columns)

    try:
        # the pool's with nested in the files': a raise on either thread
        # joins the writer before the files close
        with (open(side_tmp, "w+b") as side, open(tmp, "wb") as fh,
              thread_pool(1) as writer):
            task = writer.submit(
                add, (",".join(ARCHIVE_COLUMNS) + "\n").encode())
            start = 0
            for part in stream:
                if part.tags != stream.tags:
                    raise ValueError(
                        f"write_level1_archive: a part has the tags "
                        f"{part.tags!r}, the stream {stream.tags!r}")
                used[part.pol_code] = True
                ints = {name: getattr(part, name)
                        for name in ("frame_index", "bin_index", "pol_code")}
                chunks = _chunks(_ARCHIVE_ROW, [
                    _Coded(part.pol_code, part.tags)
                    if name == "polarization_tag" else getattr(part, name)
                    for name in list(ARCHIVE_COLUMNS)[1:]], read_back=True)
                # the next part is made only once this one is dropped
                del part
                lo = 0
                for grid, flagged, backs in chunks:
                    hi = lo + len(grid)
                    columns = dict(zip(floats, backs)) | {
                        name: column[lo:hi] for name, column in ints.items()}
                    task.result()
                    task = writer.submit(write, start, grid, flagged, columns)
                    start += hi - lo
                    lo = hi
                    # held by the task alone, so freed once written
                    del grid, flagged, backs, columns
                del ints, chunks
            task.result()
            if start != n:
                raise ValueError(f"write_level1_archive: the stream declared "
                                 f"{n} rows and made {start}")
            side.seek(0)
            side.write(_SIDECAR.pack(_SIDECAR_MAGIC, _SIDECAR_VERSION, n,
                                     sha256.hexdigest().encode(),
                                     len(text)) + text)
        os.replace(tmp, path)
        if used.all():
            os.replace(side_tmp, sidecar)
        else:
            os.remove(side_tmp)
            with contextlib.suppress(FileNotFoundError):
                os.remove(sidecar)
    except BaseException:
        for name in (tmp, side_tmp):
            with contextlib.suppress(OSError):
                os.remove(name)
        raise


def _open_sidecar(path):
    """(file, rows, tags, key) of path's sidecar, the file open at its
    first column, or None unless the sidecar is in this format and holds as
    many column bytes as its row count needs.  These checks read the
    sidecar alone: key, the sha256 (hex, as bytes) of the archive the
    sidecar was written with, is for consume_level1_archive to compare
    with sha256_file(path), hashed while a stage reads the columns, before
    it keeps anything computed from them."""
    try:
        fh = open(_sidecar_path(path), "rb")
    except OSError:
        return None
    try:
        magic, version, rows, key, size = _SIDECAR.unpack(
            fh.read(_SIDECAR.size))
        text = fh.read(size)
        if ((magic, version) == (_SIDECAR_MAGIC, _SIDECAR_VERSION)
                and len(text) == size
                and os.fstat(fh.fileno()).st_size
                == fh.tell() + 8 * len(EVENT_COLUMNS) * rows):
            return (fh, rows, text.decode("ascii").split("\n") if text else [],
                    key)
    except (OSError, ValueError, struct.error):
        pass
    fh.close()
    return None


_DTYPES = {"d": np.int64, "f": np.float64, "g": np.float64, "s": object}


def read_columns(path, columns: dict) -> dict:
    """Read a CSV such as write_csv writes: one array per column.

    `columns` declares it, as for write_csv: a %d column is read as int64,
    %f and %g as float64, and %s as an object array of str.  np.loadtxt
    parses the body in one pass: fields may be quoted with '"', blank
    lines are skipped, and a number must be an ASCII numeral without '_'.
    A leading UTF-8 byte-order mark is dropped.  A schema_version column
    must hold ARCHIVE_SCHEMA_VERSION.  A file that breaks a rule raises
    ArchiveFormatError naming it, with the number of the first bad line
    where _raise_at_bad_line finds one; so does a file that is not UTF-8
    text.
    """
    dtype = [(name, _DTYPES[conv[-1]]) for name, conv in columns.items()]
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise ArchiveFormatError(f"{path}: empty file") from None
            if header != list(columns):
                raise ArchiveFormatError(f"{path}: bad header {header!r}")
            try:
                with warnings.catch_warnings():
                    # a header alone warns, and gives zero-length columns
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", comments=None,
                                      ndmin=1, quotechar='"', dtype=dtype)
            except ValueError as exc:
                _raise_at_bad_line(path, columns, str(exc))
    except UnicodeDecodeError as exc:
        raise ArchiveFormatError(
            f"{path}: not UTF-8 text: {exc.reason}") from None
    cols = {name: np.ascontiguousarray(data[name]) for name in columns}
    del data
    if np.any(cols.get("schema_version", ARCHIVE_SCHEMA_VERSION)
              != ARCHIVE_SCHEMA_VERSION):
        _raise_at_bad_line(path, columns, "unsupported schema_version")
    return cols


def _raise_at_bad_line(path, columns: dict, error: str) -> NoReturn:
    """Raise ArchiveFormatError for the first line of path's body that
    read_columns rejects, walked row by row with the csv module: a wrong
    column count, a value that is no int64 or float numeral, or an unknown
    schema_version.  With no such line, raise `error` without a line."""
    kinds = [_DTYPES[conv[-1]] for conv in columns.values()]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            # the last line of the row: a quoted field may hold a newline
            line_no = reader.line_num
            if not row:
                continue
            if len(row) != len(kinds):
                raise ArchiveFormatError(
                    f"expected {len(kinds)} columns, got {len(row)}", line_no,
                    path)
            try:
                row = [_value(kind, text) for kind, text in zip(kinds, row)]
            except (ValueError, OverflowError) as exc:
                raise ArchiveFormatError(f"bad value: {exc}", line_no,
                                         path) from None
            version = dict(zip(columns, row)).get("schema_version",
                                                  ARCHIVE_SCHEMA_VERSION)
            if version != ARCHIVE_SCHEMA_VERSION:
                raise ArchiveFormatError(
                    f"unsupported schema_version {version}", line_no, path)
    raise ArchiveFormatError(f"{path}: {error}")


def _value(kind, text: str):
    """text as a value of kind, a _DTYPES dtype, by np.loadtxt's rules: a
    number is an ASCII numeral without '_', and an int fits int64."""
    if kind is not object and (not text.isascii() or "_" in text):
        raise ValueError(f"not an ASCII numeral without '_': {text!r}")
    return text if kind is object else kind(text)


def read_level1_archive(path, transit_of=None, pairing_window_frames=None,
                        *, sidecar) -> Iterator[EventTable]:
    """Yield a level-1 archive's events one pair chunk at a time, as
    chunk_events(events, transit_of, pairing_window_frames) cuts them; it
    writes no file.  consume_level1_archive is the one caller, and checks
    the sidecar's key.

    `sidecar` is the _open_sidecar tuple of the archive's sidecar, held
    open by the caller, or None to read the text.  From a sidecar,
    _chunk_cuts finds the cuts in one pass over its utc_s and frame_index
    columns, and each chunk's rows are read as they are asked for, so a
    consumer that drops each table before the next holds one pair chunk.
    From the text, the events are read whole by read_columns, which
    validates the header, width and every value; the tags it reads as str
    objects are coded into pol_code.  A table read whole, as is a
    sidecar's whose rows step back, is sorted and cut by chunk_events.  An
    archive without rows yields one empty table.
    """
    if sidecar is None:
        yield from chunk_events(_parse_level1_archive(path), transit_of,
                                pairing_window_frames)
        return
    fh, rows, tags, _ = sidecar
    start = fh.tell()

    def read(name: str, lo: int, out: np.ndarray) -> np.ndarray:
        # rows lo.. of column `name`, into out
        fh.seek(start + 8 * (EVENT_COLUMNS.index(name) * rows + lo))
        if fh.readinto(out) != out.nbytes:
            raise ArchiveFormatError(f"{path}: its sidecar was cut short")
        return out

    def table(lo: int, hi: int) -> EventTable:
        # a function, so that no name here holds a table that the
        # consumer dropped while the next one is read
        columns = empty_event_columns(hi - lo)
        return EventTable(tags=tags, **{
            name: read(name, lo, col) for name, col in columns.items()})

    cuts = _chunk_cuts(
        None if transit_of is None else lambda lo, hi: transit_of(
            read("utc_s", lo, np.empty(hi - lo))),
        lambda lo, hi: read("frame_index", lo, np.empty(hi - lo, np.int64)),
        rows, pairing_window_frames)
    if cuts is None:
        yield from chunk_events(table(0, rows), transit_of,
                                pairing_window_frames)
        return
    for lo, hi in zip(cuts, cuts[1:]):
        yield table(lo, hi)


def consume_level1_archive(path, consume, transit_of=None,
                           pairing_window_frames=None, outputs=()):
    """consume(chunks): what a stage that takes the chunks of
    read_level1_archive(path, transit_of, pairing_window_frames) returns or
    raises, the one way to read a level-1 archive.

    When _open_sidecar's checks pass, consume takes the sidecar's chunks
    while sha256_file(path) runs on one thread (thread_pool), so the key
    is checked beside the read, not before the first chunk.  When consume
    returns or raises, a key that matches keeps its result or error.  A
    key that does not drops both, removes `outputs` (the files consume
    writes) and runs consume once more on the text's chunks, so nothing
    computed from a stale sidecar is returned or left in a file; consume
    must therefore start its outputs afresh on each run.  Without a
    sidecar that passes the checks, consume takes the text's chunks
    alone.  The thread has ended and the sidecar is closed when this
    returns or raises.
    """
    sidecar = _open_sidecar(path)
    if sidecar is not None:
        with sidecar[0], thread_pool(1) as hasher:
            key = hasher.submit(sha256_file, path)
            try:
                result = consume(read_level1_archive(
                    path, transit_of, pairing_window_frames, sidecar=sidecar))
            except Exception:       # stale columns may break it anywhere
                if key.result().encode() == sidecar[3]:
                    raise
            else:
                if key.result().encode() == sidecar[3]:
                    return result
        for name in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
    return consume(read_level1_archive(path, transit_of,
                                       pairing_window_frames, sidecar=None))


def _parse_level1_archive(path) -> EventTable:
    """The events of a level-1 archive's text (read_columns)."""
    cols = read_columns(path, ARCHIVE_COLUMNS)
    del cols["schema_version"]
    tags, code = np.unique(cols.pop("polarization_tag").astype(str),
                           return_inverse=True)
    return EventTable(tags=tags.tolist(), pol_code=code, **cols)
