"""pulsepair: desk-scale simulator and analysis chain for interferometric
pulse-pair searches.

A two-element east-west interferometer observes in drift-scan mode.  Each
element's voltage stream is channelized into 0.27 s FFT frames; bins whose
power clears an SNR threshold on BOTH elements become pulse events, events
are paired within narrow time windows, and pairs are kept only when the
inter-element differential phase is consistent with a pure instrument delay.
Surviving candidates are binned in pointing right ascension and tested
against a uniform-arrival binomial model.

Modules
-------
channelizer   FFT framing, segment-relative SNR, phase extraction
pairdetect    first-level filtering, pairing, the level-1 archive, CSV I/O
phasefilter   differential-phase metric and second-level filtering
sigsim        synthetic observations (time, per-bin, and event-level paths)
skystats      RA-binned binomial statistics and false-alarm checks
calib         pointing/timing, drift-scan fits, instrument-delay calibration
plotting      deterministic SVG figures
pipeline      manifests, staged experiment runner
cli           command line front end
"""

from .errors import ArchiveFormatError, StageError, UsageError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "ArchiveFormatError",
    "StageError",
    "UsageError",
    "ValidationError",
    "__version__",
]
