"""Deterministic SVG rendering of the RA-binned significance profile.

Hand-rolled SVG with fixed-precision coordinates: the same stats always
produce byte-identical files, which keeps figures under the same
hash-and-resume discipline as every other artifact.  No plotting library is
imported at runtime.
"""

from __future__ import annotations

import math

WIDTH = 800
HEIGHT = 480
MARGIN_L = 70
MARGIN_R = 24
MARGIN_T = 46
MARGIN_B = 56
SIGNIFICANCE_D = 3.5        # the dashed threshold line


def format_prob(p: float) -> str:
    """Probability as compact scientific notation: 2.8e-4, 1.0e-12."""
    if p <= 0:
        return "0"
    mant, exp = f"{p:.1e}".split("e")
    return f"{mant}e{int(exp)}"


def caption_line(peak) -> str:
    """The figure's verdict sentence, built from the peak bin's stats."""
    return (f"Binomial cumulative probability: ({peak.trials_n} trials, "
            f"{peak.expected_mean:.1f} mean, count > mean, at "
            f"{peak.cohens_d:.1f} s.d.) = {format_prob(peak.tail_prob_gt)}")


def _empty_svg(message: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="16" fill="#aa0000">'
        f'warning: {message}</text>\n</svg>\n')


def save_stats_figure(path, stats, fwhm_center_hr: float | None,
                      fwhm_width_hr: float | None, title: str) -> None:
    """Render per-bin Cohen's d vs RA, with optional beam FWHM shading.

    Empty stats render a warning figure rather than failing: a quiet sky is
    a valid result.
    """
    stats = list(stats)
    if not stats:
        with open(path, "w", newline="\n") as fh:
            fh.write(_empty_svg(
                "empty stats; no candidates in the analysis window"))
        return
    x_lo = min(s.ra_low_hr for s in stats)
    x_hi = max(s.ra_high_hr for s in stats)
    d_vals = [s.cohens_d for s in stats]
    y_lo = min(-1.0, math.floor(min(d_vals)) - 0.5)
    y_hi = max(4.5, math.ceil(max(d_vals)) + 0.5)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(ra: float) -> float:
        return MARGIN_L + (ra - x_lo) / (x_hi - x_lo) * plot_w

    def py(d: float) -> float:
        return MARGIN_T + (y_hi - d) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if fwhm_center_hr is not None and fwhm_width_hr is not None:
        lo = max(x_lo, fwhm_center_hr - 0.5 * fwhm_width_hr)
        hi = min(x_hi, fwhm_center_hr + 0.5 * fwhm_width_hr)
        if hi > lo:
            parts.append(
                f'<rect x="{px(lo):.2f}" y="{MARGIN_T}" '
                f'width="{px(hi) - px(lo):.2f}" height="{plot_h}" '
                f'fill="#f5d9a8" fill-opacity="0.6"/>')
    # Horizontal grid at integer d, zero line heavier, threshold dashed.
    d_grid = range(int(math.ceil(y_lo)), int(math.floor(y_hi)) + 1)
    for d in d_grid:
        y = py(d)
        stroke = "#888888" if d == 0 else "#dddddd"
        parts.append(f'<line x1="{MARGIN_L}" y1="{y:.2f}" '
                     f'x2="{WIDTH - MARGIN_R}" y2="{y:.2f}" '
                     f'stroke="{stroke}" stroke-width="1"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-family="monospace" '
                     f'font-size="12" fill="#333333">{d}</text>')
    y_sig = py(SIGNIFICANCE_D)
    parts.append(f'<line x1="{MARGIN_L}" y1="{y_sig:.2f}" '
                 f'x2="{WIDTH - MARGIN_R}" y2="{y_sig:.2f}" '
                 f'stroke="#bb3333" stroke-width="1" '
                 f'stroke-dasharray="6 4"/>')
    parts.append(f'<text x="{WIDTH - MARGIN_R - 4}" y="{y_sig - 5:.2f}" '
                 f'text-anchor="end" font-family="monospace" font-size="11" '
                 f'fill="#bb3333">d = {SIGNIFICANCE_D:g}</text>')
    # X ticks every 0.5 hr for narrow windows, 1 hr otherwise.
    step = 0.5 if (x_hi - x_lo) <= 8.0 else 1.0
    tick = math.ceil(x_lo / step) * step
    while tick <= x_hi + 1e-9:
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{HEIGHT - MARGIN_B}" '
                     f'x2="{x:.2f}" y2="{HEIGHT - MARGIN_B + 6}" '
                     f'stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 20}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="12" fill="#333333">{tick:g}</text>')
        tick += step
    # Axes.
    parts.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
                 f'y2="{HEIGHT - MARGIN_B}" stroke="#333333" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
                 f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" '
                 f'stroke="#333333" stroke-width="1.5"/>')
    # Data points at bin centers.
    for s in stats:
        parts.append(f'<circle cx="{px(s.center_hr):.2f}" '
                     f'cy="{py(s.cohens_d):.2f}" r="3.5" fill="#1f4e9c"/>')
    parts.append(f'<text x="{MARGIN_L}" y="{MARGIN_T - 18}" '
                 f'font-family="monospace" font-size="15" fill="#111111">'
                 f'{title}</text>')
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle" font-family="monospace" '
                 f'font-size="12" fill="#333333">'
                 f'pointing right ascension (hr)</text>')
    parts.append(f'<text x="16" y="{HEIGHT // 2}" font-family="monospace" '
                 f'font-size="12" fill="#333333" transform="rotate(-90 16 '
                 f'{HEIGHT // 2})" text-anchor="middle">excess (s.d.)</text>')
    peak = max(stats, key=lambda s: s.cohens_d)
    parts.append(f'<text x="{MARGIN_L}" y="{HEIGHT - MARGIN_B + 40}" '
                 f'font-family="monospace" font-size="13" fill="#111111">'
                 f'{caption_line(peak)}</text>')
    parts.append('</svg>')
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
