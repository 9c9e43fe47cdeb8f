"""Self-contained SVG output: eigenvalue histogram with a law overlay."""

from __future__ import annotations

import numpy as np

from .spectra import SpectralLaw

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 60, 20, 30, 45
_BINS = 60


def _xmap(x, lo, hi):
    return _ML + (x - lo) / (hi - lo) * (_W - _ML - _MR)


def _ymap(y, top):
    return _H - _MB - y / top * (_H - _MT - _MB)


def _fmt(v: float) -> str:
    return "%.6g" % v


def svg_histogram_overlay(
    eigs: np.ndarray | None,
    law: SpectralLaw,
    title: str = "",
) -> str:
    """SVG text: histogram bars for the eigenvalues (none when ``eigs`` is None) plus the law density polyline.

    A point mass at zero is drawn as a vertical marker whose height is the
    atom mass (in density units of one histogram bin); without bars it has
    no bin to be read against, so it is cut at the density's peak.
    """
    lo, hi = 0.0, float(law.grid[-1])
    if eigs is not None:
        eigs = np.asarray(eigs, dtype=np.float64).ravel()
        lo, hi = min(float(eigs.min()), lo), max(float(eigs.max()), hi)
    hi = hi if hi > lo else lo + 1.0
    edges = np.linspace(lo, hi, _BINS + 1)
    counts = np.zeros(_BINS) if eigs is None else np.histogram(eigs, bins=edges, density=True)[0]
    atom_height = law.atom0_mass / (edges[1] - edges[0])
    peak = max(float(counts.max()), float(law.density.max()), 0.0 if eigs is None else atom_height)
    top = 1.08 * peak
    atom_y = _ymap(min(atom_height, peak), top)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">' % (_W, _H, _W, _H),
        '<rect width="%d" height="%d" fill="white"/>' % (_W, _H),
    ]
    if title:
        parts.append('<text x="%d" y="20" font-size="14" font-family="sans-serif">%s</text>' % (_ML, title))
    for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
        if c <= 0:
            continue
        x0, x1 = _xmap(e0, lo, hi), _xmap(e1, lo, hi)
        y = _ymap(c, top)
        parts.append(
            '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#9ecae1" stroke="#6baed6" stroke-width="0.5"/>'
            % (x0, y, x1 - x0, _H - _MB - y)
        )
    pts = " ".join(
        "%.2f,%.2f" % (_xmap(x, lo, hi), _ymap(min(dv, top), top))
        for x, dv in zip(law.grid, law.density)
    )
    parts.append('<polyline points="%s" fill="none" stroke="#d62728" stroke-width="1.8"/>' % pts)
    if law.atom0_mass > 0:
        x0 = _xmap(0.0, lo, hi)
        parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#2ca02c" stroke-width="3"/>'
            % (x0, _ymap(0.0, top), x0, atom_y)
        )
        parts.append(
            '<text x="%.2f" y="%.2f" font-size="11" font-family="sans-serif" fill="#2ca02c">atom %.3g</text>'
            % (x0 + 4, atom_y - 4, law.atom0_mass)
        )
    # Axes with a few ticks.
    parts.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (_ML, _H - _MB, _W - _MR, _H - _MB)
    )
    parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (_ML, _MT, _ML, _H - _MB))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = lo + frac * (hi - lo)
        xp = _xmap(xv, lo, hi)
        parts.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="black"/>' % (xp, _H - _MB, xp, _H - _MB + 5))
        parts.append(
            '<text x="%.2f" y="%d" font-size="11" font-family="sans-serif" text-anchor="middle">%s</text>'
            % (xp, _H - _MB + 18, _fmt(xv))
        )
        yv = frac * top
        yp = _ymap(yv, top)
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="black"/>' % (_ML - 5, yp, _ML, yp))
        parts.append(
            '<text x="%d" y="%.2f" font-size="11" font-family="sans-serif" text-anchor="end">%s</text>'
            % (_ML - 8, yp + 4, _fmt(yv))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
