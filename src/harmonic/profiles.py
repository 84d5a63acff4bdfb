"""Smooth compactly supported radial test profiles with exact derivatives.

Transform and PDE checks all start from functions in this module: having
closed-form first and second derivatives avoids finite differencing when a
check needs Δf = f'' + (θ'/θ) f' pointwise.

Two families:

* `smooth_bump` is the classical exactly-supported mollifier
  exp(1 - 1/(1 - (r/R)²)); its cosine/Fourier data decays like
  exp(-c sqrt(λ)), adequate for 1e-5 .. 1e-6 targets.
* `gauss_bump` / `annulus_bump` are truncated Gaussians whose boundary value
  is below 1e-12 of the peak; numerically they are compactly supported and
  their transforms decay like a Gaussian, which is what the 1e-8-level
  Paley-Wiener and oracle comparisons need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class RadialProfile:
    """A radial test function with analytic derivatives, supported in [0, R]."""

    label: str
    support: float
    f: Callable
    df: Callable
    d2f: Callable

    def __call__(self, r):
        return self.f(r)

    def laplacian(self, model):
        """Δf = f'' + (θ'/θ) f' as a callable; at r = 0 this is (n+1) f''(0)."""
        n = model.n

        def lap(r):
            r = np.asarray(r, dtype=float)
            scalar = r.ndim == 0
            r = np.atleast_1d(r)
            out = np.empty_like(r)
            pos = r > 1e-12
            out[pos] = self.d2f(r[pos]) + model.dlog_theta(r[pos]) * self.df(r[pos])
            if np.any(~pos):
                out[~pos] = (n + 1) * self.d2f(r[~pos])
            return float(out[0]) if scalar else out
        return lap


def _masked(support, fn, odd=False):
    """fn on [0, support), zero beyond; extended to r < 0 as an even
    function, or as an odd one for the first derivative of a radial profile."""
    def g(r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        a = np.abs(r)
        out = np.zeros_like(a)
        inside = a < support
        if np.any(inside):
            out[inside] = fn(a[inside])
        if odd:
            np.negative(out, out=out, where=r < 0)
        return float(out[0]) if scalar else out
    return g


def smooth_bump(R=1.0):
    """exp(1 - 1/(1 - (r/R)^2)) on [0, R); identically zero outside."""
    R = float(R)

    def core(r):
        u = (r / R) ** 2
        chi = 1.0 / (1.0 - u)
        return np.exp(1.0 - chi)

    def dcore(r):
        u = (r / R) ** 2
        chi = 1.0 / (1.0 - u)
        dchi = 2.0 * r / R**2 * chi**2
        return -dchi * core(r)

    def d2core(r):
        u = (r / R) ** 2
        chi = 1.0 / (1.0 - u)
        dchi = 2.0 * r / R**2 * chi**2
        d2chi = 2.0 / R**2 * chi**2 + 8.0 * r**2 / R**4 * chi**3
        return (dchi**2 - d2chi) * core(r)

    return RadialProfile(label=f"bump(R={R:g})", support=R,
                         f=_masked(R, core), df=_masked(R, dcore, odd=True),
                         d2f=_masked(R, d2core))


def gauss_bump(width=0.3):
    """Truncated Gaussian exp(-r²/2w²), supported in [0, 7.5 w].

    The cut value exp(-7.5²/2) ≈ 6e-13 is far below every tolerance used
    against these profiles, so the jump at the support edge is invisible.
    """
    w = float(width)
    R = 7.5 * w

    def core(r):
        return np.exp(-r * r / (2 * w * w))

    def dcore(r):
        return -(r / w**2) * core(r)

    def d2core(r):
        return (r * r / w**4 - 1.0 / w**2) * core(r)

    return RadialProfile(label=f"gauss(w={w:g})", support=R,
                         f=_masked(R, core), df=_masked(R, dcore, odd=True),
                         d2f=_masked(R, d2core))


def annulus_bump(center=1.0, width=0.25):
    """Evenized Gaussian ring exp(-(r-c)²/2w²) + exp(-(r+c)²/2w²).

    It is supported in [0, c + 7.5 w].  The mirror term keeps all odd
    derivatives zero at r = 0, so the profile is a genuine smooth radial
    function.
    """
    c, w = float(center), float(width)
    R = c + 7.5 * w

    def pair(r):
        return (np.exp(-(r - c) ** 2 / (2 * w * w)),
                np.exp(-(r + c) ** 2 / (2 * w * w)))

    def core(r):
        a, b = pair(r)
        return a + b

    def dcore(r):
        a, b = pair(r)
        return -((r - c) * a + (r + c) * b) / w**2

    def d2core(r):
        a, b = pair(r)
        return (((r - c) ** 2 / w**2 - 1.0) * a
                + ((r + c) ** 2 / w**2 - 1.0) * b) / w**2

    return RadialProfile(label=f"annulus(c={c:g},w={w:g})", support=R,
                         f=_masked(R, core), df=_masked(R, dcore, odd=True),
                         d2f=_masked(R, d2core))


def standard_suite():
    """Five assorted profiles used by the intertwining and transform batteries."""
    return [
        gauss_bump(0.25),
        gauss_bump(0.4),
        annulus_bump(0.8, 0.2),
        annulus_bump(1.2, 0.3),
        smooth_bump(1.5),
    ]
