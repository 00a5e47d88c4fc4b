"""Photon-counting statistics at the output of a displacement-based BPSK receiver.

The detected beam is an equal-weight mixture of two Poisson components whose
means ``nu+- = a^2 + b^2 +- 2ab*cos(phi)`` carry the whole dependence on the
signal/LO relative phase ``phi``.  This module provides the mixture pmf and
its average over uniform phase noise of width ``gamma`` (one constructor,
:func:`photon_pmf`, for every ``gamma``), the analytic phi derivative,
photon-number moments (Fano factor) and the Bhattacharyya fidelity between
distributions.  One rule gives the two means, for the tables here and for
the record sampler, and the pmf and its phi derivative both come from the
same rows of the two Poisson components: the pmf is their half-sum, and the
derivative follows from the shift identity d Pois(n; nu)/d nu = Pois(n-1;
nu) - Pois(n; nu), exact also at nu = 0.

All operations are pure functions of their inputs and share no state, so they
are safe to call from concurrent contexts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

__all__ = [
    "DetectorPlaneAmplitudes",
    "PhotonPmf",
    "nu_plus_minus",
    "default_cutoff",
    "photon_pmf",
    "photon_pmf_dphi",
    "pmf_columns",
    "pmf_table",
    "dphi_table",
    "fano_factor",
    "pmf_fidelity",
    "GL_NODES",
    "MAX_MEAN_PHOTONS",
]

# Fewest Gauss-Legendre nodes for the phase-noise average.  The integrand is
# entire in the noise variable, so convergence is spectral, but its width in
# phase shrinks like 1/sqrt(ab): _tabulate takes max(GL_NODES,
# ceil(5 gamma sqrt(ab))) nodes, which keep full-circle-noise rows within 1e-13
# of each other in total variation up to a = b = 20.  The floor alone applies
# wherever 5 gamma sqrt(ab) <= 64, as at a = b = sqrt(2) for every gamma.
GL_NODES = 64

# Widest phase-noise window the model accepts (full phase randomization).
GAMMA_MAX = 2.0 * math.pi

# Largest component mean (a + b)^2 the model accepts: a = b = 20, the
# brightest regime the sampler is tested in.  Cutoffs, tables and the
# sequential-search sampler all grow with this mean.
MAX_MEAN_PHOTONS = 1600.0


@cache
def _ln_factorial() -> np.ndarray:
    """ln n! for n = 0..2170, the largest count a draw returns at
    MAX_MEAN_PHOTONS: scipy.special.gammaln(n + 1) bit for bit, read once
    from raw little-endian float64 package data (tests/test_photonstats.py
    pins it and holds the recipe to rebuild it).  Read-only."""
    table = np.fromfile(Path(__file__).with_name("ln_factorial.f64"), dtype="<f8")
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class DetectorPlaneAmplitudes:
    """LO and signal amplitudes at the detector plane, in sqrt(photons).

    ``a`` is the displacement contributed by the local oscillator and ``b``
    the transmitted signal amplitude; both are nonnegative reals.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"amplitude {name} must be a finite real, got {v!r}")
            if v < 0:
                raise ValueError(f"amplitude {name} must be nonnegative, got {v!r}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    @property
    def mean_photons(self) -> float:
        """Phase-averaged mean photon number a^2 + b^2."""
        return self.a * self.a + self.b * self.b


@dataclass(frozen=True)
class PhotonPmf:
    """Truncated photon-number distribution with an analytic tail bound.

    ``probs[n]`` is the probability of detecting ``n`` photons for
    ``n = 0..n_max``; ``tail_bound`` is an upper bound on the probability mass
    above ``n_max``.  Constructors in this module choose ``n_max`` so that
    ``tail_bound <= 1e-12``.
    """

    probs: np.ndarray
    n_max: int
    tail_bound: float

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size != self.n_max + 1:
            raise ValueError("probs must be a 1-D array of length n_max + 1")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("pmf entries must be finite and nonnegative")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")
        total = float(probs.sum())
        if total > 1.0 + 1e-12 or total + self.tail_bound < 1.0 - 1e-12:
            raise ValueError(
                f"pmf mass violates normalization: sum={total!r}, tail_bound={self.tail_bound!r}"
            )

    @classmethod
    def from_counts(cls, counts) -> "PhotonPmf":
        """Empirical photon-number histogram normalized to unit mass."""
        counts = np.asarray(counts)
        if counts.size == 0:
            raise ValueError("cannot build an empirical pmf from an empty sample")
        occ = np.bincount(counts)
        return cls(probs=occ / counts.size, n_max=occ.size - 1, tail_bound=0.0)

    def mean(self) -> float:
        n = np.arange(self.probs.size)
        return float(np.dot(n, self.probs))


def nu_plus_minus(amps: DetectorPlaneAmplitudes, phi: float) -> tuple[float, float]:
    """Mean photon numbers (nu+, nu-) of the two Poisson components.

    nu+- = a^2 + b^2 +- 2ab*cos(phi); both are >= 0 since (a -+ b)^2 >= 0.
    The rule of :func:`_means` on ``math.cos``, as Python floats.
    """
    nu_p, nu_m = _means(amps.a, amps.b, math.cos(phi))
    return float(nu_p), float(nu_m)


def default_cutoff(amps: DetectorPlaneAmplitudes) -> int:
    """Photon-number cutoff with Poisson tail mass below 1e-12.

    n_max = ceil(nu_max + 12*sqrt(nu_max + 1) + 25) with nu_max = (a + b)^2,
    the largest component mean over all phases.  Closed-form and conservative
    for the mean photon numbers (< ~10) this model runs at.  Raises
    ``ValueError`` when nu_max exceeds :data:`MAX_MEAN_PHOTONS`.
    """
    if amps.a + amps.b > math.sqrt(MAX_MEAN_PHOTONS):
        raise ValueError(
            f"largest mean photon number (a + b)^2 exceeds {MAX_MEAN_PHOTONS:g} "
            f"(a={amps.a!r}, b={amps.b!r})"
        )
    nu_max = (amps.a + amps.b) ** 2
    return int(math.ceil(nu_max + 12.0 * math.sqrt(nu_max + 1.0) + 25.0))


def _log_poisson_rows(nu: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Log Poisson pmf at the photon numbers ``n`` for each mean in ``nu``.

    Broadcasts ``nu`` (shape S) against the nonnegative integers ``n``
    (shape N), returning shape S + N.  A zero mean is a point mass at n = 0.
    ln n! comes from the committed table :func:`_ln_factorial`, which holds
    scipy's ``gammaln(n + 1)`` for every count a draw can return; only when
    some n lies beyond it is ``scipy.special.gammaln`` imported and called.
    """
    nu = np.asarray(nu, dtype=float)[..., None]
    table = _ln_factorial()
    if n.size and n.max() >= table.size:
        from scipy.special import gammaln

        ln_fact = gammaln(n + 1.0)
    else:
        ln_fact = table[n]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = n * np.log(nu) - nu - ln_fact
    zero = nu == 0.0
    if np.any(zero):
        out = np.where(zero, np.where(n == 0, 0.0, -np.inf), out)
    return out


def _means(a: float, b: float, cos) -> tuple[np.ndarray, np.ndarray]:
    """The component means (nu+, nu-) = a^2 + b^2 +- 2ab*cos(phi) for cos(phi),
    a float or an array, clipped at 0: rounding can push nu- a hair below zero
    when a == b and phi ~ 0."""
    s = a * a + b * b
    x = 2.0 * a * b * cos
    return np.maximum(s + x, 0.0), np.maximum(s - x, 0.0)


def _component_rows(a: float, b: float, phis: np.ndarray, n: np.ndarray):
    """Poisson rows Pois(n; nu+) and Pois(n; nu-) at every phase in ``phis``,
    two fresh arrays, exponentiated in place."""
    plus, minus = (_log_poisson_rows(nu, n) for nu in _means(a, b, np.cos(phis)))
    return np.exp(plus, out=plus), np.exp(minus, out=minus)


def _pmf_rows(a: float, b: float, phis: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Rows of p_n: the half-sum of the component rows, in place."""
    plus, minus = _component_rows(a, b, phis, n)
    plus += minus
    plus *= 0.5
    return plus


def _dphi_rows(a: float, b: float, phis: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Rows of d p_n / d phi over n = 0..n_max (``n`` must be that range).

    d Pois(n; nu)/d nu = Pois(n-1; nu) - Pois(n; nu) with Pois(-1) = 0, exact
    also at nu = 0, and d nu+-/d phi = -+ 2ab sin(phi), so d p_n / d phi =
    ab sin(phi) (D_{n-1} - D_n) with D_n = Pois(n; nu-) - Pois(n; nu+): each
    column less its left neighbour, written into the spent plus rows.
    """
    plus, minus = _component_rows(a, b, phis, n)
    minus -= plus
    np.negative(minus[:, 0], out=plus[:, 0])
    np.subtract(minus[:, :-1], minus[:, 1:], out=plus[:, 1:])
    plus *= (a * b * np.sin(phis))[:, None]
    return plus


def _check_gamma(gamma: float) -> float:
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma)):
        raise ValueError(f"noise width gamma must be a finite real, got {gamma!r}")
    if gamma < 0 or gamma > GAMMA_MAX:
        raise ValueError(f"noise width gamma must lie in [0, 2*pi], got {gamma!r}")
    return float(gamma)


def _noise_nodes(amps: DetectorPlaneAmplitudes, gamma: float, gl_nodes: int = GL_NODES) -> int:
    """Gauss-Legendre nodes of the noise average, max(gl_nodes, ceil(5 gamma
    sqrt(ab))) (see :data:`GL_NODES`); 1 at gamma = 0, where nothing is averaged."""
    if gamma == 0.0:
        return 1
    return max(gl_nodes, math.ceil(5.0 * gamma * math.sqrt(amps.a * amps.b)))


def _tabulate(rows_fn, amps: DetectorPlaneAmplitudes, phis, n: np.ndarray, gamma, gl_nodes):
    """``rows_fn`` at every phase in ``phis`` and photon number in ``n``,
    averaged over the noise window by Gauss-Legendre quadrature when gamma > 0,
    on max(gl_nodes, ceil(5 gamma sqrt(ab))) nodes (see :data:`GL_NODES`).

    The shifted phases go in node chunks sized to keep temporaries below
    ~16 MB while still batching the work into few vectorized calls.
    """
    gamma = _check_gamma(gamma)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if gamma == 0.0:
        return rows_fn(amps.a, amps.b, phis, n)
    x, w = np.polynomial.legendre.leggauss(_noise_nodes(amps, gamma, gl_nodes))
    psi, w = 0.5 * gamma * x, 0.5 * w  # a unit-mean average over [-gamma/2, gamma/2]
    out = np.zeros((phis.size, n.size))
    chunk = max(1, int(2_000_000 // max(phis.size * n.size, 1)))
    for start in range(0, psi.size, chunk):
        psi_c = psi[start : start + chunk]
        shifted = (phis[None, :] - psi_c[:, None]).ravel()
        rows = rows_fn(amps.a, amps.b, shifted, n).reshape(psi_c.size, phis.size, n.size)
        out += np.tensordot(w[start : start + chunk], rows, axes=(0, 0))
    return out


def pmf_columns(amps: DetectorPlaneAmplitudes, phis, ns, gamma: float = 0.0) -> np.ndarray:
    """Photon-number pmf p_n for every phase in ``phis`` and photon number in ``ns``.

    Returns an array of shape ``(len(phis), len(ns))``; the cost grows with
    the number of photon numbers asked for, not with their size.  For
    ``gamma > 0`` each entry is the uniform average of the noiseless pmf over
    the window ``[phi - gamma/2, phi + gamma/2]``, evaluated by
    Gauss-Legendre quadrature.
    """
    n = np.atleast_1d(np.asarray(ns))
    if n.ndim != 1 or (n.size and (not np.issubdtype(n.dtype, np.integer) or n.min() < 0)):
        raise ValueError("photon numbers must be a 1-D sequence of nonnegative integers")
    return _tabulate(_pmf_rows, amps, phis, n, gamma, GL_NODES)


# pmf_table and dphi_table keep ``gl_nodes``, the node rule's floor, which no
# caller sets, until the benchmark tracer stops binding it: perfbench/spans.py
# ``table_cells`` reads it to count quadrature cells whenever gamma > 0, so it
# undercounts where the rule takes more nodes (ROADMAP open item 3).
def pmf_table(
    amps: DetectorPlaneAmplitudes,
    phis,
    gamma: float = 0.0,
    n_max: int | None = None,
    gl_nodes: int = GL_NODES,
) -> np.ndarray:
    """Photon-number pmf rows for every phase in ``phis``: :func:`pmf_columns`
    over n = 0..n_max, shape ``(len(phis), n_max + 1)``."""
    nm = default_cutoff(amps) if n_max is None else int(n_max)
    return _tabulate(_pmf_rows, amps, phis, np.arange(nm + 1), gamma, gl_nodes)


def dphi_table(
    amps: DetectorPlaneAmplitudes,
    phis,
    gamma: float = 0.0,
    n_max: int | None = None,
    gl_nodes: int = GL_NODES,
) -> np.ndarray:
    """Rows of d p_n / d phi for every phase in ``phis`` (shape like ``pmf_table``).

    For ``gamma > 0`` the derivative is taken under the noise average, which
    commutes with it because the noise window does not depend on phi.
    """
    nm = default_cutoff(amps) if n_max is None else int(n_max)
    return _tabulate(_dphi_rows, amps, phis, np.arange(nm + 1), gamma, gl_nodes)


def photon_pmf(
    amps: DetectorPlaneAmplitudes,
    phi: float,
    gamma: float = 0.0,
    n_max: int | None = None,
) -> PhotonPmf:
    """Photon-number distribution p_n = (e^-nu+ nu+^n/n! + e^-nu- nu-^n/n!)/2,
    averaged over uniform phase noise of width ``gamma``.

    For ``gamma > 0``, p_n(a, b, phi, gamma) = (1/gamma) * integral over psi in
    [-gamma/2, gamma/2] of p_n(a, b, phi - psi).  Evaluated in log space; the
    cutoff policy keeps the neglected tail below 1e-12.  The tail bound is
    exact for the two means at ``gamma = 0``, and otherwise uses the
    worst-case component mean (a + b)^2, which dominates every mean in the
    noise window.  It is ``scipy.special.pdtrc``, imported on the first call,
    so importing the package loads no scipy.
    """
    from scipy.special import pdtrc

    gamma = _check_gamma(gamma)
    nm = default_cutoff(amps) if n_max is None else int(n_max)
    probs = pmf_table(amps, [phi], gamma, n_max=nm)[0]
    if gamma == 0.0:
        nu_p, nu_m = nu_plus_minus(amps, phi)
        tail = float(0.5 * (pdtrc(nm, nu_p) + pdtrc(nm, nu_m)))
    else:
        tail = float(pdtrc(nm, (amps.a + amps.b) ** 2))
    return PhotonPmf(probs=probs, n_max=nm, tail_bound=tail)


def photon_pmf_dphi(
    amps: DetectorPlaneAmplitudes,
    phi: float,
    gamma: float = 0.0,
    n_max: int | None = None,
) -> np.ndarray:
    """Derivative d p_n / d phi for n = 0..n_max (analytic, not finite-differenced)."""
    return dphi_table(amps, [phi], gamma, n_max=n_max)[0]


def _fano_terms(amps: DetectorPlaneAmplitudes, gamma: float) -> tuple[float, float]:
    """The noise weight k = sin(gamma)/gamma (1 without noise) and the scale
    4 a^2 b^2 of the phase term of F = 1 + 4a^2b^2 [(1 - k)/2 + k cos^2(phi)]/(a^2 + b^2)."""
    gamma = _check_gamma(gamma)
    return (math.sin(gamma) / gamma if gamma > 0.0 else 1.0), 4.0 * amps.a**2 * amps.b**2


def fano_factor(amps: DetectorPlaneAmplitudes, phi: float, gamma: float = 0.0) -> float:
    """Variance-to-mean ratio of the detected photon number, in closed form.

    The mixture moments give F = 1 + 4 a^2 b^2 E[cos^2(phi - psi)] / (a^2 + b^2)
    over the noise offset psi, uniform on [-gamma/2, gamma/2]: E[cos^2(phi -
    psi)] = (1 - k)/2 + k cos^2(phi) with k = sin(gamma)/gamma, and k = 1
    without noise (see :func:`_fano_terms`).  Requires a^2 + b^2 > 0.
    """
    k, scale = _fano_terms(amps, gamma)
    energy = amps.mean_photons
    if energy <= 0.0:
        raise ValueError("Fano factor undefined at zero mean photon number (a = b = 0)")
    c = math.cos(phi)
    return 1.0 + scale * (0.5 * (1.0 - k) + k * c * c) / energy


def pmf_fidelity(p: PhotonPmf, q: PhotonPmf) -> float:
    """Bhattacharyya fidelity sum_n sqrt(p_n q_n); the shorter pmf is zero-padded."""
    size = max(p.probs.size, q.probs.size)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: p.probs.size] = p.probs
    qq[: q.probs.size] = q.probs
    return float(np.sqrt(pp * qq).sum())
