"""Photon-counting statistics at the output of a displacement-based BPSK receiver.

The detected beam is an equal-weight mixture of two Poisson components whose
means ``nu+- = a^2 + b^2 +- 2ab*cos(phi)`` carry the whole dependence on the
signal/LO relative phase ``phi``.  This module provides the mixture pmf and
its average over uniform phase noise of width ``gamma`` (one constructor,
:func:`photon_pmf`, for every ``gamma``), the analytic phi derivative,
photon-number moments (Fano factor) and the Bhattacharyya fidelity between
distributions.  One rule gives the two means, for the tables here and for
the record sampler.  One log-space tabulator gives ln p_n, finite for every
count the model allows, and its phi derivative d ln p_n / d phi, by the shift
identity d Pois(n; nu)/d nu = Pois(n-1; nu) - Pois(n; nu) on the same terms;
the pmf and derivative tables are views of it.

All operations are pure functions of their inputs and share no state, so they
are safe to call from concurrent contexts.
"""

from __future__ import annotations

import math
import operator
import reprlib
from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from . import _EXPORTS

__all__ = [*_EXPORTS["photonstats"], "pmf_table", "dphi_table", "GL_NODES", "MAX_MEAN_PHOTONS"]

# Fewest Gauss-Legendre nodes for the phase-noise average.  The integrand is
# entire in the noise variable, so convergence is spectral, but its width in
# phase shrinks like 1/sqrt(ab): _log_tables takes max(GL_NODES,
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

_BLOCK_CELLS = 2_000_000  # cells per block of a blocked loop here or in estimation (16 MB)
_TERM_CELLS = 2**16  # cells per chunk of the photon tabulator (512 kB), which stay in cache


def _real(name: str, value, lo: float = -math.inf, hi: float = math.inf, *,
          array: bool = False) -> float | np.ndarray:
    """A finite Python or numpy real in [lo, hi], not a bool, as a float.  With ``array``,
    ``np.asarray(value)`` of an integer or float dtype, every entry finite and in [lo, hi],
    as a float array of its shape.  Else ValueError naming it: an array where a scalar is
    due, or a bool, string, object or complex array where an array is."""
    if not array:
        if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
            try:
                if math.isfinite(x := float(value)) and lo <= x <= hi:
                    return x
            except OverflowError:  # an integer beyond the largest double
                pass
    elif (x := _asarray(value)).dtype.kind in "iuf":
        x = x.astype(float, copy=False)
        if np.isfinite(x).all() and (lo <= x).all() and (x <= hi).all():
            return x
    raise _rule_error(name, value, "finite real", lo, hi, array)


def _whole(name: str, value, lo: int, hi: float = math.inf, *,
           array: bool = False) -> int | np.ndarray:
    """A Python or numpy integer in [lo, hi], not a bool, by ``operator.index``.  With
    ``array``, ``np.asarray(value)`` of an integer dtype, every entry in [lo, hi], or
    empty, as itself.  Else ValueError naming it, as :func:`_real` does."""
    if not array:
        if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                and lo <= (n := operator.index(value)) <= hi):
            return n
    elif (n := _asarray(value)).size == 0 or (
            n.dtype.kind in "iu" and lo <= int(n.min()) and int(n.max()) <= hi):
        return n
    raise _rule_error(name, value, "integer", lo, hi, array)


def _asarray(value) -> np.ndarray:
    """``np.asarray(value)``, or for a ragged nesting one object entry, which no rule admits."""
    try:
        return np.asarray(value)
    except ValueError:
        return np.empty(1, dtype=object)


def _rule_error(name: str, value, noun: str, lo, hi, array: bool) -> ValueError:
    """The ValueError of :func:`_real` and :func:`_whole`: ``name`` must be one ``noun``,
    or ``noun``s for an array of one or more dimensions, in [lo, hi]; long values are
    shortened by ``reprlib``."""
    if lo == 0:
        noun = f"nonnegative {noun}"
    if array and _asarray(value).ndim > 0:
        rule = f"{noun}s"
    elif noun == "integer":
        rule = "an integer"
    else:
        rule = f"a {noun}"
    if lo not in (0, -math.inf):
        rule += f" >= {lo}"
    if hi < math.inf:
        if isinstance(hi, int) and hi > 1 and hi & (hi + 1) == 0:
            hi = f"2**{hi.bit_length()} - 1"  # not the 19 digits of 2**63 - 1
        rule += f", at most {hi}"
    return ValueError(f"{name} must be {rule}, got {reprlib.repr(value)}")


def _cutoff(amps: DetectorPlaneAmplitudes, n_max: int | None) -> int:
    """A table's last photon number: ``n_max``, an integer >= 0, or :func:`default_cutoff`."""
    return default_cutoff(amps) if n_max is None else _whole("n_max", n_max, 0)


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
    the transmitted signal amplitude: finite nonnegative reals, stored as floats.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _real("amplitude a", self.a, 0.0))
        object.__setattr__(self, "b", _real("amplitude b", self.b, 0.0))

    @property
    def mean_photons(self) -> float:
        """Phase-averaged mean photon number a^2 + b^2."""
        return self.a * self.a + self.b * self.b


@dataclass(frozen=True)
class PhotonPmf:
    """Truncated photon-number distribution with an analytic tail bound.

    ``probs[n]`` is the probability of detecting ``n`` photons for
    ``n = 0..n_max``; ``tail_bound`` is an upper bound on the probability mass
    above ``n_max``, a real in [0, 1]: the geometric bound of :func:`photon_pmf`
    for a model, 0 for an empirical pmf.  At its default cutoff
    :func:`photon_pmf` has ``tail_bound <= 1e-12``.
    """

    probs: np.ndarray
    tail_bound: float

    def __post_init__(self) -> None:
        probs = np.array(_real("probs", self.probs, 0.0, array=True))
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1:
            raise ValueError("probs must be a 1-D array")
        object.__setattr__(self, "tail_bound", _real("tail_bound", self.tail_bound, 0.0, 1.0))
        total = float(probs.sum())
        if total > 1.0 + 1e-12 or total + self.tail_bound < 1.0 - 1e-12:
            raise ValueError(
                f"pmf mass violates normalization: sum={total!r}, tail_bound={self.tail_bound!r}"
            )

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    @classmethod
    def from_counts(cls, counts) -> "PhotonPmf":
        """Empirical pmf of a non-empty 1-D sample of nonnegative integer counts."""
        counts = _whole("counts", counts, 0, array=True)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError(f"counts must be a non-empty 1-D sample, got shape {counts.shape}")
        return cls(probs=np.bincount(counts) / counts.size, tail_bound=0.0)

    def mean(self) -> float:
        n = np.arange(self.probs.size)
        return float(np.dot(n, self.probs))


def nu_plus_minus(amps: DetectorPlaneAmplitudes, phi: float) -> tuple[float, float]:
    """Mean photon numbers (nu+, nu-) of the two Poisson components.

    nu+- = a^2 + b^2 +- 2ab*cos(phi); both are >= 0 since (a -+ b)^2 >= 0.
    The rule of :func:`_means` on ``math.cos`` at a finite real ``phi``, as floats.
    """
    nu_p, nu_m = _means(amps.a, amps.b, math.cos(_real("phase phi", phi)))
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


def _ln_n_factorial(n: np.ndarray) -> np.ndarray:
    """ln n! from :func:`_ln_factorial`, and by ``math.lgamma(n + 1)`` for each n beyond it,
    so an entry never depends on the other counts of the call."""
    table = _ln_factorial()
    if not n.size or n.max() < table.size:
        return table[n]
    out = table[np.minimum(n, table.size - 1)]
    beyond = n >= table.size
    out[beyond] = [math.lgamma(k + 1.0) for k in n[beyond].tolist()]
    return out


def _log_poisson_rows(nu: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Log Poisson pmf at the photon numbers ``n`` for each mean in ``nu``.

    Broadcasts ``nu`` (shape S) against the nonnegative integers ``n``
    (shape N), returning shape S + N.  A zero mean is a point mass at n = 0.
    ln n! comes from :func:`_ln_n_factorial`.
    """
    nu = np.asarray(nu, dtype=float)[..., None]
    ln_fact = _ln_n_factorial(n)
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


def _check_gamma(gamma: float) -> float:
    return _real("noise width gamma", gamma, 0.0, GAMMA_MAX)


def _noise_nodes(amps: DetectorPlaneAmplitudes, gamma: float, gl_nodes: int = GL_NODES) -> int:
    """Gauss-Legendre nodes of the noise average, max(gl_nodes, ceil(5 gamma
    sqrt(ab))) (see :data:`GL_NODES`); 1 at gamma = 0, where nothing is averaged."""
    return 1 if gamma == 0.0 else max(gl_nodes, math.ceil(5.0 * gamma * math.sqrt(amps.a * amps.b)))


@lru_cache(maxsize=64)
def _noise_rule(gamma: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The noise average as a unit-mean Gauss-Legendre rule on [-gamma/2, gamma/2]: nodes
    psi and the log of each weight, once per component, as a column; read-only, once per
    (gamma, nodes).  One node (gamma = 0) is psi = 0 of weight 1, without numpy.polynomial."""
    x, w = (np.zeros(1), np.full(1, 2.0)) if nodes == 1 else np.polynomial.legendre.leggauss(nodes)
    rule = 0.5 * gamma * x, np.log(np.tile(0.5 * w, 2))[:, None]
    for array in rule:
        array.setflags(write=False)
    return rule


def _log_tables(amps: DetectorPlaneAmplitudes, phis, n: np.ndarray, gamma, gl_nodes: int = GL_NODES,
                score: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """ln p_n, shape ``(len(phis), len(n))``, and with ``score`` (``n`` = 0..n_max)
    the score s_n = d ln p_n / d phi, else None.  p_n mixes the terms w_k Pois(n;
    nu_k) of both components at each node psi of the noise average (psi = 0 alone
    at gamma = 0), of half its node's weight; cos, nu_k and ln nu_k are taken once
    per (node, phase).  ln p_n is their log-sum-exp, shifted by the largest ln Pois, so it
    is finite wherever the model allows n; shifted terms below e^-700 count as
    e^-700 (under 1e-300 of p_n), which spares ``exp`` its slow underflow path.
    By d Pois(n; nu)/d nu = Pois(n-1; nu) - Pois(n; nu) and d nu+-/d phi = -+ 2ab
    sin(phi - psi), s_n = c_n - c_{n-1} p_{n-1}/p_n with c_n = sum_k w_k (-d nu_k/d
    phi) Pois(n; nu_k) / p_n, a mean over the same shifted terms; p_{n-1}/p_n is
    capped at e^700, reached only by a mean of exactly 0, where p_n < 1e-304."""
    gamma = _check_gamma(gamma)
    phis = np.atleast_1d(_real("phase phi", phis, array=True))
    psi, log_w = _noise_rule(gamma, _noise_nodes(amps, gamma, gl_nodes))
    log_p = np.empty((phis.size, n.size))
    c = np.empty_like(log_p) if score else None
    rows = max(1, _TERM_CELLS // (log_w.size * max(n.size, 1)))
    cols = max(1, _TERM_CELLS // (log_w.size * rows))  # every count, unless one phase is too many
    for i in range(0, phis.size, rows):
        block = slice(i, i + rows)
        theta = phis[block] - psi[:, None]
        nu = np.concatenate(_means(amps.a, amps.b, np.cos(theta)))
        with np.errstate(divide="ignore"):  # ln 0 as -1e250: 0 ln 0 = 0, n ln 0 below any term
            log_nu = np.maximum(np.log(nu), -1e250)[..., None]
        if score:  # -d nu_k/d phi, the weights of c_n
            dnu = np.multiply.outer([2.0, -2.0], amps.a * amps.b * np.sin(theta)).reshape(nu.shape)
        for j in range(0, n.size, cols):
            terms = log_nu * n[j : j + cols]
            terms -= nu[..., None]  # ln Pois(n; nu_k) up to a constant of n
            shift = terms.max(axis=0)
            terms -= shift
            terms += log_w[..., None]  # after the shift, where it rounds least
            np.exp(np.maximum(terms, -700.0, out=terms), out=terms)
            total = terms.sum(axis=0)
            cells = block, slice(j, j + cols)
            if score:
                c[cells] = np.einsum("kpn,kp->pn", terms, dnu) / total
            shift -= _ln_n_factorial(n[j : j + cols])
            log_p[cells] = np.log(0.5 * total) + shift  # each component has half its node's weight
        lp = log_p[block]  # the rows of the block, while they are in cache
        if score:
            c[block, 1:] -= c[block, :-1] * np.exp(np.minimum(lp[:, :-1] - lp[:, 1:], 700.0))
        lp[lp < -1e249] = -np.inf  # every term had nu = 0: the vacuum, which forbids n > 0
    return log_p, c


# pmf_table and dphi_table keep ``gl_nodes``, the node rule's floor, which no
# caller sets, until the benchmark tracer stops binding it: perfbench/spans.py
# ``table_cells`` reads it to count quadrature cells whenever gamma > 0, so it
# undercounts where the rule takes more nodes (ROADMAP open item 3).
def pmf_table(amps: DetectorPlaneAmplitudes, phis, gamma: float = 0.0, n_max: int | None = None,
              gl_nodes: int = GL_NODES) -> np.ndarray:
    """Photon-number pmf p_n for every phase in ``phis`` and n = 0..n_max, shape
    ``(len(phis), n_max + 1)``: exp of the ln p_n of :func:`_log_tables`.  For ``gamma > 0``
    each entry is the uniform average of the noiseless pmf over the window
    ``[phi - gamma/2, phi + gamma/2]``, by Gauss-Legendre quadrature in log space."""
    return np.exp(_log_tables(amps, phis, np.arange(_cutoff(amps, n_max) + 1), gamma, gl_nodes)[0])


def dphi_table(amps: DetectorPlaneAmplitudes, phis, gamma: float = 0.0, n_max: int | None = None,
               gl_nodes: int = GL_NODES) -> np.ndarray:
    """Rows of d p_n / d phi for every phase in ``phis`` (shape like ``pmf_table``):
    p_n times the score of :func:`_log_tables`.

    For ``gamma > 0`` the derivative is taken under the noise average, which
    commutes with it because the noise window does not depend on phi.
    """
    n = np.arange(_cutoff(amps, n_max) + 1)
    log_p, score = _log_tables(amps, phis, n, gamma, gl_nodes, score=True)
    return np.multiply(score, np.exp(log_p, out=log_p), out=score)


def photon_pmf(amps: DetectorPlaneAmplitudes, phi: float, gamma: float = 0.0,
               n_max: int | None = None) -> PhotonPmf:
    """Photon-number distribution p_n = (e^-nu+ nu+^n/n! + e^-nu- nu-^n/n!)/2,
    averaged over uniform phase noise of width ``gamma``.

    For ``gamma > 0``, p_n(a, b, phi, gamma) = (1/gamma) * integral over psi in
    [-gamma/2, gamma/2] of p_n(a, b, phi - psi).  Evaluated in log space, as exp of the
    ln p_n of :func:`_log_tables`; the cutoff policy keeps the neglected tail below
    1e-12.  One tail bound serves every ``gamma``: every component mean at every noise
    node is at most nu = (a + b)^2, so p_{n+1} <= p_n nu/(n_max + 2) for n > n_max, and
    P(N > n_max) <= p_{n_max+1} / (1 - nu/(n_max + 2)) while nu < n_max + 2; else 1.
    """
    nm = _cutoff(amps, n_max)
    probs = pmf_table(amps, [_real("phase phi", phi)], gamma, n_max=nm + 1)[0]
    ratio = (amps.a + amps.b) ** 2 / (nm + 2)
    tail = min(1.0, probs[-1] / (1.0 - ratio)) if ratio < 1.0 else 1.0
    return PhotonPmf(probs=probs[:-1], tail_bound=float(tail))


def photon_pmf_dphi(amps: DetectorPlaneAmplitudes, phi: float, gamma: float = 0.0,
                    n_max: int | None = None) -> np.ndarray:
    """Derivative d p_n / d phi for n = 0..n_max (analytic, not finite-differenced)."""
    return dphi_table(amps, [_real("phase phi", phi)], gamma, n_max=n_max)[0]


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
    without noise (see :func:`_fano_terms`).  Requires a^2 + b^2 > 0, finite phi.
    """
    k, scale = _fano_terms(amps, gamma)
    energy = amps.mean_photons
    if energy <= 0.0:
        raise ValueError("Fano factor undefined at zero mean photon number (a = b = 0)")
    c = math.cos(_real("phase phi", phi))
    return 1.0 + scale * (0.5 * (1.0 - k) + k * c * c) / energy


def pmf_fidelity(p: PhotonPmf, q: PhotonPmf) -> float:
    """Bhattacharyya fidelity sum_n sqrt(p_n q_n); the shorter pmf is zero-padded."""
    size = max(p.probs.size, q.probs.size)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: p.probs.size] = p.probs
    qq[: q.probs.size] = q.probs
    return float(np.sqrt(pp * qq).sum())
