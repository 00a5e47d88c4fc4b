"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's own computation paths:
brute-force quadrature, direct moment summation, and central finite
differences, so the dual-route checks stay meaningful.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


def poisson_pmf_direct(nu: float, n: np.ndarray) -> np.ndarray:
    """Poisson pmf by direct log-space evaluation (test-local)."""
    n = np.asarray(n)
    if nu == 0.0:
        return np.where(n == 0, 1.0, 0.0)
    return np.exp(n * np.log(nu) - nu - gammaln(n + 1))


def mixture_pmf_direct(a: float, b: float, phi: float, n: np.ndarray) -> np.ndarray:
    """Equal mixture of the two Poisson components, no shared code with the library."""
    s = a * a + b * b
    x = 2.0 * a * b * np.cos(phi)
    return 0.5 * (poisson_pmf_direct(s + x, n) + poisson_pmf_direct(max(s - x, 0.0), n))


def mixture_dphi_direct(a: float, b: float, phi: float, n_max: int) -> np.ndarray:
    """d p_n / d phi for n = 0..n_max, term by term in Python floats: half the
    sum over both components of e^-nu (n nu^(n-1) - nu^n) / n! * d nu / d phi,
    with d nu+- / d phi = -+ 2ab sin(phi)."""
    s = a * a + b * b
    x = 2.0 * a * b * math.cos(phi)
    slope = 2.0 * a * b * math.sin(phi)
    out = []
    for n in range(n_max + 1):
        total = 0.0
        for nu, dnu in ((s + x, -slope), (max(s - x, 0.0), slope)):
            rising = n * nu ** (n - 1) if n else 0.0
            total += 0.5 * math.exp(-nu) * (rising - nu**n) / math.factorial(n) * dnu
        out.append(total)
    return np.array(out)


def midpoint_noisy_pmf(a: float, b: float, phi: float, gamma: float, n: np.ndarray,
                       nodes: int = 100_000) -> np.ndarray:
    """Uniform phase-noise average by midpoint rule with many nodes.

    Chunked so the 1e5-node oracle stays vectorized and fast.
    """
    psi = -0.5 * gamma + (np.arange(nodes) + 0.5) * (gamma / nodes)
    out = np.zeros(n.size)
    for block in np.array_split(psi, max(1, nodes // 2000)):
        s = a * a + b * b
        x = 2.0 * a * b * np.cos(phi - block)[:, None]
        nu_p = np.maximum(s + x, 0.0)
        nu_m = np.maximum(s - x, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = n * np.log(nu_p) - nu_p - gammaln(n + 1)
            lm = n * np.log(nu_m) - nu_m - gammaln(n + 1)
        lp = np.where(nu_p == 0.0, np.where(n == 0, 0.0, -np.inf), lp)
        lm = np.where(nu_m == 0.0, np.where(n == 0, 0.0, -np.inf), lm)
        out += 0.5 * (np.exp(lp) + np.exp(lm)).sum(axis=0)
    return out / nodes


def moments_by_summation(probs: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of a pmf by direct summation over the support."""
    n = np.arange(probs.size, dtype=float)
    mean = float((n * probs).sum())
    var = float((n * n * probs).sum() - mean * mean)
    return mean, var


def fd_dphi(pmf_fn, phi: float, h: float = 1e-6) -> np.ndarray:
    """Central finite difference of a pmf-valued function of phi."""
    return (pmf_fn(phi + h) - pmf_fn(phi - h)) / (2.0 * h)


def fano_jackknife_brute(
    counts: np.ndarray, a: float, b: float, gamma: float = 0.0
) -> tuple[float, float]:
    """Fano-inversion phase and its leave-one-out jackknife variance, with the
    sample moments recomputed from scratch for the record minus each shot;
    under phase noise of width gamma, F - 1 = 4a^2b^2 [(1 - k)/2 + k cos^2(phi)]
    / (a^2 + b^2) with k = sin(gamma)/gamma."""
    x = np.asarray(counts, dtype=float)
    scale = (a * a + b * b) / (4.0 * a * a * b * b)
    k = math.sin(gamma) / gamma if gamma > 0.0 else 1.0

    def phase(sample: np.ndarray) -> float:
        mean = sample.mean()
        fano = sample.var(ddof=1) / mean if mean > 0.0 else 1.0
        cos2 = ((fano - 1.0) * scale - (1.0 - k) / 2.0) / k
        return math.acos(math.sqrt(min(max(cos2, 0.0), 1.0)))

    loo = np.array([phase(np.delete(x, i)) for i in range(x.size)])
    m = x.size
    return phase(x), (m - 1) / m * float(np.sum((loo - loo.mean()) ** 2))


def truncated_normal_moments(mu: float, sigma: float, lo: float, hi: float) -> tuple[float, float]:
    """Mean and variance of a normal(mu, sigma) truncated to [lo, hi] (analytic)."""
    from scipy.stats import truncnorm

    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    dist = truncnorm(a, b, loc=mu, scale=sigma)
    return float(dist.mean()), float(dist.var())
