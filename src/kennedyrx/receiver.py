"""Kennedy-like BPSK receiver: parameter bookkeeping and discrimination.

Bits are encoded in the sign of a coherent signal of amplitude ``beta``
(bit 1 -> +beta, bit 0 -> -beta, equal priors).  The signal interferes at a
beam splitter of transmittance ``tau`` with a local oscillator of amplitude
``alpha``, leaving the detector-plane amplitudes a = alpha*sqrt(1 - tau) and
b = beta*sqrt(tau).  Discrimination is on/off: a dark detector means bit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _EXPORTS
from .photonstats import DetectorPlaneAmplitudes, _real, _whole

__all__ = list(_EXPORTS["receiver"])


@dataclass(frozen=True)
class ReceiverParams:
    """Physical receiver parameters, finite reals beta, alpha >= 0 and tau in
    (0, 1), stored as floats; both bits are sent with prior 1/2."""

    beta: float
    alpha: float
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _real("beta", self.beta, 0.0))
        object.__setattr__(self, "alpha", _real("alpha", self.alpha, 0.0))
        tau = _real("tau", self.tau)
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must lie in (0,1), got {self.tau!r}")
        object.__setattr__(self, "tau", tau)

    @classmethod
    def kennedy_matched(cls, beta: float, tau: float) -> "ReceiverParams":
        """Parameters with alpha = beta*sqrt(tau/(1-tau)), which makes a = b."""
        return cls(beta=beta, alpha=beta * math.sqrt(tau / (1.0 - tau)), tau=tau)

    @property
    def a(self) -> float:
        """LO amplitude at the detector plane, alpha*sqrt(1 - tau)."""
        return self.alpha * math.sqrt(1.0 - self.tau)

    @property
    def b(self) -> float:
        """Signal amplitude at the detector plane, beta*sqrt(tau)."""
        return self.beta * math.sqrt(self.tau)


def detector_amplitudes(params: ReceiverParams) -> DetectorPlaneAmplitudes:
    """Detector-plane amplitudes (a, b) = (alpha*sqrt(1-tau), beta*sqrt(tau))."""
    return DetectorPlaneAmplitudes(a=params.a, b=params.b)


def discriminate(count: int) -> int:
    """On/off bit decision: a dark detector (count 0) means bit 0, light means bit 1.

    Photon-number-resolved counts are coarse-grained through the same rule,
    so discriminate(n) == discriminate(min(n, 1)).  ``count`` is an integer >= 0.
    """
    return 0 if _whole("photon count", count, 0) == 0 else 1


def error_probability(beta: float, phi: float) -> float:
    """Discrimination error of the on/off receiver at LO-phase offset ``phi``.

    Closed form in the tau -> 1 limit:
    P_e(phi) = [1 - exp(-4 beta^2 sin^2(phi/2)) + exp(-4 beta^2 cos^2(phi/2))]/2,
    which reduces to exp(-4 beta^2)/2 at phi = 0 and satisfies
    P_e(phi) >= P_e(0).  Finite-tau error rates come from simulation, not
    from this formula.  ``beta`` is a finite real >= 0 and ``phi`` a finite real.
    """
    beta, phi = _real("beta", beta, 0.0), _real("phase phi", phi)
    e4 = 4.0 * beta * beta
    s = math.sin(0.5 * phi)
    c = math.cos(0.5 * phi)
    return 0.5 * (1.0 - math.exp(-e4 * s * s) + math.exp(-e4 * c * c))


def helstrom_bound(beta: float) -> float:
    """Minimum error probability for equiprobable coherent states |+-beta>, beta >= 0.

    (1 - sqrt(1 - e^-4 beta^2))/2, written as x / (2 (1 + sqrt(1 - x))) with
    x = e^-4 beta^2 so the small-overlap regime does not cancel to zero.
    """
    beta = _real("beta", beta, 0.0)
    x = math.exp(-4.0 * beta * beta)
    return 0.5 * x / (1.0 + math.sqrt(1.0 - x))
