"""Multipole machinery for Bessel profiles at displaced arguments.

The scalar profile psi_m evaluated at R - q (vector difference of two
transverse vectors) is expanded through the Gegenbauer addition theorem
times the binomial phase (psi_shifted), checked against the direct
evaluation (psi_displaced_direct).  The first-order two-displacement
bracket (quadrupole_expand) truncates the same profile at O(|r|).
"""

from __future__ import annotations

import cmath
import collections
import math

from . import specfun
from .errors import InvalidArgumentError, SingularConfigurationError
from .specfun import SeriesResult


class PlanarVec(collections.namedtuple("PlanarVec", "r phi")):
    """A transverse vector by magnitude and azimuth."""

    __slots__ = ()

    def __new__(cls, r: float, phi: float):
        if not 0.0 <= r < math.inf:
            raise InvalidArgumentError(
                f"magnitude must be >= 0 and finite, got r = {r!r}")
        return tuple.__new__(cls, (r, phi))

    def to_complex(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)

    @staticmethod
    def from_complex(c: complex) -> "PlanarVec":
        return PlanarVec(abs(c), cmath.phase(c))


def default_v_max(k_perp: float, R: PlanarVec, q: PlanarVec) -> int:
    """Automatic truncation: Bessel orders decay uniformly once the order
    exceeds the argument, so k_perp * min(R, q) + 40 suffices.  A
    non-finite k_perp * min(R, q) raises InvalidArgumentError."""
    x = k_perp * min(R.r, q.r)
    if not math.isfinite(x):
        raise InvalidArgumentError(f"k_perp * min(R, q) = {x!r} is not finite")
    return math.ceil(x) + 40


def gegenbauer_expand(l: int, k_perp: float, R: PlanarVec, q: PlanarVec,
                      v_max: int) -> SeriesResult:
    """Partial sum of the addition theorem for J_l(k rho) / (k rho)^l,
    rho = |R - q|:

        2^l (l-1)! sum_v (l+v) J_{l+v}(kR) J_{l+v}(kq)
                          / ((kR)^l (kq)^l) C_v^l(cos(phi_R - phi_q)),

    the Bessel values from one bessel_j_run per argument, the C_v^l from
    gegenbauer_run's recurrence in v.  The theorem's (l+v) weight is used:
    the printed (m-v) variant fails the direct-evaluation oracle.
    """
    specfun._require_integer("l", l, 1)
    specfun._require_integer("v_max", v_max, 0)
    if not (R.r > 0.0 and q.r > 0.0):
        raise InvalidArgumentError("the ratio form needs R.r > 0 and q.r > 0")
    xr = k_perp * R.r
    xq = k_perp * q.r
    dphi = R.phi - q.phi
    try:
        den = xr ** l * xq ** l
    except OverflowError:  # float ** int raises instead of giving inf
        den = math.inf
    if den == 0.0 or not math.isfinite(den):
        raise SingularConfigurationError(
            f"(kR)^l (kq)^l = {den!r} at l = {l}: the ratio form is singular")
    pref = 2.0 ** l * math.factorial(l - 1) / den
    jr = specfun.bessel_j_run(l, v_max + 1, xr)
    jq = specfun.bessel_j_run(l, v_max + 1, xq)
    cv = specfun.gegenbauer_run(l, v_max + 1, dphi)
    total = 0.0
    last = 0.0
    for v in range(v_max + 1):
        last = pref * (l + v) * jr[v] * jq[v] * cv[v]
        total += last
    return SeriesResult(value=total, terms_used=v_max + 1,
                        truncation_estimate=abs(last))


def phase_expand(m: int, k_perp: float, R: PlanarVec, q: PlanarVec) -> complex:
    """Exact finite binomial sum equal to e^{i m phi_rho}, where phi_rho
    is the azimuth of R - q."""
    specfun._require_integer("m", m, 0)
    rho = abs(R.to_complex() - q.to_complex())
    if rho == 0.0:
        raise SingularConfigurationError("phase undefined at rho = 0")
    total = 0.0 + 0.0j
    for n in range(m + 1):
        total += ((-1) ** n * math.comb(m, n)
                  * cmath.exp(1j * ((m - n) * R.phi + n * q.phi))
                  * (k_perp * R.r) ** (m - n) * (k_perp * q.r) ** n)
    return total / (k_perp * rho) ** m


def psi_shifted(m: int, k_perp: float, R: PlanarVec, q: PlanarVec,
                v_max: int) -> SeriesResult:
    """Series value of psi_m at the displaced point R - q; converges to
    J_m(k rho) e^{i m phi_rho}.  For m >= 1 it is the exact factorisation
    [J_m(k rho) / (k rho)^m] (k (R - q))^m: the gegenbauer_expand ratio
    series times the binomial as one complex power.  ``terms_used`` counts
    the v_max + 1 radial terms; ``truncation_estimate`` is the last one's
    magnitude."""
    specfun._require_integer("m", m, 0)
    specfun._require_integer("v_max", v_max, 0)
    if m == 0:
        # cosine series: J_0(k rho) = sum_v J_v(kR) J_v(kq) cos(v dphi)
        if not (R.r > 0.0 and q.r > 0.0):
            raise InvalidArgumentError("need R.r > 0 and q.r > 0")
        xr = k_perp * R.r
        xq = k_perp * q.r
        dphi = R.phi - q.phi
        jr = specfun.bessel_j_run(0, v_max + 1, xr)
        jq = specfun.bessel_j_run(0, v_max + 1, xq)
        total = jr[0] * jq[0]
        last = total
        for v in range(1, v_max + 1):
            last = 2.0 * jr[v] * jq[v] * math.cos(v * dphi)
            total += last
        return SeriesResult(value=total, terms_used=v_max + 1,
                            truncation_estimate=abs(last))
    ratio = gegenbauer_expand(m, k_perp, R, q, v_max)
    power = (k_perp * (R.to_complex() - q.to_complex())) ** m
    return SeriesResult(value=ratio.value * power,
                        terms_used=ratio.terms_used,
                        truncation_estimate=ratio.truncation_estimate
                        * abs(power))


def psi_displaced_direct(m: int, k_perp: float, R: PlanarVec,
                         q: PlanarVec) -> complex:
    """Direct evaluation J_m(k rho) e^{i m phi_rho}, rho = R - q."""
    d = R.to_complex() - q.to_complex()
    rho = abs(d)
    phi = cmath.phase(d) if rho > 0.0 else 0.0
    return specfun.bessel_j(m, k_perp * rho) * cmath.exp(1j * m * phi)


def _first_order_profile(m: int, k_perp: float, R: PlanarVec,
                         u: PlanarVec) -> complex:
    """psi_m at the displaced point R + u, accurate through O(|u|):

        [J_m(kR) - k u J_{m+1}(kR) cos(phi_R - phi_u)]
        * (e^{i phi_R} + (u/R) e^{i phi_u})^m.

    At R = 0 the u/R factor is singular unless m is 0 (the value is the
    radial factor) or u is 0 (the value is 0: the radial factor carries
    J_m(0) = 0); otherwise SingularConfigurationError.
    """
    xr = k_perp * R.r
    radial = (specfun.bessel_j(m, xr)
              - k_perp * u.r * specfun.bessel_j(m + 1, xr)
              * math.cos(R.phi - u.phi))
    if R.r == 0.0:
        if m == 0:
            return complex(radial)
        if u.r == 0.0:
            return 0j
        raise SingularConfigurationError(
            "R = 0 with a displacement: the (u/R)^n factors are singular")
    return radial * (cmath.exp(1j * R.phi)
                     + u.r / R.r * cmath.exp(1j * u.phi)) ** m


def quadrupole_expand(m: int, k_perp: float, R: PlanarVec, r: PlanarVec,
                      mass_ratio_e: float, mass_ratio_N: float) -> complex:
    """First-order (in k_perp r) approximation of the two-displacement
    bracket

        a psi_m(R + a r) - b psi_m(R - b r),

    a = mu/M_e, b = mu/M_N; spatial part only.  The leading term is
    (a - b) psi_m(R), the first-order pieces carry (a^2 + b^2) times the
    gradient content (dipole k_perp*r piece plus the vortex n >= 1
    pieces)."""
    if not (0.0 < mass_ratio_e <= 1.0):
        raise InvalidArgumentError("mass_ratio_e must be in (0, 1]")
    if not (0.0 <= mass_ratio_N < 1.0):
        raise InvalidArgumentError("mass_ratio_N must be in [0, 1)")
    specfun._require_integer("m", m, 0)
    a, b = mass_ratio_e, mass_ratio_N
    ue = PlanarVec(a * r.r, r.phi)
    un = PlanarVec(b * r.r, r.phi + math.pi)  # displacement -b r
    out = a * _first_order_profile(m, k_perp, R, ue)
    if b > 0.0:
        out -= b * _first_order_profile(m, k_perp, R, un)
    return out
