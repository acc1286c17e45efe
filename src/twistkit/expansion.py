"""Multipole machinery for Bessel profiles at displaced arguments.

The scalar profile psi_m evaluated at R - q (vector difference of two
transverse vectors) is expanded through the Gegenbauer addition theorem
times the binomial phase (psi_shifted), checked against the direct
evaluation (psi_displaced_direct).  The series stops where a bound on its
dropped terms, taken before any Bessel evaluation, falls below 2^-53 of
the bound on its first term (_addition_cut); v_max caps it, and the bound
on the dropped tail is the truncation estimate.  The first-order
two-displacement bracket (quadrupole_expand) truncates the same profile at
O(|r|).
"""

from __future__ import annotations

import cmath
import collections
import math
import sys

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
    """A cap on the series' last index: k_perp * min(R, q) + 40, past which
    Bessel orders decay uniformly.  gegenbauer_expand and psi_shifted stop
    earlier where their bound allows.  A non-finite k_perp * min(R, q)
    raises InvalidArgumentError."""
    x = k_perp * min(R.r, q.r)
    if not math.isfinite(x):
        raise InvalidArgumentError(f"k_perp * min(R, q) = {x!r} is not finite")
    return math.ceil(x) + 40


# A dropped term of the addition theorem is at most this share of the
# bound on its first term.
_ADDITION_TAIL = 2.0 ** -53
_TINY = sys.float_info.min  # floor of _addition_cut's n! / (x/2)^n


def _addition_cut(l: int, x_small: float, x_large: float, v_max: int):
    """(n, tail) for the addition theorem of order l >= 0 (l = 0: the cosine
    series of J_0) with Bessel arguments x_small <= x_large, before any
    Bessel evaluation.

    |J_n(x)| <= (x/2)^n / n! (DLMF 10.14.4), at the larger argument also
    <= 1 (DLMF 10.14.1), and |C_v^l(cos)| <= C_v^l(1) = (2l)_v / v! bound
    the v-th term by b_v.  In units of the series' scale (1/(2^l l!) for
    J_l(k rho)/(k rho)^l, 1 for J_0), b_0 = c_l with
    c_n = min(1, n! / (x_large/2)^n), and with y = x_small x_large / 4,
    b_{v+1}/b_v is y (2l+v) / ((l+v)(l+v+1)(v+1)) c_{l+v+1} / c_{l+v}
    (2y/(l+1) c_{l+1} / c_l at v = 0, for every l).  That ratio never grows
    with v: it is (x_small/2) (2l+v) / ((l+v)(v+1)) (1/(v+1) at l = 0)
    times the ratio of successive min(1, (x_large/2)^n / n!), and neither
    factor grows.  V is the least index past which every b_v is at most
    _ADDITION_TAIL b_0: the first v whose ratio is below 1 with b_{v+1}
    within it.  n = min(v_max, V) is the last index kept, and
    tail >= sum_{v>n} b_v, as b_{n+1} / (1 - its ratio from b_n); inf where
    the bounds still grow at the cap.  g = n! / (x_large/2)^n is floored at
    the least normal float, which only loosens the bound."""
    y = 0.25 * x_small * x_large
    h = 2.0 / x_large if x_large > 0.0 else math.inf
    g = 1.0  # n! / (x_large/2)^n, from n = 0 to l
    for k in range(1, l + 1):
        g *= k * h
        if g < _TINY:
            g = _TINY
    c = b0 = g if g < 1.0 else 1.0  # c_l
    g *= (l + 1) * h
    if g < _TINY:
        g = _TINY
    c_next = g if g < 1.0 else 1.0
    ratio = r = 2.0 * y / (l + 1.0) * (c_next / c)  # b_1 / b_0
    v = 0
    while v < v_max and (ratio >= 1.0 or r > _ADDITION_TAIL):
        v += 1
        c = c_next  # c_{l+v}
        g *= (l + v + 1) * h
        if g < _TINY:
            g = _TINY
        c_next = g if g < 1.0 else 1.0
        ratio = (y * (2 * l + v) / ((l + v) * (l + v + 1.0) * (v + 1))
                 * (c_next / c))
        r *= ratio  # b_{v+1} / b_0
    return v, (b0 * r / (1.0 - ratio) if ratio < 1.0 else math.inf)


def gegenbauer_expand(l: int, k_perp: float, R: PlanarVec, q: PlanarVec,
                      v_max: int) -> SeriesResult:
    """Partial sum of the addition theorem for J_l(k rho) / (k rho)^l,
    rho = |R - q|:

        2^l (l-1)! sum_v (l+v) J_{l+v}(kR) J_{l+v}(kq)
                          / ((kR)^l (kq)^l) C_v^l(cos(phi_R - phi_q)),

    the Bessel values from one bessel_j_run per argument, the C_v^l from
    gegenbauer_run's recurrence in v.  The theorem's (l+v) weight is used:
    the printed (m-v) variant fails the direct-evaluation oracle.

    v_max caps the sum: it stops at min(v_max, V), where V is the least
    index past which the bound on each dropped term is at most 2^-53 of
    the bound on the first, 1/(2^l l!) (the ratio's largest value, at
    rho = 0) times min(1, l! / (x/2)^l) at the larger argument x.
    ``truncation_estimate`` is the bound on the whole dropped tail.
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
    n, tail = _addition_cut(l, min(xr, xq), max(xr, xq), v_max)
    jr = specfun.bessel_j_run(l, n + 1, xr)
    jq = specfun.bessel_j_run(l, n + 1, xq)
    cv = specfun.gegenbauer_run(l, n + 1, dphi)
    total = 0.0
    for v in range(n + 1):
        total += pref * (l + v) * jr[v] * jq[v] * cv[v]
    return SeriesResult(value=total, terms_used=n + 1,
                        truncation_estimate=tail / (2 ** l
                                                    * math.factorial(l)))


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
    series times the binomial as one complex power.  For m = 0 it is the
    cosine series J_0(k rho) = sum_v (2 - delta_v0) J_v(kR) J_v(kq)
    cos(v dphi), of scale 1.  Either stops at min(v_max, V), V from the
    bound of gegenbauer_expand, computed before any Bessel evaluation;
    ``terms_used`` counts the radial terms summed, and
    ``truncation_estimate`` bounds the dropped tail (times |(k (R - q))^m|
    for m >= 1)."""
    specfun._require_integer("m", m, 0)
    specfun._require_integer("v_max", v_max, 0)
    if m == 0:
        if not (R.r > 0.0 and q.r > 0.0):
            raise InvalidArgumentError("need R.r > 0 and q.r > 0")
        xr = k_perp * R.r
        xq = k_perp * q.r
        dphi = R.phi - q.phi
        n, tail = _addition_cut(0, min(xr, xq), max(xr, xq), v_max)
        jr = specfun.bessel_j_run(0, n + 1, xr)
        jq = specfun.bessel_j_run(0, n + 1, xq)
        total = jr[0] * jq[0]
        for v in range(1, n + 1):
            total += 2.0 * jr[v] * jq[v] * math.cos(v * dphi)
        return SeriesResult(value=total, terms_used=n + 1,
                            truncation_estimate=tail)
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
