"""Selection rules and transition matrix elements for Bessel-photon
emission by a hydrogen-like atom.

How the atom meets the field is decided in one place, _bracket: the
fields.mode_terms table of A (H_I1, paired with r) or B = curl A (H_I3,
paired with S), conjugated for emission.  Both selection engines and
both amplitude builders read it, and the engines take the expansion
orders an interaction reads from _interaction_orders.

The selection engine does exact integer bookkeeping of the azimuthal
exponents carried by every term of the displaced-mode expansion: a
channel is allowed iff the phi_R and phi_r exponent sums both vanish.
Every emitted channel satisfies

    delta_m_R + delta_m_r + delta_spin = -m

(the photon carries total angular momentum m along z).  A brute-force
azimuthal double integral over the actual mode functions is provided as
the independent oracle for the zero/nonzero classification: it samples
the separable factors of each term and transforms them with 1-D FFTs,
and it raises where its radial weights cannot resolve every channel
(for some orders from |m| = 81, for every case from |m| = 85).
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import fields, quadrature, specfun
from .errors import InvalidArgumentError
from .fields import ModeKind, ModeSpec

# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

FREE_BESSEL = "free_bessel"
TRAPPED_HO = "trapped_ho"


class CenterOfMassState(collections.namedtuple(
        "CenterOfMassState", "variant m_R k_z_R k_perp_R n_bar alpha")):
    """Center-of-mass wavefunction parameters.

    Free atoms: a Bessel state J_{m_R}(k_perp_R R) e^{i k_z_R z}; trapped
    atoms: a 2-D harmonic-oscillator Laguerre-Gauss state of radial index
    n_bar and oscillator length alpha.  m_R and n_bar are integers,
    k_perp_R (free) and alpha (trapped) positive and finite, k_z_R finite.
    """

    __slots__ = ()

    def __new__(cls, variant: str, m_R: int, k_z_R: float = 0.0,
                k_perp_R: float = 0.0, n_bar: int = 0, alpha: float = 0.0):
        if not (hasattr(m_R, "__index__") and hasattr(n_bar, "__index__")):
            raise InvalidArgumentError("m_R and n_bar must be integers")
        if not math.isfinite(k_z_R):
            raise InvalidArgumentError("k_z_R must be finite")
        if variant == FREE_BESSEL:
            if not 0.0 < k_perp_R < math.inf:
                raise InvalidArgumentError("free states need 0 < k_perp_R < inf")
        elif variant == TRAPPED_HO:
            if not 0.0 < alpha < math.inf:
                raise InvalidArgumentError("trapped states need 0 < alpha < inf")
            if n_bar < 0:
                raise InvalidArgumentError("n_bar must be >= 0")
        else:
            raise InvalidArgumentError(f"unknown variant {variant!r}")
        return tuple.__new__(cls, (variant, m_R, k_z_R, k_perp_R, n_bar, alpha))

    @staticmethod
    def free(m_R: int, k_perp_R: float, k_z_R: float = 0.0):
        return CenterOfMassState(FREE_BESSEL, m_R, k_z_R=k_z_R,
                                 k_perp_R=k_perp_R)

    @staticmethod
    def trapped(m_R: int, n_bar: int, alpha: float):
        return CenterOfMassState(TRAPPED_HO, m_R, n_bar=n_bar, alpha=alpha)


class InternalState(collections.namedtuple(
        "InternalState", "l_r m_r radial r_max")):
    """Internal hydrogenic state: (l_r, m_r) and a radial function handle
    normalized as int r^2 Theta(r)^2 dr = 1."""

    __slots__ = ()

    def __new__(cls, l_r: int, m_r: int, radial: Callable[[float], float],
                r_max: float = 60.0):
        specfun._require_integer("l_r", l_r, 0)
        specfun._require_integer("m_r", m_r, -l_r)
        if m_r > l_r:
            raise InvalidArgumentError("|m_r| must be <= l_r")
        if not callable(radial):
            raise InvalidArgumentError(
                f"radial must be callable, got {radial!r}")
        return tuple.__new__(cls, (l_r, m_r, radial, r_max))


def hydrogen_radial_1s(a: float = 1.0) -> Callable[[float], float]:
    c = 2.0 * a ** -1.5
    return lambda r: c * math.exp(-r / a)


def hydrogen_radial_2p(a: float = 1.0) -> Callable[[float], float]:
    c = a ** -1.5 / math.sqrt(24.0)
    return lambda r: c * (r / a) * math.exp(-r / (2.0 * a))


def hydrogen_state(n: int, l: int, m_r: int = 0, a: float = 1.0) -> InternalState:
    """Built-in hydrogen states (1s and 2p ship as test defaults)."""
    if (n, l) == (1, 0):
        return InternalState(0, m_r, hydrogen_radial_1s(a), r_max=40.0 * a)
    if (n, l) == (2, 1):
        return InternalState(1, m_r, hydrogen_radial_2p(a), r_max=80.0 * a)
    raise InvalidArgumentError("built-in radial functions cover 1s and 2p only")


class TermOrder(NamedTuple):
    """Expansion indices of one multipole term."""

    n: int
    v: int
    s: int


DIPOLE = None  # dipole marker for Channel.order


class Channel(collections.namedtuple(
        "Channel", "delta_m_R delta_m_r delta_spin_e mode_kind order")):
    """One allowed transition channel."""

    __slots__ = ()

    def __new__(cls, delta_m_R: int, delta_m_r: int, delta_spin_e: int,
                mode_kind: ModeKind, order: Optional[TermOrder]):
        if delta_spin_e not in (-1, 0, 1):
            raise InvalidArgumentError("delta_spin_e must be in {-1, 0, +1}")
        if mode_kind.__class__ is not ModeKind:
            raise InvalidArgumentError(
                f"mode_kind must be a ModeKind, got {mode_kind!r}")
        return tuple.__new__(
            cls, (delta_m_R, delta_m_r, delta_spin_e, mode_kind, order))


class ChannelAmplitude(NamedTuple):
    """A channel plus its complex amplitude and factor provenance."""

    channel: Channel
    amplitude: complex
    cm_integral: complex
    rel_integral: float
    coupling: complex


class DipoleCouplings(collections.namedtuple(
        "DipoleCouplings", "q_e energy_scale")):
    """Caller-supplied scalars entering the dipole amplitudes: the charge
    and the internal energy difference, each one finite real scale."""

    __slots__ = ()

    def __new__(cls, q_e: float = 1.0, energy_scale: float = 1.0):
        if not (math.isfinite(q_e) and math.isfinite(energy_scale)):
            raise InvalidArgumentError("q_e and energy_scale must be finite")
        return tuple.__new__(cls, (q_e, energy_scale))


class SpinParticle(collections.namedtuple("SpinParticle", "g q M")):
    """The spin coupling's particle: g-factor, charge and mass, g and q
    finite, 0 < M < inf."""

    __slots__ = ()

    def __new__(cls, g: float, q: float, M: float):
        if not (math.isfinite(g) and math.isfinite(q) and 0.0 < M < math.inf):
            raise InvalidArgumentError("need finite g and q and 0 < M < inf")
        return tuple.__new__(cls, (g, q, M))


class CandidateComparison(NamedTuple):
    """Oracle value vs a printed closed-form candidate."""

    oracle: complex
    oracle_error: float
    candidate: complex
    candidate_converged: bool

    @property
    def discrepancy(self) -> float:
        return abs(self.oracle - self.candidate)


# ---------------------------------------------------------------------------
# Selection rules
# ---------------------------------------------------------------------------

def _bracket(mode: ModeSpec, interaction: str, emission: bool = True):
    """(pref, [(mu, sigma, c), ...]) of the atom-field bracket, from
    fields.mode_terms of A (H_I1: "dipole", "general") or B = curl A (H_I3:
    "spin").  Absorption takes the terms as they are, sigma = slot;
    emission conjugates pref and each c, sigma = -slot: the phi_r exponent
    of r . e_slot* under H_I1, the spin change under H_I3."""
    if interaction not in ("dipole", "general", "spin"):
        raise InvalidArgumentError(f"unknown interaction {interaction!r}")
    pref, terms = fields.mode_terms(mode, curl=interaction == "spin")
    if emission:
        pref = pref.conjugate()
        terms = [(mu, -slot, c.conjugate()) for mu, slot, c in terms]
    return pref, terms


def _interaction_orders(interaction: str, order: Optional[TermOrder],
                        max_multipole: int = 0):
    """The (TermOrder, Channel.order) pairs an interaction reads: the
    leading term, as DIPOLE, for dipole and spin; for general the given
    order, or every order with n + v <= max_multipole.
    InvalidArgumentError unless max_multipole >= 0, ``order`` (if given)
    has n >= 0, v >= 0 and 0 <= s <= v, and the interaction reads each one
    given (dipole and spin neither, general not both)."""
    if max_multipole < 0:
        raise InvalidArgumentError("max_multipole must be >= 0")
    if interaction != "general" and (order is not None or max_multipole):
        raise InvalidArgumentError(
            f"the {interaction} interaction takes no order or max_multipole")
    if order is not None and max_multipole:
        raise InvalidArgumentError("give an order or a max_multipole, not both")
    if order is not None:
        n, v, s = order
        if n < 0 or v < 0 or not 0 <= s <= v:
            raise InvalidArgumentError(
                f"order (n, v, s) = ({n}, {v}, {s}) needs n >= 0, v >= 0 "
                f"and 0 <= s <= v")
    if interaction != "general":
        return [(TermOrder(0, 0, 0), DIPOLE)]
    orders = [order] if order is not None else _enumerate_orders(max_multipole)
    return [(o, o) for o in orders]


def _term_exponents(mu: int, order: TermOrder):
    """phi_R / phi_q exponent pairs of the conjugated psi_mu expansion
    term with indices (n, v, s), each with its sign relative to the
    |mu| = a reference weight (J_{-a} = (-1)^a J_a makes every term of
    conj(psi_{-a}) carry (-1)^a).  Returns [] if the term does not exist
    for this mu (n > |mu|, or n/s > 0 at mu = 0)."""
    n, v, s = order
    a = abs(mu)
    if a == 0:
        if n != 0 or s != 0:
            return []
        if v == 0:
            return [(0, 0, 1.0)]
        return [(v, -v, 1.0), (-v, v, 1.0)]
    if n > a:
        return []
    sgn = 1 if mu > 0 else -1
    parity = 1.0 if mu > 0 or a % 2 == 0 else -1.0
    base_r = -sgn * (a - n)
    base_q = -sgn * n
    w = v - 2 * s
    if w == 0:
        return [(base_r, base_q, parity)]
    return [(base_r + w, base_q - w, parity),
            (base_r - w, base_q + w, parity)]


def _enumerate_orders(max_multipole: int):
    orders = []
    for n in range(max_multipole + 1):
        for v in range(max_multipole - n + 1):
            for s in range(v + 1):
                orders.append(TermOrder(n, v, s))
    return orders


def symbolic_channels(m: int, mode_kind: ModeKind, interaction: str,
                      max_multipole: int = 0,
                      order: Optional[TermOrder] = None) -> List[Channel]:
    """Enumerate allowed emission channels by exact integer bookkeeping
    over the terms of the emission bracket (_bracket).

    ``interaction``: "dipole" (n = v = s = 0 terms of H_I1), "general"
    (H_I1 at explicit ``order`` indices, or all orders with
    n + v <= max_multipole when ``order`` is None), or "spin" (H_I3 at
    leading order; the internal spatial state is unchanged).  The
    bracket's sigma adds to delta_m_r under H_I1 and is delta_spin under
    H_I3.  InvalidArgumentError for max_multipole < 0, an order outside
    n >= 0, v >= 0, 0 <= s <= v, or an order argument the interaction
    does not read (see _interaction_orders).
    """
    orders = _interaction_orders(interaction, order, max_multipole)
    mode_kind = ModeKind(mode_kind)
    _, terms = _bracket(ModeSpec(mode_kind, m, 1.0, 1.0), interaction)
    spin = interaction == "spin"

    # Components sharing |mu| (only mu = -1/+1 at m = 0) carry identical
    # radial weights, so their contributions to one channel can cancel
    # exactly: accumulate signed couplings per (channel, |mu|) group and
    # keep a channel only if some group survives.
    sums: Dict[tuple, complex] = {}
    for o, marker in orders:
        for mu, sigma, coupling in terms:
            for exp_r, exp_q, parity in _term_exponents(mu, o):
                d_m_r, d_spin = (exp_q, sigma) if spin else (exp_q + sigma, 0)
                key = (exp_r, d_m_r, d_spin, marker, abs(mu))
                sums[key] = sums.get(key, 0.0) + parity * coupling
    kept = {key[:4] for key, total in sums.items() if abs(total) >= 1e-12}
    out = [Channel(d_m_R, d_m_r, d_spin, mode_kind, o)
           for d_m_R, d_m_r, d_spin, o in kept]
    out.sort(key=lambda c: (c.delta_m_R, c.delta_m_r, c.delta_spin_e,
                            c.order if c.order is not None else (-1, -1, -1)))
    return out


# Azimuthal oracle: grid points per angle, kR, kq and the zero threshold.
_N_PHI = 256
_KR_R = 1.3
_KR_Q = 0.7
_CHANNEL_REL_TOL = 1e-9


def azimuthal_channel_table(m: int, mode_kind: ModeKind, interaction: str,
                            order: Optional[TermOrder] = None
                            ) -> Dict[Tuple[int, int, int], float]:
    """Brute-force azimuthal oracle.

    Samples the actual expansion-term integrand of the emission bracket
    (_bracket, as symbolic_channels reads it) on an _N_PHI x _N_PHI
    trapezoid grid over (phi_R, phi_r) at kR = _KR_R, kq = _KR_Q and
    extracts every double Fourier coefficient; the keys of
    the returned table are the (delta_m_R, delta_m_r, delta_spin) with
    coefficient magnitude above _CHANNEL_REL_TOL times the largest one.

    Each term is radial * cos(w (phi_R - phi_r)) * f(phi_R) * g(phi_r),
    and cos(w (phi_R - phi_r)) = cos w phi_R cos w phi_r
    + sin w phi_R sin w phi_r, so the integrand of one spin change is a
    sum of products U_k(phi_R) V_k(phi_r): its 2-D transform is
    fft(U)^T fft(V), from 1-D transforms of the sampled factors.

    InvalidArgumentError when the table cannot be trusted: a term's
    weight |coupling * radial| underflows or falls below _CHANNEL_REL_TOL
    times the largest, so its channels could drop under the threshold.
    The weights J_{a+v}(_KR_R) J_{a+v}(_KR_Q) at a = |m| - 1 and |m| + 1
    part that far for some orders from |m| = 81 on, for all from 85.
    The oracle is the library's one numpy user outside ``verify``; it
    imports numpy on its first call, so importing twistkit does not.
    Orders are checked as in symbolic_channels (_interaction_orders); the
    general interaction needs an explicit order.
    """
    [(o, _)] = _interaction_orders(interaction, order)
    import numpy as np

    mode_kind = ModeKind(mode_kind)
    _, terms = _bracket(ModeSpec(mode_kind, m, 1.0, 1.0), interaction)
    if interaction == "general" and order is None:
        raise InvalidArgumentError("the oracle needs explicit order indices")
    spin_mode = interaction == "spin"

    phi = 2.0 * np.pi * np.arange(_N_PHI) / _N_PHI
    n, v, s = o
    w = v - 2 * s
    cos_w, sin_w = np.cos(w * phi), np.sin(w * phi)
    factors: Dict[int, Tuple[list, list]] = {}  # d_spin -> (U rows, V rows)
    weights = []
    for mu, sigma, coupling in terms:
        a = abs(mu)
        if n > a or (a == 0 and s != 0):
            continue
        sgn = 1 if mu > 0 else -1
        parity = 1.0 if mu > 0 or a % 2 == 0 else -1.0
        # The psi_0 term's cos(v (phi_R - phi_r)) weighs 2 J_v J_v for v > 0.
        radial = (parity * specfun.bessel_j(a + v, _KR_R)
                  * specfun.bessel_j(a + v, _KR_Q)
                  * math.comb(a, n) * (_KR_Q / _KR_R) ** n
                  * (2.0 if a == 0 and v else 1.0))
        weights.append(abs(coupling * radial))
        d_spin = sigma if spin_mode else 0
        f = np.exp(-1j * sgn * (a - n) * phi)
        g = (coupling * radial
             * np.exp(1j * ((0 if spin_mode else sigma) - sgn * n) * phi))
        us, vs = factors.setdefault(d_spin, ([], []))
        us += [cos_w * f, sin_w * f]
        vs += [cos_w * g, sin_w * g]
    if weights and not min(weights) >= max(_CHANNEL_REL_TOL * max(weights),
                                           sys.float_info.min):
        raise InvalidArgumentError(
            f"the azimuthal oracle cannot resolve m = {m}: its term weights "
            f"{min(weights):.3g}..{max(weights):.3g} span more than "
            f"{1 / _CHANNEL_REL_TOL:.0e} or underflow")

    spectra = {d_spin: np.abs(np.fft.fft(us, axis=1).T
                              @ np.fft.fft(vs, axis=1)) / (_N_PHI * _N_PHI)
               for d_spin, (us, vs) in factors.items()}
    peak = max((float(mags.max()) for mags in spectra.values()), default=0.0)
    table: Dict[Tuple[int, int, int], float] = {}
    if peak <= 1e-13 * sum(weights):
        return table  # everything cancelled: no allowed channels
    half = _N_PHI // 2
    for d_spin, mags in spectra.items():
        rows, cols = np.nonzero(mags > _CHANNEL_REL_TOL * peak)
        for jR, jr in zip(rows.tolist(), cols.tolist()):
            dR = jR if jR < half else jR - _N_PHI
            dr = jr if jr < half else jr - _N_PHI
            table[(dR, dr, d_spin)] = float(mags[jR, jr])
    return table


# ---------------------------------------------------------------------------
# Center-of-mass and internal integrals
# ---------------------------------------------------------------------------

def suppression_factor(k_perp: float, alpha: float) -> float:
    """Gaussian suppression e^{-k_perp^2 alpha^2 / 4} of trapped-atom
    recoil matrix elements.  InvalidArgumentError unless 0 <= k_perp < inf
    (k_perp = 0 gives 1, as trapped icm0 does) and 0 < alpha < inf, the
    trap lengths CenterOfMassState.trapped accepts."""
    if not 0.0 <= k_perp < math.inf:
        raise InvalidArgumentError("suppression needs 0 <= k_perp < inf")
    if not 0.0 < alpha < math.inf:
        raise InvalidArgumentError("suppression needs 0 < alpha < inf")
    return math.exp(-0.25 * (k_perp * alpha) ** 2)


# Terms of each Hankel expansion, and of their product in 1/R, kept in
# the closed-form triple-Bessel tail.
_TAIL_TERMS = 12


def _hankel_coefficients(order: int, k: float) -> List[complex]:
    """c_j of H^(1)_order(k R) ~ sqrt(2/(pi k R)) e^{i(k R - order pi/2 - pi/4)}
    sum_j c_j R^{-j} (A&S 9.2.5-9.2.10): c_j = c_{j-1} i a_j / k with
    specfun's Hankel ratios a_j, j = 0.._TAIL_TERMS.  Valid for negative
    orders as well."""
    ratios = specfun.hankel_ratios(order, _TAIL_TERMS)
    c = [1.0 + 0j]
    for j in range(_TAIL_TERMS):
        c.append(c[-1] * 1j * ratios[j] / k)
    return c


def _convolve(a: List[complex], b: List[complex]) -> List[complex]:
    """The first _TAIL_TERMS + 1 coefficients of the product of two series."""
    return [sum(a[i] * b[j - i] for i in range(j + 1))
            for j in range(_TAIL_TERMS + 1)]


def _triple_bessel_tail(ks: Tuple[float, float, float],
                        orders: Tuple[int, int, int],
                        power: int) -> Callable[[float], float]:
    """T(x0) = int_x0^inf J_m1(k1 R) J_m2(k2 R) J_m3(k3 R) R^power dR from the
    Hankel expansions J = (H^(1) + conj H^(1)) / 2.  A sign pattern s gives
    terms R^{-p} e^{i w R}, w = s.k, p = 3/2 - power + j, each integrated
    exactly as x0^{1-p} E_p(-i w x0), one E_p ladder per pattern; the
    patterns with s_1 = -1 are the conjugates of those with s_1 = +1, hence
    2 Re over four patterns, whose products share c1 * c2 and c1 * conj c2."""
    c1, c2, c3 = (_hankel_coefficients(m, k) for m, k in zip(orders, ks))
    c2_bar = [x.conjugate() for x in c2]
    c3_bar = [x.conjugate() for x in c3]
    amp = 0.25 * (2.0 / math.pi) ** 1.5 / math.sqrt(ks[0] * ks[1] * ks[2])
    p0 = 1.5 - power
    patterns = []
    for s2, c12 in ((1, _convolve(c1, c2)), (-1, _convolve(c1, c2_bar))):
        for s3, c3s in ((1, c3), (-1, c3_bar)):
            signs = (1, s2, s3)
            phase = sum(s * (m * 0.5 * math.pi + 0.25 * math.pi)
                        for s, m in zip(signs, orders))
            scale = amp * cmath.exp(-1j * phase)
            prod = [scale * c for c in _convolve(c12, c3s)]
            patterns.append((sum(s * k for s, k in zip(signs, ks)), prod))

    def tail(x0: float) -> float:
        x0_powers = [x0 ** (power - 0.5 - j) for j in range(_TAIL_TERMS + 1)]
        total = 0j
        for w, prod in patterns:
            ladder = specfun.expint_e_ladder(p0, _TAIL_TERMS + 1, -1j * w * x0)
            total += sum(c * x * e for c, x, e in zip(prod, x0_powers, ladder))
        return total.real
    return tail


def _require_wavenumbers(*ks: float) -> None:
    for k in ks:
        if not 0.0 < k < math.inf:
            raise InvalidArgumentError("wavenumbers must be > 0 and finite")


def _triple_bessel_oracle(k1: float, k2: float, k3: float, m1: int, m2: int,
                          m3: int, power: int) -> quadrature.QuadResult:
    """int_0^inf J_m1(k1 R) R^power J_m2(k2 R) J_m3(k3 R) dR: a finite body
    plus the closed-form Hankel tail through
    quadrature.integrate_bessel_semiinfinite (ConvergenceError past its
    SEMIINFINITE_TOL), InvalidArgumentError unless each 0 < k < inf.

    The Hankel expansion of order m holds once k x >~ m^2, so each factor
    asks for x_a >= max(12, m^2) / k and x_b >= max(16, m^2 + 4) / k, and
    the cut-offs are the largest of these.  The rule is measured, not
    derived: a per-factor bound from the size of the last Hankel term, or
    m^2 / 2, missed on high-order points."""
    _require_wavenumbers(k1, k2, k3)

    def f(R: float) -> float:
        if R == 0.0:
            return 0.0
        return (specfun.bessel_j(m1, k1 * R) * R ** power
                * specfun.bessel_j(m2, k2 * R) * specfun.bessel_j(m3, k3 * R))

    ks, orders = (k1, k2, k3), (m1, m2, m3)
    x_a = max(max(12.0, m * m) / k for m, k in zip(orders, ks))
    x_b = max(max(16.0, m * m + 4.0) / k for m, k in zip(orders, ks))
    tail = _triple_bessel_tail(ks, orders, power)
    return quadrature.integrate_bessel_semiinfinite(
        f, k1 + k2 + k3, (x_a, x_b), tail)


def _graf_closed_form(k1: float, k2: float, k3: float, m1: int, m2: int,
                      m3: int) -> Optional[quadrature.QuadResult]:
    """int_0^inf J_m1(k1 R) J_m2(k2 R) J_m3(k3 R) R dR in closed form when
    the orders form a Graf triple, +-m_i = m_j + m_l; None otherwise.

    Graf's addition theorem (DLMF 10.23.7) and the Hankel closure
    int_0^inf J_nu(c t) J_nu(c' t) t dt = delta(c - c') / c give, for all
    integers nu and k,

        int_0^inf J_{nu+k}(a t) J_k(b t) J_nu(c t) t dt
            = cos(nu chi - k gamma) / (2 pi Delta)

    inside the triangle of sides a, b, c and 0 outside it: Delta is its
    area, gamma the angle between sides a and b, chi that between a and c.
    J_{-n} = (-1)^n J_n covers -m_i = m_j + m_l.  Kahan's needle-safe
    factors 2(s - side) decide inside, outside and a zero beat exactly,
    and give the area and the half-angle tangents tan(theta/2) =
    sqrt(F_j F_l / (F_s F_i)) to a few ulps.  The estimate is rounding:
    a few ulps of each angle times the orders, and of the area.  A zero
    beat (Delta = 0) diverges, and an area below the smallest normal
    float puts the value past ~1e307: both InvalidArgumentError."""
    _require_wavenumbers(k1, k2, k3)
    ks, ms = (k1, k2, k3), (m1, m2, m3)
    for i, s in ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)):
        j, l = (i + 1) % 3, (i + 2) % 3
        if s * ms[i] == ms[j] + ms[l]:
            break
    else:
        return None
    sign = -1.0 if s < 0 and ms[i] % 2 else 1.0
    nu, k = ms[l], ms[j]
    sides = (ks[i], ks[j], ks[l])  # a, b, c
    rank = sorted(range(3), key=lambda t: -sides[t])
    x, y, z = (sides[t] for t in rank)
    factors = (z - (x - y), z + (x - y), x + (y - z))
    if factors[0] < 0.0:
        return quadrature.QuadResult(0.0, 0.0, 0, True)
    if factors[0] == 0.0:
        raise InvalidArgumentError(
            "zero beat (degenerate momentum triangle): the integral diverges")
    root = [0.0] * 3
    for t, f in zip(rank, factors):
        root[t] = math.sqrt(f)
    root_s = math.sqrt(x + (y + z))
    gamma = 2.0 * math.atan2(root[0] * root[1], root_s * root[2])
    chi = 2.0 * math.atan2(root[0] * root[2], root_s * root[1])
    two_pi_area = 0.5 * math.pi * (root_s * root[0]) * (root[1] * root[2])
    if two_pi_area < sys.float_info.min:
        raise InvalidArgumentError(
            "momentum triangle area underflows: the integral leaves the "
            "float range")
    return quadrature.QuadResult(
        sign * math.cos(nu * chi - k * gamma) / two_pi_area,
        2.0 ** -52 * (4.0 * math.pi * (abs(nu) + abs(k)) + 8.0) / two_pi_area,
        0, True)


def _recoil_integral(k1: float, k2: float, k3: float, m1: int, m2: int,
                     m3: int, power: int) -> quadrature.QuadResult:
    """int_0^inf J_m1(k1 R) R^power J_m2(k2 R) J_m3(k3 R) dR: Graf's closed
    form at power 1 for a Graf triple of orders, else body plus tail.
    InvalidArgumentError unless the orders are integers."""
    if not all(hasattr(m, "__index__") for m in (m1, m2, m3)):
        raise InvalidArgumentError("Bessel orders must be integers")
    if power == 1:
        r = _graf_closed_form(k1, k2, k3, m1, m2, m3)
        if r is not None:
            return r
    return _triple_bessel_oracle(k1, k2, k3, m1, m2, m3, power)


def triple_bessel(k_perp: float, k_perp_R: float, k_perp_Rp: float,
                  m: int, m_R: int, n: int) -> quadrature.QuadResult:
    """Semi-infinite triple-Bessel integral

        int_0^inf J_m(k R) R^{1-n} J_{m_R}(k^R R) J_{m_R+m-n}(k^R' R) dR.

    At n = 0 the orders form a Graf triple: the closed form
    cos(nu chi - k gamma) / (2 pi Delta) inside the momentum triangle,
    exactly 0 outside it, in no integrand evaluation and to rounding (see
    _graf_closed_form).  At n >= 1, a finite body plus the closed-form
    Hankel tail, from cut-offs that grow with the orders; ConvergenceError
    (the QuadResult as ``partial``) when its error estimate exceeds
    quadrature.SEMIINFINITE_TOL = 1e-9.  For n <= m + m_R it vanishes
    (transverse momentum conservation) whenever k^R' > k + k^R; at
    n = m + m_R + 1 the third order is -1 and it need not.  A degenerate
    triangle (a zero beat, e.g. k^R' = k + k^R) raises InvalidArgumentError
    at n = 0, where the integral diverges; at n >= 1 body plus tail
    integrates the non-oscillating tail terms in closed form.
    """
    if n < 0:
        raise InvalidArgumentError("n must be >= 0")
    if n > m + m_R + 1:
        raise InvalidArgumentError(
            f"n = {n} > m + m_R + 1 = {m + m_R + 1}: integral not convergent")
    return _recoil_integral(k_perp, k_perp_R, k_perp_Rp,
                            m, m_R, m_R + m - n, 1 - n)


_CANDIDATE_MAX_TERMS = 4000


def triple_bessel_candidate(k_perp: float, k_perp_R: float, k_perp_Rp: float,
                            m: int, m_R: int, n: int) -> CandidateComparison:
    """The printed double series for the triple-Bessel integral, evaluated
    verbatim (known to be dimensionally suspect; reported, not trusted):

        2^{-n+2} k^m (k^R)^{m_R} (k^R')^{m+m_R-2} G(3(m_R+m-n)/2 + 2)
        / (m! m_R!) * sum_{u,v} (m_R+m-n+1)_{u+v}
        / ((1+m)_u (1+m_R)_v u! v!) x^u y^v,

    x = (k/k^R')^2, y = (k^R/k^R')^2, vs triple_bessel's value and estimate
    as the oracle."""
    r = triple_bessel(k_perp, k_perp_R, k_perp_Rp, m, m_R, n)
    x = (k_perp / k_perp_Rp) ** 2
    y = (k_perp_R / k_perp_Rp) ** 2
    c = m_R + m - n + 1
    pref = (2.0 ** (-n + 2) * k_perp ** m * k_perp_R ** m_R
            * k_perp_Rp ** (m + m_R - 2)
            * math.gamma(1.5 * (m_R + m - n) + 2.0)
            / (math.factorial(m) * math.factorial(m_R)))
    total = 0.0
    converged = False
    prev_shell = math.inf
    for shell in range(200):
        if (shell + 1) * (shell + 2) // 2 > _CANDIDATE_MAX_TERMS:
            break  # the terms through this shell would pass the cap
        shell_sum = 0.0
        for u in range(shell + 1):
            w = shell - u
            shell_sum += (specfun.pochhammer(c, u + w)
                          / (specfun.pochhammer(1.0 + m, u)
                             * specfun.pochhammer(1.0 + m_R, w)
                             * math.factorial(u) * math.factorial(w))
                          * x ** u * y ** w)
        total += shell_sum
        if abs(shell_sum) < 1e-14 * abs(total) + 1e-300:
            converged = True
            break
        if shell > 5 and abs(shell_sum) > 4.0 * prev_shell:
            break
        prev_shell = abs(shell_sum) if shell_sum != 0.0 else prev_shell
    return CandidateComparison(r.value, r.abs_error_estimate, pref * total,
                               converged)


_TAIL_TOL = 1e-16  # the bound on the tail the trapped overlaps' cut-off drops
_LOG_MAX = math.log(sys.float_info.max)


@functools.lru_cache(maxsize=256)
def _tail_cutoff(weight: float, p: int, n1: int, a1: int, n2: int,
                 a2: int) -> Tuple[float, float]:
    """(X, T(X)): X the least x >= sqrt(s), s = max(p - 1, 0) + 2 (n1 + n2),
    to 1e-12 from above, with T(x) = weight x^(p-1) e^(-x^2) L_n1^a1(-x^2)
    L_n2^a2(-x^2) / (2 - s/x^2) <= _TAIL_TOL.  T bounds the tail, and falls
    with x, by |J| <= 1, |L_n^a(u)| <= L_n^a(-u) (a >= 0), t^p <= x^p (p < 0)
    and Gamma(b, y) <= y^(b-1) e^(-y) / (1 - (b-1)/y) for y > b - 1 >= 0.
    InvalidArgumentError, before any evaluation, where floats end: a weight
    that underflowed to 0, a bound that overflows (L_n^a(-x^2), from n ~ 240
    at a = 0) or an integrand whose x^p overflows below X (p ln X > ln of
    the largest float, from a1 = a2 = 128 at n = 0)."""
    indices = f"p = {p}, (n, a) = ({n1}, {a1}) and ({n2}, {a2})"
    if not weight > 0.0:
        raise InvalidArgumentError(f"the weight underflowed to 0 at {indices}")
    s = max(p - 1, 0) + 2 * (n1 + n2)
    def log_t(x: float) -> float:  # log(T(x) / _TAIL_TOL)
        u = x * x
        return (math.log(weight / _TAIL_TOL / (2.0 - s / u)) + (p - 1) * math.log(x)
                - u + math.log(specfun._laguerre(n1, a1, -u))
                + math.log(specfun._laguerre(n2, a2, -u)))

    lo = hi = math.sqrt(max(s, 1))
    while log_t(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if log_t(mid) > 0.0 else (lo, mid)
    tail = _TAIL_TOL * math.exp(log_t(hi))
    if not math.isfinite(tail):
        raise InvalidArgumentError(f"the tail bound overflows a float at {indices}")
    if p * math.log(hi) > _LOG_MAX:
        raise InvalidArgumentError(
            f"x^p overflows a float below the cut-off {hi:.6g} at {indices}")
    return hi, tail


def _laguerre_gauss_bessel(weight: float, p: int, n1: int, a1: int, n2: int,
                           a2: int, nu: int, k_alpha: float
                           ) -> quadrature.QuadResult:
    """int_0^inf weight x^p e^{-x^2} L_n1^a1(x^2) L_n2^a2(x^2) J_nu(k_alpha x)
    dx (x = R / alpha), the trapped overlaps' one integral, up to _tail_cutoff's
    X on panels at most three periods 2 pi / (k alpha) wide; the estimate adds
    T(X).  The weight (the states' norm for icm0, else 1) binds FINITE_TOL to
    the value.  n1, a1, n2, a2: integers >= 0, which the callers check."""
    x_max, tail = _tail_cutoff(weight, p, n1, a1, n2, a2)
    laguerre = specfun._laguerre
    def f(x: float) -> float:
        u = x * x
        return (weight * x ** p * math.exp(-u) * laguerre(n1, a1, u)
                * laguerre(n2, a2, u) * specfun.bessel_j(nu, k_alpha * x))

    value, err, evals, ok = quadrature.integrate_finite(
        f, 0.0, x_max, max(1, math.ceil(x_max * k_alpha / (6.0 * math.pi))))
    return quadrature.QuadResult(value, err + tail, evals, ok)


def axial_momentum_constraint(cm_in: CenterOfMassState, k_z: float) -> float:
    """Axial momentum conservation for free states: the final k_z^R the
    delta distribution enforces (k_z^R' = k_z^R - k_z).  Carried as a
    constraint, never discretized."""
    return cm_in.k_z_R - k_z


def icm0(cm_in: CenterOfMassState, cm_out: CenterOfMassState,
         k_perp: float, k_z: float, order: int) -> complex:
    """Radial center-of-mass overlap I_CM^(0) against J_order(k_perp R).

    Free Bessel states: the conditionally convergent triple-Bessel radial
    integral; the axial delta is reported via axial_momentum_constraint,
    not folded into the value.  When the orders form a Graf triple
    (m_R' = m_R +- order, every overlap dipole_amplitude and
    spin_matrix_element make, or another signed sum of the three orders
    that vanishes) it is Graf's closed form, exact to rounding and 0
    outside the momentum triangle; otherwise body plus Hankel tail, with
    ConvergenceError (the QuadResult as ``partial``) when its error
    estimate exceeds quadrature.SEMIINFINITE_TOL.  InvalidArgumentError
    unless 0 < k_perp < inf, and at a zero beat (k_perp +- k_R +- k_R' = 0),
    where the integral diverges.
    Trapped states: _laguerre_gauss_bessel (one derived cut-off) in x = R /
    alpha, weighted by the states' norm 2 sqrt(n_bar! / (n_bar + |m_R|)!)
    sqrt(n_bar'! / (n_bar' + |m_R'|)!), each root taken apart so that the
    norm stays normal to |m_R| ~ 170, and so that the tolerance binds the
    overlap itself; InvalidArgumentError unless 0 <= k_perp < inf, and,
    naming the states, where _tail_cutoff finds no float cut-off.
    """
    if cm_in.variant != cm_out.variant:
        raise InvalidArgumentError("center-of-mass variants must match")
    if cm_in.variant == FREE_BESSEL:
        return complex(_recoil_integral(
            k_perp, cm_in.k_perp_R, cm_out.k_perp_R,
            order, cm_in.m_R, cm_out.m_R, 1).value)
    if cm_in.alpha != cm_out.alpha:
        raise InvalidArgumentError("trapped states must share the trap alpha")
    if not 0.0 <= k_perp < math.inf:
        raise InvalidArgumentError(
            f"trapped icm0 needs 0 <= k_perp < inf, got {k_perp!r}")
    (n1, a1), (n2, a2) = ((s.n_bar, abs(s.m_R)) for s in (cm_in, cm_out))
    norm = (2.0 * math.sqrt(math.factorial(n1) / math.factorial(n1 + a1))
            * math.sqrt(math.factorial(n2) / math.factorial(n2 + a2)))
    try:
        r = _laguerre_gauss_bessel(norm, 1 + a1 + a2, n1, a1, n2, a2, order,
                                   k_perp * cm_in.alpha)
    except InvalidArgumentError as e:
        raise InvalidArgumentError(
            f"trapped icm0 of the states (m_R, n_bar) = ({cm_in.m_R}, {n1}) "
            f"and ({cm_out.m_R}, {n2}): {e}") from None
    return complex(r.value)


def ho_gauss_bessel_candidate(nu: int, lam: int, eta: int, sigma: int,
                              alpha: float, k: float) -> CandidateComparison:
    """Printed closed form for the Laguerre-Gauss-Bessel integral

        int_0^inf x^{nu+1} e^{-x^2/a^2} L_lam^{nu-sigma}(x^2/a^2)
                  L_eta^{sigma}(x^2/a^2) J_nu(k x) dx

    (a = alpha) vs the quadrature oracle, a^{nu+2} times
    _laguerre_gauss_bessel in x / a (value and estimate, with the tail's
    bound, alike).  Only the Gaussian/Laguerre structure of the candidate
    is trustworthy; its prefactor is dimensionally off.
    InvalidArgumentError unless the indices are integers, lam, eta >= 0,
    0 <= sigma <= nu, 0 < alpha < inf and 0 <= k < inf.
    """
    if not (all(hasattr(v, "__index__") for v in (nu, lam, eta, sigma))
            and lam >= 0 and eta >= 0 and 0 <= sigma <= nu
            and 0.0 < alpha < math.inf and 0.0 <= k < math.inf):
        raise InvalidArgumentError("need integers lam, eta >= 0, 0 <= sigma "
                                   "<= nu, 0 < alpha < inf and 0 <= k < inf")
    r = _laguerre_gauss_bessel(1.0, nu + 1, lam, nu - sigma, eta, sigma, nu,
                               k * alpha).scaled(alpha ** (nu + 2))
    z = 0.25 * (alpha * k) ** 2
    cand = ((-1.0) ** (lam + eta) * (2.0 / math.sqrt(alpha)) ** (-nu - 1)
            * k ** nu * math.exp(-z)
            * specfun.laguerre(eta, sigma - lam - eta, z)
            * specfun.laguerre(lam, nu - sigma + lam - eta, z))
    return CandidateComparison(oracle=r.value, oracle_error=r.abs_error_estimate,
                               candidate=cand, candidate_converged=True)


def _require_vortex_args(n_bar: int, alpha: float, k_perp: float, m: int,
                         n: int) -> None:
    """Both vortex evaluators' check: the trapped states' domain.  Every
    n <= m converges, the integrand going as R^{2m-2n+1} near 0."""
    if not (all(hasattr(v, "__index__") for v in (n_bar, m, n))
            and n_bar >= 0 and 0 <= n <= m
            and 0.0 < alpha < math.inf and 0.0 <= k_perp < math.inf):
        raise InvalidArgumentError("need integers n_bar >= 0 and 0 <= n <= m, "
                                   "0 < alpha < inf and 0 <= k < inf")


def ho_vortex_integral(n_bar: int, alpha: float, k_perp: float,
                       m: int, n: int) -> quadrature.QuadResult:
    """Vortex-overlap integral (decaying Gaussian; the printed growing
    exponential is unnormalizable), with its estimate:

        int_0^inf R^{m-2n+1} e^{-R^2/alpha^2} J_m(k R)
                  L_{n_bar}^{m-n}(R^2/alpha^2) dR,
    alpha^{m-2n+2} times _laguerre_gauss_bessel in x = R / alpha (value and
    estimate, with the tail's bound, alike: both hold at every alpha).
    """
    _require_vortex_args(n_bar, alpha, k_perp, m, n)
    return _laguerre_gauss_bessel(
        1.0, m - 2 * n + 1, n_bar, m - n, 0, 0, m,
        k_perp * alpha).scaled(alpha ** (m - 2 * n + 2))


def ho_vortex_series(n_bar: int, alpha: float, k_perp: float,
                     m: int, n: int) -> specfun.SeriesResult:
    """Closed-form series for ho_vortex_integral, rederived from the
    Bessel power series (the printed prefactor confuses n with n_bar and
    drops alpha powers; the inner sum is the printed one):

        alpha^{2(m-n+1)} (k/2)^m (k alpha / 2)^{2 n_bar} / (2 n_bar!)
        * sum_r (m + n_bar - n + r)! / ((m + n_bar + r)! r!) (-z)^r,

    z = k^2 alpha^2 / 4.  Kummer's transformation (DLMF 13.2.39) sums it as
    (m+n_bar-n)!/(m+n_bar)! e^{-z} 1F1(n; m+n_bar+1; z): positive terms,
    so no digits are lost to cancellation at large k alpha.  The e^{-z}
    enters each term in log space (specfun.hyp1f1_scaled), so past z ~ 709
    neither it nor the terms leave the float range.
    """
    _require_vortex_args(n_bar, alpha, k_perp, m, n)
    z = 0.25 * (k_perp * alpha) ** 2
    pref = (alpha ** (2 * (m - n + 1)) * (0.5 * k_perp) ** m
            * z ** n_bar / (2.0 * math.factorial(n_bar))
            * math.factorial(m + n_bar - n) / math.factorial(m + n_bar))
    s = specfun.hyp1f1_scaled(n, m + n_bar + 1, z)
    return specfun.SeriesResult(value=pref * s.value, terms_used=s.terms_used,
                                truncation_estimate=abs(pref) * s.truncation_estimate)


def ho_vortex_candidate(n_bar: int, alpha: float, k_perp: float,
                        m: int, n: int) -> CandidateComparison:
    """Printed Eq-form candidate (verbatim prefactor) for the vortex
    integral, compared against the quadrature oracle scaled by the
    paper's (sqrt(alpha))^{n-m} definition factor."""
    quad = ho_vortex_integral(n_bar, alpha, k_perp, m, n).scaled(
        math.sqrt(alpha) ** (n - m))
    z = 0.25 * (k_perp * alpha) ** 2
    pref = (k_perp ** (m + 2 * n)
            / (2.0 ** (m + 2 * n + 1) * math.factorial(n_bar)
               * math.sqrt(alpha) ** (-n_bar - 1)))
    # The printed alternating inner sum, verbatim, to a 1e-14 relative term.
    term = math.factorial(m + n_bar - n) / math.factorial(m + n_bar)
    total = term
    converged = False
    for r in range(specfun.MAX_TERMS):
        term *= -z * (m + n_bar - n + r + 1) / ((m + n_bar + r + 1) * (r + 1))
        if abs(term) < 1e-14 * abs(total) + 1e-300:
            converged = True
            break
        total += term
    return CandidateComparison(oracle=quad.value,
                               oracle_error=quad.abs_error_estimate,
                               candidate=pref * total,
                               candidate_converged=converged)


# ---------------------------------------------------------------------------
# Internal (relative-coordinate) integral
# ---------------------------------------------------------------------------

def radial_dipole_integral(int_in: InternalState,
                           int_out: InternalState) -> float:
    """int r^3 Theta_F(r) Theta_0(r) dr by adaptive quadrature."""
    r_max = max(int_in.r_max, int_out.r_max)
    f = lambda r: r ** 3 * int_out.radial(r) * int_in.radial(r)
    return quadrature.integrate_finite(f, 0.0, r_max).value


def i_rel(int_in: InternalState, int_out: InternalState, j: int) -> float:
    """Dipole internal matrix element: the printed angular selection
    factor (primed = final state; the parity-partner branch of the j = 0
    bracket carries the evidently omitted Kronecker delta) times the
    radial integral int r^3 Theta_F Theta_0 dr.

    With its |m_r|, the printed factor is non-zero for one built-in pair
    alone, 2p_0 -> 1s at j = 0 (1.290): every sigma transition
    2p_{+-1} -> 1s and every 1s -> 2p absorption gives exactly 0, although
    r is Hermitian, so <1s|r_j|2p_m> != 0.  Whether the paper prints this
    or the factor was mis-transcribed cannot be told from its abstract;
    the factor is kept as printed until it can."""
    if j not in (-1, 0, 1):
        raise InvalidArgumentError("j must be in {-1, 0, +1}")
    l0, lf = int_in.l_r, int_out.l_r
    m0, mf = abs(int_in.m_r), abs(int_out.m_r)
    if j == 0:
        ang = 0.0
        if int_in.m_r == int_out.m_r:
            if l0 == lf + 1:
                ang += lf - m0 + 1.0
            if l0 == lf - 1:
                ang += lf - m0 - 1.0
    else:
        ang = 0.0
        if l0 == lf + 1 and m0 == mf - 1:
            ang += 1.0
        if l0 == lf - 1 and m0 == mf + 1:
            ang -= 1.0
    ang /= (2.0 * lf + 1.0)
    if ang == 0.0:
        return 0.0
    return ang * radial_dipole_integral(int_in, int_out)


# ---------------------------------------------------------------------------
# Amplitude assembly
# ---------------------------------------------------------------------------

def dipole_amplitude(mode: ModeSpec, cm_in: CenterOfMassState,
                     cm_out: CenterOfMassState, int_in: InternalState,
                     int_out: InternalState,
                     charges_masses: DipoleCouplings = DipoleCouplings(),
                     direction: str = "emission") -> List[ChannelAmplitude]:
    """Dipole-order H_I1 amplitudes for the channels compatible with the
    supplied state pair.  Channels violating
    delta_m_R + delta_m_r = -m (emission) are simply absent.
    """
    pref, terms = _bracket(mode, "dipole", direction == "emission")
    if cm_in.variant != cm_out.variant:
        raise InvalidArgumentError("center-of-mass variants must match")
    if direction not in ("emission", "absorption"):
        raise InvalidArgumentError("direction must be emission or absorption")
    # sigma is d_m_r; psi_mu (absorption) carries e^{i mu phi_R}, conj psi_mu
    # (emission) e^{-i mu phi_R}.  i_rel takes the slot, sign * sigma.
    sign = -1 if direction == "emission" else 1
    d_m_r = int_out.m_r - int_in.m_r
    d_m_R = cm_out.m_R - cm_in.m_R
    out: List[ChannelAmplitude] = []
    for mu, sigma, c in terms:
        if d_m_r != sigma or d_m_R != sign * mu:
            continue
        coupling = pref * c * (-1j) * charges_masses.q_e * charges_masses.energy_scale
        cm_val = icm0(cm_in, cm_out, mode.k_perp, mode.k_z, mu)
        rel_val = i_rel(int_in, int_out, sign * sigma)
        amp = coupling * cm_val * rel_val
        ch = Channel(delta_m_R=d_m_R, delta_m_r=d_m_r, delta_spin_e=0,
                     mode_kind=mode.kind, order=DIPOLE)
        out.append(ChannelAmplitude(channel=ch, amplitude=amp,
                                    cm_integral=cm_val, rel_integral=rel_val,
                                    coupling=coupling))
    return out


def spin_matrix_element(mode: ModeSpec, particle: SpinParticle,
                        spin_in: float, spin_out: float,
                        cm_in: CenterOfMassState, cm_out: CenterOfMassState,
                        int_in: InternalState, int_out: InternalState
                        ) -> Optional[ChannelAmplitude]:
    """H_I3 (spin) emission amplitude; None when the azimuthal
    bookkeeping forbids the transition or the internal spatial state
    changes (it must not at this order).  Both spin projections must be
    +/- 1/2, so the spin changes by -1, 0 or +1, and the center-of-mass
    variants must match (InvalidArgumentError otherwise)."""
    if abs(spin_in) != 0.5 or abs(spin_out) != 0.5:
        raise InvalidArgumentError("spin-1/2 projections must be +/- 1/2")
    pref, terms = _bracket(mode, "spin")
    if cm_in.variant != cm_out.variant:
        raise InvalidArgumentError("center-of-mass variants must match")
    if (int_in.l_r, int_in.m_r) != (int_out.l_r, int_out.m_r):
        return None
    d_spin = int(spin_out - spin_in)
    d_m_R = cm_out.m_R - cm_in.m_R
    # sigma is the spin change, and conj psi_mu carries e^{-i mu phi_R}.
    for mu, sigma, c in terms:
        if d_spin != sigma or d_m_R != -mu:
            continue
        # spin ladder matrix element: S_+- flip = 1, S_z diagonal = s_z
        ladder = 1.0 if d_spin != 0 else spin_in
        coupling = (pref * c * (particle.g * particle.q / (2.0 * particle.M))
                    * ladder)
        cm_val = icm0(cm_in, cm_out, mode.k_perp, mode.k_z, mu)
        ch = Channel(delta_m_R=d_m_R, delta_m_r=0, delta_spin_e=d_spin,
                     mode_kind=mode.kind, order=DIPOLE)
        return ChannelAmplitude(channel=ch, amplitude=coupling * cm_val,
                                cm_integral=cm_val, rel_integral=1.0,
                                coupling=coupling)
    return None
