"""Independent references for the benchmark's correctness checks.

Nothing here calls twistkit: Bessel values come from mpmath and the
field, expansion and selection-rule references are written out from
their defining formulas, so a defect in the package cannot cancel in
the comparison.  mpmath is imported lazily, after the timed loop, so it
never counts towards set-up time or the timed region.
"""

from __future__ import annotations

import cmath
import math


def _mp():
    import mpmath
    return mpmath


def besselj(order: int, x: float) -> float:
    """J_order(x) for any integer order, from mpmath at double precision."""
    return float(_mp().besselj(order, x))


# ---------------------------------------------------------------------------
# recoil_scan: triple-Bessel integral
# ---------------------------------------------------------------------------

def triangle_area(a: float, b: float, c: float) -> float:
    s = 0.5 * (a + b + c)
    return math.sqrt(max(s * (s - a) * (s - b) * (s - c), 0.0))


def sonine_gegenbauer(nu: int, a: float, b: float, c: float) -> float:
    """int_0^inf J_nu(at) J_nu(bt) J_nu(ct) t^{1-nu} dt inside the
    triangle |a-b| < c < a+b (Jackson & Maximon, SIAM J. Math. Anal. 3,
    446 (1972)):  2^{nu-1} D^{2nu-1} / ((abc)^nu G(nu+1/2) sqrt(pi)),
    D the area of the triangle with sides a, b, c."""
    area = triangle_area(a, b, c)
    return (2.0 ** (nu - 1) * area ** (2 * nu - 1)
            / ((a * b * c) ** nu * math.gamma(nu + 0.5) * math.sqrt(math.pi)))


def _hankel_poly(mp, nu, k, terms):
    """Coefficients of P(u) = sum_j i^j a_j(nu) (u/k)^j, the Hankel
    asymptotic series of H^(1)_nu(k R) in u = 1/R."""
    out = []
    a = mp.mpf(1)
    for j in range(terms + 1):
        if j > 0:
            a = a * (4 * nu * nu - (2 * j - 1) ** 2) / (8 * j)
        out.append(mp.mpc((1j) ** j) * a / mp.mpf(k) ** j)
    return out


def _polymul(mp, p, q, terms):
    r = [mp.mpc(0)] * (terms + 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i + j > terms:
                break
            r[i + j] += a * b
    return r


def _asymptotic_tail(mp, ks, nus, n, x0, terms):
    """int_{x0}^inf J_a(k1 R) J_b(k2 R) J_c(k3 R) R^{1-n} dR from the
    Hankel expansions J = (H + conj H)/2: every sign pattern gives
    R^{-(n+1/2+j)} e^{i w R} pieces, integrated exactly through
    int_{x0}^inf R^{-p} e^{iwR} dR = x0^{1-p} E_p(-i w x0)."""
    polys = [_hankel_poly(mp, nu, k, terms) for nu, k in zip(nus, ks)]
    total = mp.mpc(0)
    for signs in [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]:
        omega = sum(s * k for s, k in zip(signs, ks))
        pref = mp.mpf(1) / 8
        phase = mp.mpf(0)
        prod = [mp.mpc(1)]
        for s, k, nu, poly in zip(signs, ks, nus, polys):
            pref *= mp.sqrt(2 / (mp.pi * k))
            phase += s * (-nu * mp.pi / 2 - mp.pi / 4)
            prod = _polymul(mp, prod, poly if s == 1 else [mp.conj(c) for c in poly],
                            terms)
        for j, cj in enumerate(prod):
            p = n + mp.mpf(1) / 2 + j
            total += (pref * mp.expj(phase) * cj * x0 ** (1 - p)
                      * mp.expint(p, -1j * omega * x0))
    return total.real


def triple_bessel_mp(k1: float, k2: float, k3: float, m: int, m_R: int, n: int,
                     x_max: float = 60.0, terms: int = 24, dps: int = 20) -> float:
    """int_0^inf J_m(k1 R) R^{1-n} J_{m_R}(k2 R) J_{m_R+m-n}(k3 R) dR.

    mpmath quadrature over half-period cells up to about x_max, plus the
    exact integral of the Hankel asymptotic expansion beyond it.  Needs
    every beat frequency +-k1 +-k2 +-k3 to be nonzero (no degenerate
    triangle)."""
    mp = _mp()
    with mp.workdps(dps):
        ks = (mp.mpf(k1), mp.mpf(k2), mp.mpf(k3))
        third = m_R + m - n
        f = lambda R: (mp.besselj(m, ks[0] * R) * mp.besselj(m_R, ks[1] * R)
                       * mp.besselj(third, ks[2] * R) * R ** (1 - n))
        h = mp.pi / sum(ks)
        cells = int(mp.ceil(x_max / h))
        points = [h * j for j in range(cells + 1)]
        body = mp.quad(f, points)
        tail = _asymptotic_tail(mp, ks, (m, m_R, third), n, points[-1], terms)
        return float(body + tail)


# ---------------------------------------------------------------------------
# pointwise_mix: fields, displaced profile, trapped overlap
# ---------------------------------------------------------------------------

def _psi(order, k_perp, rho, phi, bessel=besselj):
    return bessel(order, k_perp * rho) * cmath.exp(1j * order * phi)


def _circular(plus, minus, axial):
    # plus multiplies (e_x + i e_y), minus multiplies (e_x - i e_y)
    return (plus + minus, 1j * (plus - minus), axial)


def _elementary_fields(kind, m, k_perp, k_z, rho, phi, z, t, bessel):
    """(A, B) Cartesian components of a TE or TM mode:

        A_TM = g E0/(2w)   [p_{m-1} e+ - p_{m+1} e- - i (2k/kz) p_m e_z]
        A_TE = g i E0/(2kz) [p_{m-1} e+ + p_{m+1} e-]
        B_TM = g E0 w/(2kz) [p_{m-1} e+ + p_{m+1} e-]
        B_TE = g i E0/2    [p_{m-1} e+ - p_{m+1} e- - i (2k/kz) p_m e_z]

    with p_mu = J_mu(k rho) e^{i mu phi}, e+- = e_x +- i e_y,
    g = e^{i(kz z - w t)}, E0 = sqrt((k/2pi) kz^2/w^2)."""
    w = math.hypot(k_perp, k_z)
    e0 = math.sqrt((k_perp / (2.0 * math.pi)) * k_z * k_z / (w * w))
    g = cmath.exp(1j * (k_z * z - w * t))
    pm1 = _psi(m - 1, k_perp, rho, phi, bessel)
    pp1 = _psi(m + 1, k_perp, rho, phi, bessel)
    p0 = _psi(m, k_perp, rho, phi, bessel)
    axial = -1j * (2.0 * k_perp / k_z) * p0
    if kind == "tm":
        a = g * e0 / (2.0 * w)
        b = g * e0 * w / (2.0 * k_z)
        return (_circular(a * pm1, -a * pp1, a * axial),
                _circular(b * pm1, b * pp1, 0.0))
    a = g * 1j * e0 / (2.0 * k_z)
    b = g * 1j * e0 / 2.0
    return (_circular(a * pm1, a * pp1, 0.0),
            _circular(b * pm1, -b * pp1, b * axial))


def mode_fields(kind, m, k_perp, k_z, rho, phi, z, t, bessel=besselj):
    """(A, E, B) of a TE/TM/L/R mode; L/R are c_tm TM + c_te TE of base
    order m+1 (L) or m-1 (R), c_tm = sqrt(1 + kz^2/w^2)/2,
    c_te = -+ i (kz/w) c_tm; E = i w A.  ``bessel(order, x)`` supplies the
    Bessel values (a constant 1 gives the mode's natural amplitude)."""
    w = math.hypot(k_perp, k_z)
    if kind in ("tm", "te"):
        a, b = _elementary_fields(kind, m, k_perp, k_z, rho, phi, z, t, bessel)
    else:
        c_tm = math.sqrt(1.0 + (k_z * k_z) / (w * w)) / 2.0
        c_te = (-1j if kind == "l" else 1j) * (k_z / w) * c_tm
        base = m + 1 if kind == "l" else m - 1
        a_tm, b_tm = _elementary_fields("tm", base, k_perp, k_z, rho, phi, z, t, bessel)
        a_te, b_te = _elementary_fields("te", base, k_perp, k_z, rho, phi, z, t, bessel)
        a = tuple(c_tm * x + c_te * y for x, y in zip(a_tm, a_te))
        b = tuple(c_tm * x + c_te * y for x, y in zip(b_tm, b_te))
    e = tuple(1j * w * x for x in a)
    return a, e, b


def displaced_profile(m, k_perp, R, phi_R, q, phi_q):
    """J_m(k rho) e^{i m phi_rho} with rho e^{i phi_rho} = R e^{i phi_R} - q e^{i phi_q}."""
    d = R * cmath.exp(1j * phi_R) - q * cmath.exp(1j * phi_q)
    phi = cmath.phase(d) if abs(d) > 0.0 else 0.0
    return _psi(m, k_perp, abs(d), phi)


def trapped_ground_overlap(k_perp, alpha):
    """Normalized overlap of two 2-D oscillator ground states against
    J_0(k R): (2/alpha^2) int R e^{-R^2/alpha^2} J_0(kR) dR = e^{-k^2 alpha^2/4}."""
    return math.exp(-0.25 * (k_perp * alpha) ** 2)


# ---------------------------------------------------------------------------
# selection_tables: Fourier coefficients of the expansion-term integrand
# ---------------------------------------------------------------------------

# (mu offset from m, sigma, coupling) of the conjugated field components:
# H_I1 dots A* with r, H_I3 pairs B* with the spin ladder (k_perp/k_z = 1).
_COMPONENTS = {
    ("dipole", "tm"): ((-1, -1, 1.0), (+1, +1, -1.0), (0, 0, 2j)),
    ("dipole", "te"): ((-1, -1, 1.0), (+1, +1, 1.0)),
    ("spin", "tm"): ((-1, -1, 1.0), (+1, +1, 1.0)),
    ("spin", "te"): ((-1, -1, 1.0), (+1, +1, -1.0), (0, 0, 2j)),
}


def channel_coefficients(m, kind, interaction, order, kr_R=1.3, kr_q=0.7):
    """Double Fourier coefficients over (phi_R, phi_r), keyed by
    (delta_m_R, delta_m_r, delta_spin), of the conjugated expansion term
    (n, v, s) summed over the mode's field components.

    A component psi_mu contributes, with a = |mu|, sg = sign(mu) and
    w = v - 2s, the radial weight
        (+-1)^a J_{a+v}(kR) J_{a+v}(kq) C(a, n) (kq/kR)^n
    times cos(w (phi_R - phi_r)) e^{-i sg ((a-n) phi_R + n phi_r)}
    (at a = 0 only n = s = 0 exists: (2 - d_v0) J_v J_v cos(v(phi_R - phi_r))).
    The cosine splits into two bins of half weight; the vector factor
    e^{i sigma phi_r} shifts delta_m_r, the spin factor sets delta_spin."""
    spin = interaction == "spin"
    n, v, s = order
    coeffs = {}

    def add(d_R, d_r, comp_sigma, value):
        key = (d_R, d_r if spin else d_r + comp_sigma, comp_sigma if spin else 0)
        coeffs[key] = coeffs.get(key, 0.0) + value

    for offset, sigma, coupling in _COMPONENTS[("spin" if spin else "dipole", kind)]:
        mu = m + offset
        a = abs(mu)
        if a == 0:
            if n != 0 or s != 0:
                continue
            radial = besselj(v, kr_R) * besselj(v, kr_q)
            if v == 0:
                add(0, 0, sigma, coupling * radial)
            else:
                add(v, -v, sigma, coupling * radial)
                add(-v, v, sigma, coupling * radial)
            continue
        if n > a:
            continue
        sg = 1 if mu > 0 else -1
        parity = 1.0 if mu > 0 or a % 2 == 0 else -1.0
        radial = (parity * besselj(a + v, kr_R) * besselj(a + v, kr_q)
                  * math.comb(a, n) * (kr_q / kr_R) ** n)
        base_R, base_r = -sg * (a - n), -sg * n
        w = v - 2 * s
        if w == 0:
            add(base_R, base_r, sigma, coupling * radial)
        else:
            add(base_R + w, base_r - w, sigma, coupling * radial * 0.5)
            add(base_R - w, base_r + w, sigma, coupling * radial * 0.5)
    return {key: abs(val) for key, val in coeffs.items()}
