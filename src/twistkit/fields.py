"""TE/TM Bessel mode potentials and fields, plus the L/R polarized
combinations and their overlap.

Units: hbar = c = 1 throughout; k_perp and k_z carry inverse length in a
user-chosen scale and every amplitude is reported in the induced natural
units.

The closed-form magnetic fields implemented here are the analytic curl
of the vector potentials.  For the elementary modes,

    curl A_TM = (E0 w / 2 k_z) e^{i(k_z z - w t)}
                [psi_{m-1} (e_x + i e_y) + psi_{m+1} (e_x - i e_y)]
    curl A_TE = (i E0 / 2)   e^{i(k_z z - w t)}
                [psi_{m-1} (e_x + i e_y) - psi_{m+1} (e_x - i e_y)
                 - i (2 k_perp / k_z) psi_m e_z]

(derived from (d_x + i d_y) psi_m = -k_perp psi_{m+1} and
(d_x - i d_y) psi_m = +k_perp psi_{m-1}); the finite-difference curl
verification pins this form.

A field call reads w and E0 once, and an L/R mode weights the terms of
its TM and TE parts, of its base order, with no ModeSpec built for them;
mode_terms, through _terms, is still the one place the table is written.
E = i w A is scaled as its one sample is built.

The module-level mutable state is one memo, which changes no result: the
profiles the fields read (_profile, psi behind functools.lru_cache, the
32 most recent argument tuples).  A, E and B of the TE, TM, L and R modes
of order m at one point read 5 profiles, orders m - 2..m + 2, where the
term tables name 45.  A hit returns the value psi computed for equal
arguments and equal signs of rho and phi, so a signed zero is never
answered with the other zero's value; an error is never stored.  psi
itself is not memoized.  Code that replaces specfun.bessel_j and then
evaluates fields must clear the memo first (_profile.cache_clear()).
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
from enum import Enum

from . import specfun
from .errors import InvalidArgumentError, SingularNormalizationError


class ModeKind(str, Enum):
    TE = "te"
    TM = "tm"
    L = "l"
    R = "r"


class ModeSpec(collections.namedtuple("ModeSpec", "kind m k_perp k_z")):
    """A Bessel photon mode: kind, integer azimuthal order m, wavenumbers."""

    __slots__ = ()

    def __new__(cls, kind: ModeKind, m: int, k_perp: float, k_z: float):
        if not hasattr(m, "__index__"):
            raise InvalidArgumentError(f"m must be an integer, got {m!r}")
        if not (k_perp > 0.0 and math.isfinite(k_perp)):
            raise InvalidArgumentError("k_perp must be finite and > 0")
        if not math.isfinite(k_z):
            raise InvalidArgumentError("k_z must be finite")
        return tuple.__new__(cls, (kind, m, k_perp, k_z))

    def omega(self) -> float:
        return math.hypot(self.k_perp, self.k_z)


class CylPoint(collections.namedtuple("CylPoint", "rho phi z t")):
    __slots__ = ()

    def __new__(cls, rho: float, phi: float, z: float, t: float = 0.0):
        if not 0.0 <= rho < math.inf:
            raise InvalidArgumentError(
                f"rho must be >= 0 and finite, got {rho!r}")
        # One test on the common path: the sum is finite when all three
        # are (one that overflows only takes the loop, which finds none).
        if not math.isfinite(phi + z + t):
            for name, value in (("phi", phi), ("z", z), ("t", t)):
                if not math.isfinite(value):
                    raise InvalidArgumentError(
                        f"{name} must be finite, got {value!r}")
        return tuple.__new__(cls, (rho, phi, z, t))

    def to_cartesian(self):
        return (self.rho * math.cos(self.phi),
                self.rho * math.sin(self.phi),
                self.z)

    @staticmethod
    def from_cartesian(x: float, y: float, z: float, t: float = 0.0):
        return CylPoint(math.hypot(x, y), math.atan2(y, x), z, t)


class FieldSample(collections.namedtuple("FieldSample", "x y z")):
    """Complex Cartesian components of A, E, or B at one point."""

    __slots__ = ()

    def __new__(cls, x: complex, y: complex, z: complex):
        if not (cmath.isfinite(x) and cmath.isfinite(y) and cmath.isfinite(z)):
            raise InvalidArgumentError("field components must be finite")
        return tuple.__new__(cls, (x, y, z))

    def scaled(self, factor: complex) -> "FieldSample":
        return FieldSample(factor * self.x, factor * self.y, factor * self.z)

    def norm(self) -> float:
        return math.sqrt(abs(self.x) ** 2 + abs(self.y) ** 2 + abs(self.z) ** 2)


class TmTeDecomposition(collections.namedtuple(
        "TmTeDecomposition", "c_tm c_te base_m")):
    """An L/R mode as coefficients over the TE/TM pair of order base_m."""

    __slots__ = ()

    def __new__(cls, c_tm: complex, c_te: complex, base_m: int):
        if abs(c_tm) ** 2 + abs(c_te) ** 2 <= 0.0:
            raise InvalidArgumentError("decomposition must be nonzero")
        return tuple.__new__(cls, (c_tm, c_te, base_m))

    def norm(self) -> float:
        return math.sqrt(abs(self.c_tm) ** 2 + abs(self.c_te) ** 2)


def psi(m: int, k_perp: float, rho: float, phi: float) -> complex:
    """Scalar mode profile J_m(k_perp rho) e^{i m phi}.
    InvalidArgumentError, naming the argument, unless 0 < k_perp < inf,
    0 <= rho < inf, k_perp rho < inf and phi is finite."""
    if not 0.0 < k_perp < math.inf:
        raise InvalidArgumentError(
            f"k_perp must be finite and > 0, got {k_perp!r}")
    if not 0.0 <= rho < math.inf:
        raise InvalidArgumentError(f"rho must be finite and >= 0, got {rho!r}")
    if not math.isfinite(phi):
        raise InvalidArgumentError(f"phi must be finite, got {phi!r}")
    x = k_perp * rho
    if x == math.inf:
        raise InvalidArgumentError(
            f"k_perp * rho overflows: {k_perp!r} * {rho!r}")
    return specfun.bessel_j(m, x) * cmath.exp(1j * m * phi)


@functools.lru_cache(maxsize=32)
def _profile(m: int, k_perp: float, rho: float, phi: float,
             signs: float) -> complex:
    """psi(m, k_perp, rho, phi) through the module's memo.  signs is
    copysign(2, rho) + copysign(1, phi): -0.0 and 0.0 compare and hash
    equal, and this keeps them apart in the key."""
    return psi(m, k_perp, rho, phi)


def normalization_e0(k_perp: float, k_z: float) -> float:
    """Mode normalization sqrt((k_perp / 2 pi) k_z^2 / w^2), hbar = c = 1."""
    w2 = k_perp * k_perp + k_z * k_z
    return math.sqrt((k_perp / (2.0 * math.pi)) * (k_z * k_z) / w2)


def _require_kz(mode: ModeSpec):
    if mode.k_z == 0.0:
        raise SingularNormalizationError(
            "TE/TM modes are undefined at k_z = 0 (normalization vanishes "
            "while the TM axial term diverges)")


def _circular_sample(plus: complex, minus: complex, axial: complex) -> FieldSample:
    # plus multiplies (e_x + i e_y), minus multiplies (e_x - i e_y).
    return FieldSample(plus + minus, 1j * (plus - minus), axial)


def _lr_coefficients(kind: ModeKind, m: int, k_z: float, w: float):
    # (c_tm, c_te, base_m) of lr_decomposition, w = hypot(k_perp, k_z).
    if kind not in (ModeKind.L, ModeKind.R):
        raise InvalidArgumentError("kind must be L or R")
    a0p = math.sqrt(1.0 + (k_z * k_z) / (w * w)) / 2.0
    if kind is ModeKind.L:
        return a0p, -1j * (k_z / w) * a0p, m + 1
    return a0p, +1j * (k_z / w) * a0p, m - 1


def lr_decomposition(kind: ModeKind, m: int, k_perp: float,
                     k_z: float) -> TmTeDecomposition:
    """L/R polarized mode of index m as TE/TM coefficients of order m +/- 1."""
    c_tm, c_te, base_m = _lr_coefficients(kind, m, k_z,
                                          math.hypot(k_perp, k_z))
    return TmTeDecomposition(c_tm=c_tm, c_te=c_te, base_m=base_m)


def _terms(tm: bool, m: int, k_perp: float, k_z: float, e0: float,
           w: float, curl: bool):
    # mode_terms' table for a TM (tm) or TE mode of order m, given its
    # normalization e0 and frequency w.
    if tm:
        pref = e0 * w / (2.0 * k_z) if curl else e0 / (2.0 * w)
    else:
        pref = 1j * e0 / 2.0 if curl else 1j * e0 / (2.0 * k_z)
    if tm != curl:
        return pref, ((m - 1, 1, 1.0), (m + 1, -1, -1.0),
                      (m, 0, -2j * k_perp / k_z))
    return pref, ((m - 1, 1, 1.0), (m + 1, -1, 1.0))


def mode_terms(mode: ModeSpec, curl: bool):
    """The one TE/TM term table: (pref, ((mu, slot, c), ...)) with

        A (curl=False) or B = curl A (curl=True)
            = pref e^{i(k_z z - w t)} sum c psi_mu e_slot,

    e_{+1} = e_x + i e_y, e_{-1} = e_x - i e_y, e_0 = e_z.  The curl swaps
    the two elementary shapes: A_TM and B_TE carry [psi_{m-1}, -psi_{m+1}]
    plus an axial psi_m term, A_TE and B_TM carry [psi_{m-1}, psi_{m+1}]
    and no axial term; only the prefactor differs.  L/R modes compose from
    TE/TM through lr_decomposition."""
    tm = mode.kind is ModeKind.TM
    if not tm and mode.kind is not ModeKind.TE:
        raise InvalidArgumentError(
            "mode terms cover TE/TM modes; L/R compose through lr_decomposition")
    _require_kz(mode)
    return _terms(tm, mode.m, mode.k_perp, mode.k_z,
                  normalization_e0(mode.k_perp, mode.k_z), mode.omega(), curl)


def _mode_slots(mode: ModeSpec, p: CylPoint, curl: bool):
    """(plus, minus, axial, w): the coefficients of e_x + i e_y, e_x - i e_y
    and e_z in A (curl=False) or B = curl A (curl=True), from the term
    table (_terms), and the mode's frequency.  An L/R mode adds the terms
    of its TM and TE parts, of its base order, into the same slots.  w and
    E0 are read once, and no ModeSpec is built for the parts."""
    kind, m, k_perp, k_z = mode
    w = math.hypot(k_perp, k_z)
    if kind is ModeKind.TM or kind is ModeKind.TE:
        parts = ((kind is ModeKind.TM, 1.0),)
    else:
        c_tm, c_te, m = _lr_coefficients(kind, m, k_z, w)
        parts = ((True, c_tm), (False, c_te))
    _require_kz(mode)
    e0 = normalization_e0(k_perp, k_z)
    phase = cmath.exp(1j * (k_z * p.z - w * p.t))
    rho, phi = p.rho, p.phi
    signs = math.copysign(2.0, rho) + math.copysign(1.0, phi)
    slots = [0.0, 0.0, 0.0]  # indexed by slot: e_z, e_x + i e_y, e_x - i e_y
    for tm, weight in parts:
        pref, terms = _terms(tm, m, k_perp, k_z, e0, w, curl)
        pref *= weight * phase
        for mu, slot, c in terms:
            slots[slot] += pref * c * _profile(mu, k_perp, rho, phi, signs)
    return slots[1], slots[-1], slots[0], w


def vector_potential(mode: ModeSpec, p: CylPoint) -> FieldSample:
    """Closed-form A of the requested mode kind, Cartesian components."""
    return _circular_sample(*_mode_slots(mode, p, False)[:3])


def electric_field(mode: ModeSpec, p: CylPoint) -> FieldSample:
    """E = i w A (hbar = c = 1), scaled as the sample is built."""
    plus, minus, axial, w = _mode_slots(mode, p, False)
    factor = 1j * w
    return FieldSample(factor * (plus + minus), factor * (1j * (plus - minus)),
                       factor * axial)


def magnetic_field(mode: ModeSpec, p: CylPoint) -> FieldSample:
    """Closed-form B = curl A; for L/R composed via the decomposition."""
    return _circular_sample(*_mode_slots(mode, p, True)[:3])


def lr_cross_overlap(m: int, k_perp: float, k_z: float) -> float:
    """Normalized inner product <L_m, R_{m+2}> over the TE/TM basis,
    equal to (1 - k_z^2/w^2) / (1 + k_z^2/w^2)."""
    left = lr_decomposition(ModeKind.L, m, k_perp, k_z)
    right = lr_decomposition(ModeKind.R, m + 2, k_perp, k_z)
    assert left.base_m == right.base_m
    inner = (left.c_tm * right.c_tm.conjugate()
             + left.c_te * right.c_te.conjugate())
    return (inner / (left.norm() * right.norm())).real
