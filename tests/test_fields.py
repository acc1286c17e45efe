"""Bessel-mode potentials and fields: Maxwell structure, polarization
decompositions, and validation.

The fields read their profiles through a memo (fields._profile).  A test
that replaces specfun.bessel_j and then evaluates fields must clear it
first, with fields._profile.cache_clear(), or it reads values computed
before the replacement; and it must clear it again before it restores the
original, or later tests read values of the replacement."""

import cmath
import itertools
import math
import struct

import numpy as np
import pytest

from twistkit import fields, quadrature, specfun
from twistkit.errors import InvalidArgumentError, SingularNormalizationError
from twistkit.fields import CylPoint, FieldSample, ModeKind, ModeSpec


def _a_field(mode):
    def f(x, y, z):
        s = fields.vector_potential(mode, CylPoint.from_cartesian(x, y, z))
        return (s.x, s.y, s.z)
    return f


class TestGeometry:
    def test_cylpoint_roundtrip(self):
        p = CylPoint(1.3, 0.8, -0.4)
        x, y, z = p.to_cartesian()
        q = CylPoint.from_cartesian(x, y, z)
        assert q.rho == pytest.approx(p.rho)
        assert q.phi == pytest.approx(p.phi)
        assert q.z == p.z

    def test_rejects_negative_rho(self):
        with pytest.raises(InvalidArgumentError):
            CylPoint(-0.1, 0.0, 0.0)

    def test_field_sample_norm(self):
        s = FieldSample(3.0 + 4.0j, 0.0, 0.0)
        assert s.norm() == pytest.approx(5.0)

    def test_field_sample_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            FieldSample(math.inf, 0.0, 0.0)


class TestProfile:
    def test_psi_phase_winding(self):
        v1 = fields.psi(3, 1.2, 0.9, 0.4)
        v2 = fields.psi(3, 1.2, 0.9, 0.4 + 2.0 * math.pi / 3.0)
        assert v2 == pytest.approx(v1 * cmath.exp(2j * math.pi))

    def test_psi_vanishes_on_axis_for_nonzero_m(self):
        assert fields.psi(2, 1.0, 0.0, 0.0) == 0.0
        assert fields.psi(0, 1.0, 0.0, 0.0) == 1.0

    @pytest.mark.parametrize("args, name", [
        ((1, math.nan, 1.0, 0.0), "k_perp"), ((1, math.inf, 1.0, 0.0), "k_perp"),
        ((1, 0.0, 1.0, 0.0), "k_perp"), ((1, -1.0, 1.0, 0.0), "k_perp"),
        ((1, 1.0, math.nan, 0.0), "rho"), ((1, 1.0, math.inf, 0.0), "rho"),
        ((1, 1.0, -0.5, 0.0), "rho"), ((1, 1.0, 1.0, math.nan), "phi"),
        ((1, 1.0, 1.0, -math.inf), "phi"),
        ((1, 1e200, 1e200, 0.0), "k_perp \\* rho")])
    def test_psi_names_the_bad_argument(self, args, name):
        # A NaN phi once returned nan+nanj, and a NaN or infinite k_perp or
        # rho an error that named bessel_j's x.
        with pytest.raises(InvalidArgumentError, match=name):
            fields.psi(*args)

    def test_negative_order_reflection(self):
        assert specfun.bessel_j(-3, 2.0) == pytest.approx(
            -specfun.bessel_j(3, 2.0))


class TestModeValidation:
    def test_rejects_nonpositive_kperp(self):
        with pytest.raises(InvalidArgumentError):
            ModeSpec(ModeKind.TM, 1, 0.0, 1.0)

    def test_rejects_non_integral_order(self):
        # Every field, channel engine and amplitude function takes its order
        # from ModeSpec.m; J_{1.5} is no Bessel mode of this package.
        for kind in ModeKind:
            with pytest.raises(InvalidArgumentError):
                ModeSpec(kind, 1.5, 0.8, 1.2)
        with pytest.raises(InvalidArgumentError):
            ModeSpec(ModeKind.TM, 1.0, 0.8, 1.2)

    def test_rejects_kz_zero_for_elementary_modes(self):
        mode = ModeSpec(ModeKind.TM, 1, 1.0, 0.0)
        with pytest.raises(SingularNormalizationError):
            fields.vector_potential(mode, CylPoint(1.0, 0.0, 0.0))

    def test_omega_is_dispersion_relation(self):
        mode = ModeSpec(ModeKind.TE, 0, 0.3, 0.4)
        assert mode.omega() == pytest.approx(0.5)


class TestFieldStructure:
    def test_te_potential_is_transverse(self):
        mode = ModeSpec(ModeKind.TE, 2, 1.1, 0.9)
        s = fields.vector_potential(mode, CylPoint(1.4, 0.3, 0.2))
        assert s.z == 0.0

    def test_tm_magnetic_field_is_transverse(self):
        mode = ModeSpec(ModeKind.TM, 2, 1.1, 0.9)
        b = fields.magnetic_field(mode, CylPoint(1.4, 0.3, 0.2))
        assert b.z == 0.0

    def test_electric_field_is_iwA(self):
        mode = ModeSpec(ModeKind.TM, 1, 0.8, 1.2)
        p = CylPoint(0.9, 1.1, -0.3, 0.2)
        a = fields.vector_potential(mode, p)
        e = fields.electric_field(mode, p)
        w = mode.omega()
        for comp in "xyz":
            assert getattr(e, comp) == pytest.approx(1j * w * getattr(a, comp))

    def test_divergence_free(self):
        rng = np.random.RandomState(5)
        for kind in (ModeKind.TE, ModeKind.TM):
            mode = ModeSpec(kind, 2, 1.3, 0.7)
            f = _a_field(mode)
            for _ in range(5):
                x, y, z = rng.uniform(-1.5, 1.5, 3)
                s = fields.vector_potential(
                    mode, CylPoint.from_cartesian(x, y, z))
                div = quadrature.fd_divergence(f, x, y, z, 1e-4)
                assert abs(div) < 1e-8 * mode.omega() * max(s.norm(), 1e-3)

    def test_curl_of_A_matches_B(self):
        rng = np.random.RandomState(6)
        for kind in (ModeKind.TE, ModeKind.TM, ModeKind.L, ModeKind.R):
            mode = ModeSpec(kind, 1, 0.9, 1.4)
            f = _a_field(mode)
            for _ in range(4):
                x, y, z = rng.uniform(-1.5, 1.5, 3)
                b = fields.magnetic_field(
                    mode, CylPoint.from_cartesian(x, y, z))
                curl = quadrature.fd_curl(f, x, y, z, 1e-4)
                diff = math.sqrt(sum(
                    abs(c - g) ** 2
                    for c, g in zip(curl, (b.x, b.y, b.z))))
                assert diff < 1e-7 * max(b.norm(), 1e-3)

    def test_helmholtz_equation(self):
        mode = ModeSpec(ModeKind.TM, 3, 1.0, 1.0)
        f = _a_field(mode)
        w = mode.omega()
        x, y, z = 0.7, -0.4, 0.3
        s = fields.vector_potential(mode, CylPoint.from_cartesian(x, y, z))
        lap = quadrature.fd_laplacian(f, x, y, z, 1e-3)
        for l, a in zip(lap, (s.x, s.y, s.z)):
            assert abs(l + w * w * a) < 1e-6 * w * w * max(s.norm(), 1e-3)


def _recursive_field(mode, p, curl, bessel=specfun.bessel_j):
    """The reference composition: one psi per term of mode_terms, and an
    L/R mode as the sum of its TM and TE FieldSamples, each scaled by
    lr_decomposition.  bessel=lambda order, x: 1.0 gives the field's
    natural amplitude."""
    if mode.kind in (ModeKind.L, ModeKind.R):
        dec = fields.lr_decomposition(mode.kind, mode.m, mode.k_perp, mode.k_z)
        base_tm = ModeSpec(ModeKind.TM, dec.base_m, mode.k_perp, mode.k_z)
        base_te = ModeSpec(ModeKind.TE, dec.base_m, mode.k_perp, mode.k_z)
        tm = _recursive_field(base_tm, p, curl, bessel).scaled(dec.c_tm)
        te = _recursive_field(base_te, p, curl, bessel).scaled(dec.c_te)
        return FieldSample(tm.x + te.x, tm.y + te.y, tm.z + te.z)
    pref, terms = fields.mode_terms(mode, curl)
    pref *= cmath.exp(1j * (mode.k_z * p.z - mode.omega() * p.t))
    slots = [0.0, 0.0, 0.0]
    for mu, slot, c in terms:
        psi = bessel(mu, mode.k_perp * p.rho) * cmath.exp(1j * mu * p.phi)
        slots[slot] = pref * c * psi
    plus, minus = slots[1], slots[-1]
    return FieldSample(plus + minus, 1j * (plus - minus), slots[0])


class TestSlotComposition:
    # k_perp rho over the bessel_j branches the profiles J_{m-2}..J_{m+2},
    # |m| <= 6, reach: 0, the series (0.3, 5), the [2, 8) pieces (5, orders
    # 0 and 1) and the large-x fit (12, 2500).
    ARGS = (0.0, 0.3, 5.0, 12.0, 2500.0)

    @pytest.mark.parametrize("kind", list(ModeKind))
    def test_matches_the_recursive_composition(self, kind):
        k_perp, k_z = 1.3, 0.7
        for m in range(-6, 7):
            mode = ModeSpec(kind, m, k_perp, k_z)
            w = mode.omega()
            for x in self.ARGS:
                p = CylPoint(x / k_perp, 0.9, -0.4, 0.3)
                for label, got, curl, factor in (
                        ("A", fields.vector_potential(mode, p), False, 1.0),
                        ("E", fields.electric_field(mode, p), False, 1j * w),
                        ("B", fields.magnetic_field(mode, p), True, 1.0)):
                    want = _recursive_field(mode, p, curl).scaled(factor)
                    unit = _recursive_field(mode, p, curl,
                                          lambda order, x: 1.0).scaled(factor)
                    err = max(abs(getattr(got, c) - getattr(want, c))
                              for c in "xyz")
                    assert err <= 1e-14 * unit.norm(), (kind, m, x, label)


def _bits(sample):
    return b"".join(struct.pack("<dd", c.real, c.imag)
                    for c in (sample.x, sample.y, sample.z))


class TestProfileMemo:
    FIELDS = (fields.vector_potential, fields.electric_field,
              fields.magnetic_field)

    @pytest.mark.parametrize("kind", list(ModeKind))
    def test_bit_identical_to_uncached_profiles(self, kind, monkeypatch):
        # TestSlotComposition's grid, with both signed zeros of rho and phi.
        # Before each point the memo holds the profiles of its neighbours in
        # the list, which include points that differ from it only in the
        # sign of a zero, and so compare equal to it.
        k_perp, k_z = 1.3, 0.7
        points = []
        for x in TestSlotComposition.ARGS:
            rhos = (0.0, -0.0) if x == 0.0 else (x / k_perp,)
            for rho, phi in itertools.product(rhos, (0.0, -0.0, 0.9)):
                points.append(CylPoint(rho, phi, -0.4, 0.3))
        for m in range(-6, 7):
            mode = ModeSpec(kind, m, k_perp, k_z)
            with monkeypatch.context() as uncached:
                uncached.setattr(fields, "_profile", lambda m, k, rho, phi,
                                 signs: fields.psi(m, k, rho, phi))
                want = [[_bits(f(mode, p)) for f in self.FIELDS]
                        for p in points]
            fields._profile.cache_clear()
            order = list(range(len(points)))
            for i in order + order[::-1]:
                got = [_bits(f(mode, points[i])) for f in self.FIELDS]
                assert got == want[i], (m, points[i])

    def test_five_bessel_calls_per_point(self, monkeypatch):
        # A, E and B of TE, TM, L and R of order m read J_{m-2}..J_{m+2}:
        # 45 terms, 5 profiles.
        calls = []
        original = specfun.bessel_j
        fields._profile.cache_clear()
        monkeypatch.setattr(specfun, "bessel_j",
                            lambda order, x: calls.append(order) or original(order, x))
        p = CylPoint(1.7, 0.4, 0.2, 0.1)
        for kind in ModeKind:
            mode = ModeSpec(kind, 3, 0.9, 1.1)
            for f in self.FIELDS:
                f(mode, p)
        fields._profile.cache_clear()
        assert sorted(calls) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("args", [(1, 1.0, 1.0, math.nan),
                                      (1, math.inf, 1.0, 0.0),
                                      (1, 1.0, math.nan, 0.0)])
    def test_errors_are_never_stored(self, args):
        fields._profile.cache_clear()
        for _ in range(3):
            with pytest.raises(InvalidArgumentError):
                fields._profile(*args, 3.0)
        info = fields._profile.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_memo_stays_at_its_bound(self):
        fields._profile.cache_clear()
        mode = ModeSpec(ModeKind.L, 2, 0.9, 1.1)
        for i in range(20):
            fields.magnetic_field(mode, CylPoint(0.1 + 0.2 * i, 0.4, 0.0))
        info = fields._profile.cache_info()
        assert info.maxsize == 32
        assert (info.misses, info.currsize) == (60, 32)


def _composed_field(mode, p, curl):
    """A or B composed from records: an L/R mode adds the mode_terms of a
    ModeSpec built for each of its TM and TE parts, weighted by
    lr_decomposition, into the slots, and each part reads w and E0 anew."""
    if mode.kind in (ModeKind.L, ModeKind.R):
        dec = fields.lr_decomposition(mode.kind, mode.m, mode.k_perp, mode.k_z)
        parts = ((ModeSpec(ModeKind.TM, dec.base_m, mode.k_perp, mode.k_z),
                  dec.c_tm),
                 (ModeSpec(ModeKind.TE, dec.base_m, mode.k_perp, mode.k_z),
                  dec.c_te))
    else:
        parts = ((mode, 1.0),)
    phase = cmath.exp(1j * (mode.k_z * p.z - mode.omega() * p.t))
    slots = [0.0, 0.0, 0.0]
    for part, weight in parts:
        pref, terms = fields.mode_terms(part, curl)
        pref *= weight * phase
        for mu, slot, c in terms:
            slots[slot] += pref * c * fields.psi(mu, mode.k_perp, p.rho, p.phi)
    plus, minus = slots[1], slots[-1]
    return FieldSample(plus + minus, 1j * (plus - minus), slots[0])


class TestComposedForm:
    @pytest.mark.parametrize("kind", list(ModeKind))
    def test_bit_identical_to_the_composed_form(self, kind):
        # TestSlotComposition's grid with both signed zeros of rho and phi;
        # E against the composed A scaled by i w, as a second record.
        k_perp, k_z = 1.3, 0.7
        for m in range(-6, 7):
            mode = ModeSpec(kind, m, k_perp, k_z)
            for x in TestSlotComposition.ARGS:
                rhos = (0.0, -0.0) if x == 0.0 else (x / k_perp,)
                for rho, phi in itertools.product(rhos, (0.0, -0.0, 0.9)):
                    p = CylPoint(rho, phi, -0.4, 0.3)
                    a = _composed_field(mode, p, False)
                    want = (a, a.scaled(1j * mode.omega()),
                            _composed_field(mode, p, True))
                    got = (fields.vector_potential(mode, p),
                           fields.electric_field(mode, p),
                           fields.magnetic_field(mode, p))
                    assert list(map(_bits, got)) == list(map(_bits, want)), (
                        m, x, rho, phi)

    def test_invalid_kind_and_zero_kz_raise(self):
        p = CylPoint(1.0, 0.2, 0.0)
        for kind in ModeKind:
            with pytest.raises(SingularNormalizationError):
                fields.magnetic_field(ModeSpec(kind, 1, 1.0, 0.0), p)
        with pytest.raises(InvalidArgumentError):
            fields.vector_potential(ModeSpec(None, 1, 1.0, 1.0), p)


class TestPolarizationDecomposition:
    def test_lr_base_orders(self):
        dl = fields.lr_decomposition(ModeKind.L, 2, 1.0, 1.0)
        dr = fields.lr_decomposition(ModeKind.R, 2, 1.0, 1.0)
        assert dl.base_m == 3
        assert dr.base_m == 1

    def test_rejects_elementary_kinds(self):
        with pytest.raises(InvalidArgumentError):
            fields.lr_decomposition(ModeKind.TM, 1, 1.0, 1.0)

    def test_cross_overlap_closed_form(self):
        for kp in (0.3, 1.0, 2.5):
            for kz in (0.2, 1.0, 3.0):
                w2 = kp * kp + kz * kz
                want = (1.0 - kz * kz / w2) / (1.0 + kz * kz / w2)
                got = fields.lr_cross_overlap(0, kp, kz)
                assert got == pytest.approx(want, abs=1e-15)

    def test_cross_overlap_limits(self):
        assert fields.lr_cross_overlap(1, 1.0, 0.0) == pytest.approx(1.0)
        assert fields.lr_cross_overlap(1, 1e-9, 1.0) == pytest.approx(
            0.0, abs=1e-15)
