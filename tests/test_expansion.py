"""Displaced-profile expansions: addition theorem, phase factorization,
and the first-order two-displacement bracket."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from twistkit import expansion, specfun
from twistkit.cli import _addition_sum
from twistkit.errors import InvalidArgumentError, SingularConfigurationError
from twistkit.expansion import PlanarVec


class TestPlanarVec:
    def test_complex_roundtrip(self):
        v = PlanarVec(1.7, -2.1)
        w = PlanarVec.from_complex(v.to_complex())
        assert w.r == pytest.approx(v.r)
        assert cmath.exp(1j * w.phi) == pytest.approx(cmath.exp(1j * v.phi))

    def test_rejects_negative_radius(self):
        with pytest.raises(InvalidArgumentError):
            PlanarVec(-0.5, 0.0)


_R, _Q = PlanarVec(1.3, 0.4), PlanarVec(0.6, 1.9)


@pytest.mark.parametrize("fn, args, name", [
    ("psi_shifted", (1.5, 1.0, _R, _Q, 10), "m"),
    ("psi_shifted", (2.0, 1.0, _R, _Q, 10), "m"),
    ("psi_shifted", (2, 1.0, _R, _Q, 10.5), "v_max"),
    ("psi_shifted", (0, 1.0, _R, _Q, 10.5), "v_max"),
    ("phase_expand", (1.5, 1.0, _R, _Q), "m"),
    ("gegenbauer_expand", (1.5, 1.0, _R, _Q, 10), "l"),
    ("gegenbauer_expand", (2, 1.0, _R, _Q, 10.5), "v_max"),
    ("quadrupole_expand", (1.5, 1.0, _R, _Q, 0.9, 0.1), "m"),
])
def test_non_integral_argument_names_itself(fn, args, name):
    # A float, even 2.0, is rejected by its own name before math.factorial,
    # range or bessel_j_run (as n = v_max + 1) sees it.
    with pytest.raises(InvalidArgumentError,
                       match=rf"^{name} must be an integer >= \d, got "):
        getattr(expansion, fn)(*args)


def test_numpy_integers_are_accepted():
    want = expansion.psi_shifted(3, 1.0, _R, _Q, 30)
    got = expansion.psi_shifted(np.int64(3), 1.0, _R, _Q, np.int64(30))
    assert got == want
    assert (expansion.phase_expand(np.int64(3), 1.0, _R, _Q)
            == expansion.phase_expand(3, 1.0, _R, _Q))


class TestDefaultVMax:
    def test_argument_plus_forty(self):
        assert expansion.default_v_max(1.5, PlanarVec(2.0, 0.3),
                                       PlanarVec(0.7, 1.0)) == 42
        assert expansion.default_v_max(2.0, PlanarVec(0.0, 0.0),
                                       PlanarVec(3.0, 1.0)) == 40

    @pytest.mark.parametrize("k, R, q", [(1e200, 1e200, 1e200),
                                         (math.inf, 1.0, 1.0),
                                         (math.nan, 1.0, 1.0)])
    def test_non_finite_argument_is_rejected(self, k, R, q):
        # 1e200 * 1e200 overflows to inf; math.ceil(inf) once raised a bare
        # OverflowError.
        with pytest.raises(InvalidArgumentError):
            expansion.default_v_max(k, PlanarVec(R, 0.0), PlanarVec(q, 0.0))


class TestGegenbauerExpand:
    def test_matches_ratio_form(self):
        rng = np.random.RandomState(2)
        for _ in range(20):
            l = int(rng.randint(1, 5))
            k = float(rng.uniform(0.4, 1.4))
            R = PlanarVec(float(rng.uniform(0.5, 2.5)),
                          float(rng.uniform(0, 2 * math.pi)))
            q = PlanarVec(float(rng.uniform(0.1, 1.5)),
                          float(rng.uniform(0, 2 * math.pi)))
            rho = abs(R.to_complex() - q.to_complex())
            want = specfun.bessel_j(l, k * rho) / (k * rho) ** l
            got = expansion.gegenbauer_expand(l, k, R, q, 60)
            assert complex(got.value).real == pytest.approx(want, abs=1e-12)

    def test_rejects_l_zero(self):
        with pytest.raises(InvalidArgumentError):
            expansion.gegenbauer_expand(0, 1.0, PlanarVec(1, 0),
                                        PlanarVec(0.5, 0), 10)


class TestPsiShifted:
    def test_reproduces_direct_profile(self):
        rng = np.random.RandomState(4)
        for _ in range(40):
            m = int(rng.randint(0, 7))
            k = float(rng.uniform(0.3, 1.5))
            R = PlanarVec(float(rng.uniform(0.3, 3.0)),
                          float(rng.uniform(0, 2 * math.pi)))
            q = PlanarVec(float(rng.uniform(0.05, 2.5)),
                          float(rng.uniform(0, 2 * math.pi)))
            v_max = expansion.default_v_max(k, R, q)
            got = expansion.psi_shifted(m, k, R, q, v_max).value
            want = expansion.psi_displaced_direct(m, k, R, q)
            assert got == pytest.approx(want, abs=1e-10 * max(abs(want), 1e-2))

    def test_against_mpmath(self):
        # Bessel runs and the Gegenbauer recurrence keep the whole series
        # within 1e-15 of J_m(k rho) e^{i m phi_rho} in 30-digit arithmetic.
        rng = np.random.RandomState(14)
        for _ in range(80):
            m = int(rng.randint(0, 7))
            k = float(rng.uniform(0.3, 1.5))
            R = PlanarVec(float(rng.uniform(0.3, 3.0)),
                          float(rng.uniform(0, 2 * math.pi)))
            q = PlanarVec(float(rng.uniform(0.05, 3.0 / k)),
                          float(rng.uniform(0, 2 * math.pi)))
            got = expansion.psi_shifted(m, k, R, q,
                                        expansion.default_v_max(k, R, q)).value
            with mpmath.workdps(30):
                d = mpmath.mpc(R.to_complex()) - mpmath.mpc(q.to_complex())
                want = mpmath.besselj(m, k * abs(d)) * mpmath.expj(m * mpmath.arg(d))
                assert abs(got - want) <= 1e-15

    def test_m_zero_cosine_branch(self):
        R = PlanarVec(1.4, 0.9)
        q = PlanarVec(0.6, 2.3)
        got = expansion.psi_shifted(0, 1.1, R, q, 40).value
        want = expansion.psi_displaced_direct(0, 1.1, R, q)
        assert complex(got).real == pytest.approx(complex(want).real, abs=1e-12)

    @pytest.mark.parametrize("m", range(7))
    def test_near_coincident_points(self, m):
        # R - q = 0.02: the power (k (R - q))^m is 0.02^m in one complex
        # power, and the ratio series has no cancellation, so the value
        # keeps its relative accuracy.
        R = PlanarVec(1.0, 0.4)
        q = PlanarVec(0.98, 0.4)
        got = expansion.psi_shifted(m, 1.0, R, q,
                                    expansion.default_v_max(1.0, R, q)).value
        with mpmath.workdps(30):
            want = complex(mpmath.besselj(m, mpmath.mpf(1) - mpmath.mpf(0.98))
                           * mpmath.expj(m * 0.4))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_rejects_negative_m(self):
        with pytest.raises(InvalidArgumentError):
            expansion.psi_shifted(-1, 1.0, PlanarVec(1, 0), PlanarVec(0.5, 0), 10)

    def test_tiny_radius_is_singular(self):
        # (kR)^l (kq)^l underflows to 0, or overflows at a huge radius: a
        # domain error, not a crash.
        for radius in (1e-200, 1e160):
            with pytest.raises(SingularConfigurationError):
                expansion.psi_shifted(2, 1.0, PlanarVec(radius, 0.3),
                                      PlanarVec(1.0, 0.0), 40)


def _draw(rng):
    k = float(rng.uniform(0.3, 1.5))
    R = PlanarVec(float(rng.uniform(0.3, 3.0)),
                  float(rng.uniform(0, 2 * math.pi)))
    q = PlanarVec(float(rng.uniform(0.05, 3.0 / k)),
                  float(rng.uniform(0, 2 * math.pi)))
    return k, R, q


class TestTruncationBound:
    # Both Miller passes round differently with their length: 1e-15 covers
    # that (worst measured 6.2e-16 over 8,000 draws); the rest is the tail.
    ROUNDING = 1e-15

    def test_estimate_bounds_the_eighty_term_value(self):
        rng = np.random.RandomState(3210)
        for i in range(400):
            m = i % 7
            k, R, q = _draw(rng)
            got = expansion.psi_shifted(m, k, R, q,
                                        expansion.default_v_max(k, R, q))
            assert got.terms_used < 30
            assert (abs(got.value - _addition_sum(m, k, R, q))
                    <= got.truncation_estimate + self.ROUNDING)

    def test_estimate_bounds_a_capped_sum(self):
        # Where v_max binds, the estimate is the bound on the terms dropped.
        rng = np.random.RandomState(3211)
        for i in range(400):
            m = i % 7
            k, R, q = _draw(rng)
            cap = int(rng.randint(0, 8))
            got = expansion.psi_shifted(m, k, R, q, cap)
            if got.terms_used == cap + 1:
                assert got.truncation_estimate > 0.0
            assert (abs(got.value - _addition_sum(m, k, R, q))
                    <= got.truncation_estimate + self.ROUNDING)

    def test_runs_are_cut_before_any_bessel_evaluation(self, monkeypatch):
        # One run per argument, of terms_used orders; a cap below V binds.
        runs = []
        original = specfun.bessel_j_run
        monkeypatch.setattr(specfun, "bessel_j_run", lambda order, n, x:
                            runs.append(n) or original(order, n, x))
        R, q = PlanarVec(2.0, 0.3), PlanarVec(1.5, 1.1)
        for m in range(4):
            runs.clear()
            got = expansion.psi_shifted(m, 1.0, R, q, 41)
            assert runs == [got.terms_used] * 2
            assert got.terms_used < 20
            capped = expansion.psi_shifted(m, 1.0, R, q, 3)
            assert capped.terms_used == 4

    def test_cut_is_the_least_index_of_the_bound(self):
        # V against the term bounds over the scale, b_v / b_0, in exact
        # rationals: every one past V is within 2^-53, b_V is not (or
        # V = 0), and the estimate holds their sum.
        rng = np.random.RandomState(3212)
        tail = Fraction(1, 2 ** 53)
        for _ in range(60):
            l = int(rng.randint(0, 7))
            y = Fraction(float(rng.uniform(0.0, 12.0)))
            n, est = expansion._addition_cut(l, float(y), 10 ** 6)

            def b(v):
                # (2 - delta_v0) y^v / v!^2 at l = 0; at l >= 1,
                # (l+v)/l C(2l+v-1, v) l!^2 y^v / (l+v)!^2.
                if l == 0:
                    return (2 if v else 1) * y ** v / math.factorial(v) ** 2
                weight = Fraction((l + v) * math.comb(2 * l + v - 1, v), l)
                return (weight * y ** v * math.factorial(l) ** 2
                        / math.factorial(l + v) ** 2)
            assert n == 0 or b(n) > tail
            assert all(b(v) <= tail for v in range(n + 1, n + 60))
            assert sum(b(v) for v in range(n + 1, n + 60)) <= Fraction(est)

    def test_gegenbauer_estimate_bounds_the_full_ratio(self):
        rng = np.random.RandomState(3213)
        for _ in range(200):
            l = int(rng.randint(1, 7))
            k, R, q = _draw(rng)
            got = expansion.gegenbauer_expand(l, k, R, q, 80)
            full = _addition_sum(l, k, R, q) / (
                k * (R.to_complex() - q.to_complex())) ** l
            assert abs(got.value - full) <= (got.truncation_estimate
                                             + self.ROUNDING
                                             / (2 ** l * math.factorial(l)))


class TestPhaseExpand:
    def test_exact_phase(self):
        rng = np.random.RandomState(9)
        for _ in range(30):
            m = int(rng.randint(0, 6))
            k = float(rng.uniform(0.3, 1.5))
            R = PlanarVec(float(rng.uniform(0.5, 2.0)),
                          float(rng.uniform(0, 2 * math.pi)))
            q = PlanarVec(float(rng.uniform(0.01, 0.4)),
                          float(rng.uniform(0, 2 * math.pi)))
            got = expansion.phase_expand(m, k, R, q)
            rho = PlanarVec.from_complex(R.to_complex() - q.to_complex())
            assert got == pytest.approx(cmath.exp(1j * m * rho.phi), abs=1e-12)

    def test_rejects_coincident_points(self):
        with pytest.raises(SingularConfigurationError):
            expansion.phase_expand(1, 1.0, PlanarVec(1.0, 0.5),
                                   PlanarVec(1.0, 0.5))


class TestQuadrupoleExpand:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_zero_displacement_is_the_leading_term(self, m):
        # r = 0 leaves (a - b) psi_m(R).
        R = PlanarVec(1.7, 0.4)
        a, b = 0.9995, 0.0005
        got = expansion.quadrupole_expand(m, 1.0, R, PlanarVec(0.0, 0.9), a, b)
        want = (a - b) * expansion.psi_displaced_direct(
            m, 1.0, R, PlanarVec(0.0, 0.0))
        assert got == pytest.approx(want, rel=1e-14, abs=1e-16)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_first_order_error_is_quadratic(self, m):
        k = 1.0
        R = PlanarVec(1.7, 0.4)
        a, b = 0.9995, 0.0005
        errs = []
        for rr in (0.02, 0.01, 0.005):
            r = PlanarVec(rr, 0.9)
            got = expansion.quadrupole_expand(m, k, R, r, a, b)
            want = (a * expansion.psi_displaced_direct(
                        m, k, R, PlanarVec(a * rr, 0.9 + math.pi))
                    - b * expansion.psi_displaced_direct(
                        m, k, R, PlanarVec(b * rr, 0.9)))
            errs.append(abs(got - want))
        # Halving r should shrink the residual by about 4x.
        assert errs[1] < 0.4 * errs[0]
        assert errs[2] < 0.4 * errs[1]

    def test_near_cancellation(self):
        # R + r = 0.02 with r opposite to R; b = 0 leaves one profile.
        got = expansion.quadrupole_expand(5, 1.0, PlanarVec(1.0, 0.0),
                                          PlanarVec(0.98, math.pi), 1.0, 0.0)
        want = ((specfun.bessel_j(5, 1.0) + 0.98 * specfun.bessel_j(6, 1.0))
                * 0.02 ** 5)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_rejects_bad_mass_ratios(self):
        with pytest.raises(InvalidArgumentError):
            expansion.quadrupole_expand(1, 1.0, PlanarVec(1, 0),
                                        PlanarVec(0.1, 0), 1.5, 0.0)

    # At R = 0: the radial factor at order 0, 0 without a displacement,
    # SingularConfigurationError with one.
    O = PlanarVec(0.0, 0.0)
    r = PlanarVec(0.3, 0.9)

    @pytest.mark.parametrize("m", [1, 2])
    def test_origin_without_displacement_gives_zero(self, m):
        assert expansion.quadrupole_expand(m, 1.0, self.O, self.O,
                                           0.9995, 0.0005) == 0.0

    def test_origin_at_order_zero_is_the_radial_factor(self):
        assert expansion.quadrupole_expand(
            0, 1.0, self.O, self.r, 0.9995, 0.0005) == pytest.approx(0.999)

    def test_origin_with_displacement_raises(self):
        with pytest.raises(SingularConfigurationError):
            expansion.quadrupole_expand(1, 1.0, self.O, self.r,
                                        0.9995, 0.0005)
