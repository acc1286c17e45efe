"""Displaced-profile expansions: addition theorem, phase factorization,
and the first-order two-displacement bracket."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from twistkit import expansion, specfun
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

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_per_term_breakdown_sums_to_value(self, m):
        # psi_shifted sums the ratio series times one complex power;
        # psi_shifted_terms spells out every (n, v, s) term separately.
        R = PlanarVec(1.2, 0.3)
        q = PlanarVec(0.8, 1.7)
        terms = expansion.psi_shifted_terms(m, 1.0, R, q, 25)
        total = sum(t.value for t in terms)
        whole = expansion.psi_shifted(m, 1.0, R, q, 25).value
        assert total == pytest.approx(whole, abs=1e-14)

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


class TestCenteredCmApprox:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_exact_at_zero_displacement(self, m):
        R = PlanarVec(1.7, 0.4)
        q = PlanarVec(0.0, 0.9)
        got = expansion.centered_cm_approx(m, 1.0, R, q)
        want = expansion.psi_displaced_direct(m, 1.0, R, q)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-16)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_error_is_first_order(self, m):
        R = PlanarVec(1.7, 0.4)
        errs = []
        for qq in (0.02, 0.01, 0.005):
            q = PlanarVec(qq, 0.9)
            errs.append(abs(expansion.centered_cm_approx(m, 1.0, R, q)
                            - expansion.psi_displaced_direct(m, 1.0, R, q)))
        # Halving q should halve the residual.
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.05)
        assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.05)

    def test_near_cancellation(self):
        # R - q = 0.02: the binomial factor is 0.02^5, not a sum of O(1)
        # terms cancelling to it.
        got = expansion.centered_cm_approx(5, 1.0, PlanarVec(1.0, 0.0),
                                           PlanarVec(0.98, 0.0))
        want = specfun.bessel_j(5, 1.0) * 0.02 ** 5
        assert abs(got - want) <= 1e-12 * abs(want)


class TestQuadrupoleExpand:
    def test_first_order_error_is_quadratic(self):
        m, k = 2, 1.0
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


class TestOriginRule:
    """At R = 0 the three truncations share one rule: the radial factor at
    order 0, 0 without a displacement, SingularConfigurationError with
    one."""

    O = PlanarVec(0.0, 0.0)
    r = PlanarVec(0.3, 0.9)

    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_displacement_gives_zero(self, m):
        assert expansion.centered_cm_approx(m, 1.0, self.O, self.O) == 0.0
        assert expansion.product_expand(m, 0, 1.0, 0.8, self.O, self.O,
                                        0.5) == 0.0
        assert expansion.quadrupole_expand(m, 1.0, self.O, self.O,
                                           0.9995, 0.0005) == 0.0

    def test_order_zero_is_the_radial_factor(self):
        assert expansion.centered_cm_approx(0, 1.0, self.O, self.r) == 1.0
        assert expansion.product_expand(0, 0, 1.0, 0.8, self.O, self.r,
                                        0.5) == 1.0
        assert expansion.quadrupole_expand(
            0, 1.0, self.O, self.r, 0.9995, 0.0005) == pytest.approx(0.999)

    def test_displacement_raises(self):
        for call in (
                lambda: expansion.centered_cm_approx(1, 1.0, self.O, self.r),
                lambda: expansion.product_expand(1, 0, 1.0, 0.8, self.O,
                                                 self.r, 0.5),
                lambda: expansion.quadrupole_expand(1, 1.0, self.O, self.r,
                                                    0.9995, 0.0005)):
            with pytest.raises(SingularConfigurationError):
                call()


class TestProductExpand:
    def test_zero_displacement_is_plain_product(self):
        R = PlanarVec(1.3, 0.7)
        got = expansion.product_expand(2, 1, 1.0, 0.8, R, PlanarVec(0.0, 0.0), 0.5)
        want = (specfun.bessel_j(2, 1.3) * specfun.bessel_j(1, 0.8 * 1.3)
                * cmath.exp(3j * 0.7))
        assert got == pytest.approx(want, abs=1e-13)

    def test_near_cancellation(self):
        # R + 0.49 r = 0.02: the order-6 binomial is 0.02^6.
        got = expansion.product_expand(4, 2, 1.0, 0.8, PlanarVec(1.0, 0.0),
                                       PlanarVec(2.0, math.pi), 0.49)
        want = (specfun.bessel_j(4, 1.0) * specfun.bessel_j(2, 0.8)
                * 0.02 ** 6)
        assert abs(got - want) <= 1e-12 * abs(want)
