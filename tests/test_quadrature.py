"""Quadrature engines: finite panels, semi-infinite oscillatory tails,
and finite-difference vector operators."""

import math

import pytest

from twistkit import quadrature
from twistkit.errors import ConvergenceError, InvalidArgumentError
from twistkit.fields import bessel_j_any


class TestIntegrateFinite:
    def test_smooth_exact(self):
        r = quadrature.integrate_finite(math.sin, 0.0, math.pi)
        assert r.value == pytest.approx(2.0, abs=1e-13)
        assert r.converged
        assert abs(r.value - 2.0) <= 10 * max(r.abs_error_estimate, 1e-15)

    def test_gaussian_moment(self):
        f = lambda x: x * x * math.exp(-x * x)
        r = quadrature.integrate_finite(f, 0.0, 12.0)
        assert r.value == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-13)

    def test_rejects_empty_interval(self):
        with pytest.raises(InvalidArgumentError):
            quadrature.integrate_finite(math.exp, 2.0, 2.0)

    def test_mild_singularity_in_derivative(self):
        r = quadrature.integrate_finite(math.sqrt, 0.0, 1.0, tol=1e-10)
        assert r.value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_evaluations_are_k21_panels(self):
        # One K21 panel, then two per halving: 21 + 42 j evaluations.
        assert quadrature.integrate_finite(math.sin, 0.0, math.pi).evaluations == 21
        for f, b in ((lambda x: x * x * math.exp(-x * x), 12.0),
                     (math.sqrt, 1.0),
                     (lambda x: math.cos(7.0 * x) * math.exp(-x), 20.0)):
            r = quadrature.integrate_finite(f, 0.0, b, tol=1e-10)
            assert r.evaluations > 21
            assert (r.evaluations - 21) % 42 == 0

    def test_k21_rule_exact_to_degree_30(self):
        v, _ = quadrature._gauss_kronrod(lambda x: x ** 30, -1.0, 1.0)
        assert abs(v - 2.0 / 31.0) <= 1e-15

    def test_result_validation(self):
        with pytest.raises(InvalidArgumentError):
            quadrature.QuadResult(value=1.0, abs_error_estimate=-1.0,
                                  evaluations=1, converged=True)


class TestSemiInfinite:
    def test_j0_unit_integral_both_methods(self):
        f = lambda x: bessel_j_any(0, x)
        for scheme in (quadrature._zero_partition, quadrature._eps_regularized):
            r = scheme(f, 1.0, 1e-10, frequencies=[1.0])
            assert r.value == pytest.approx(1.0, abs=1e-9)
            # One G10/K21 panel per cell; the eps ladder has 7 rungs of
            # 224 cells.
            assert r.evaluations % 21 == 0
        assert r.evaluations == 21 * 7 * 224

    def test_j1_unit_integral(self):
        f = lambda x: bessel_j_any(1, x)
        r = quadrature.dual_method_oracle(f, 1.0, 1e-10, [1.0])
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_two_bessel_closed_form(self):
        # int_0^inf J_0(a x) J_1(b x) dx = 1/b for 0 < a < b.
        a, b = 0.6, 1.1
        f = lambda x: bessel_j_any(0, a * x) * bessel_j_any(1, b * x)
        r = quadrature.dual_method_oracle(f, a + b, 1e-10, [a + b, b - a])
        assert r.value == pytest.approx(1.0 / b, abs=1e-9)
        assert r.converged
        # The eps-regularized scheme alone: one rung converges to the last
        # digit, so Wynn epsilon must stop there, not divide by rounding.
        re = quadrature._eps_regularized(f, a + b, 1e-10,
                                         frequencies=[a + b, b - a])
        assert re.value == pytest.approx(1.0 / b, abs=1e-9)

    def test_scaled_argument(self):
        # int_0^inf J_0(k x) dx = 1/k.
        k = 2.7
        f = lambda x: bessel_j_any(0, k * x)
        r = quadrature.dual_method_oracle(f, k, 1e-10, [k])
        assert r.value == pytest.approx(1.0 / k, abs=1e-9)

    def test_error_estimate_is_honest(self):
        f = lambda x: bessel_j_any(0, x)
        r = quadrature.dual_method_oracle(f, 1.0, 1e-10, [1.0])
        assert abs(r.value - 1.0) <= 100 * max(r.abs_error_estimate, 1e-14)

    def test_rejects_bad_arguments(self):
        f = lambda x: bessel_j_any(0, x)
        for scale in (0.0, -1.0):
            with pytest.raises(InvalidArgumentError):
                quadrature.integrate_bessel_semiinfinite(
                    f, scale, (12.0, 16.0), lambda x0: 0.0, 1e-10)
            with pytest.raises(InvalidArgumentError):
                quadrature.dual_method_oracle(f, scale, 1e-10, [1.0])

    def test_cell_error_is_not_hidden(self):
        # A unit step inside the first cell: no G10/K21 panel resolves it, so
        # each scheme must either say so or carry an estimate that covers
        # its true error.
        f = lambda x: bessel_j_any(0, x) + (1.0 if x < 0.3 else 0.0)
        for scheme in (quadrature._zero_partition,
                       quadrature._eps_regularized,
                       quadrature.dual_method_oracle):
            r = scheme(f, 1.0, 1e-10, frequencies=[1.0])
            assert not r.converged or r.abs_error_estimate >= abs(r.value - 1.3)

    def test_wrong_tail_raises_after_the_cells_between_the_cut_offs(self):
        # The tail 0 is wrong at both cut-offs (x = 12 and 16 both round
        # up to 6 pi, so the second moves one 3 pi cell out), so only the
        # one K21 cell between them is spent before ConvergenceError.
        f = lambda x: bessel_j_any(0, x)
        with pytest.raises(ConvergenceError) as info:
            quadrature.integrate_bessel_semiinfinite(
                f, 1.0, (12.0, 16.0), lambda x0: 0.0, 1e-10)
        assert not info.value.partial.converged
        assert info.value.partial.abs_error_estimate > 1e-10
        assert info.value.partial.evaluations == 21

    def test_converged_means_within_tol(self):
        # Only the zero-partition scheme converges on this triple-Bessel
        # integrand; the fallback estimate (4e-7) exceeds tol.
        k1, k2, k3 = 1.2373301541579083, 0.42380202133415146, 1.520407063435965
        f = lambda x: (bessel_j_any(1, k1 * x) * x * bessel_j_any(1, k2 * x)
                       * bessel_j_any(2, k3 * x))
        beats = sorted({abs(k1 + s2 * k2 + s3 * k3)
                        for s2 in (1, -1) for s3 in (1, -1)})
        r = quadrature.dual_method_oracle(f, k1 + k2 + k3, 1e-9, beats)
        assert r.abs_error_estimate > 1e-9
        assert not r.converged


class TestFiniteDifferenceOperators:
    @staticmethod
    def _field(x, y, z):
        # F = (sin(y) z, x^2 z, e^{x} cos(y)); analytic div and curl below.
        return (math.sin(y) * z, x * x * z, math.exp(x) * math.cos(y))

    def test_divergence(self):
        got = quadrature.fd_divergence(self._field, 0.4, -0.7, 1.1, 1e-4)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_curl(self):
        x, y, z = 0.4, -0.7, 1.1
        want = (-math.exp(x) * math.sin(y) - x * x,
                math.sin(y) - math.exp(x) * math.cos(y),
                2.0 * x * z - math.cos(y) * z)
        got = quadrature.fd_curl(self._field, x, y, z, 1e-4)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-8)

    def test_laplacian(self):
        x, y, z = 0.3, 0.2, -0.5
        want = (-math.sin(y) * z, 2.0 * z, 0.0)
        got = quadrature.fd_laplacian(self._field, x, y, z, 1e-3)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-7)

    @pytest.mark.parametrize("op, calls", [(quadrature.fd_divergence, 12),
                                           (quadrature.fd_curl, 12),
                                           (quadrature.fd_laplacian, 13)])
    def test_field_calls_per_point(self, op, calls):
        # One call per stencil point: +-h, +-2h on each axis (plus the
        # shared centre for the Laplacian).
        points = []

        def field(x, y, z):
            points.append((x, y, z))
            return self._field(x, y, z)
        op(field, 0.3, 0.2, -0.5, 1e-3)
        assert len(points) == calls
        assert len(set(points)) == calls
