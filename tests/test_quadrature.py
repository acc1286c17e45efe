"""Quadrature engines: finite panels, semi-infinite oscillatory tails,
and finite-difference vector operators."""

import math

import pytest

from twistkit import matrix_elements, quadrature
from twistkit.errors import ConvergenceError, InvalidArgumentError
from twistkit.specfun import bessel_j


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
        r = quadrature.integrate_finite(math.sqrt, 0.0, 1.0)
        assert r.value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_evaluations_are_k21_panels(self):
        # One K21 panel, then two per halving: 21 + 42 j evaluations.
        assert quadrature.integrate_finite(math.sin, 0.0, math.pi).evaluations == 21
        for f, b in ((lambda x: x * x * math.exp(-x * x), 12.0),
                     (math.sqrt, 1.0),
                     (lambda x: math.cos(7.0 * x) * math.exp(-x), 20.0)):
            r = quadrature.integrate_finite(f, 0.0, b)
            assert r.evaluations > 21
            assert (r.evaluations - 21) % 42 == 0

    def test_equal_cells_to_start(self):
        # 21 (cells + 2 j) evaluations after j halvings; the first panels
        # are equal cells, and cells = 1 is the default.
        f = lambda x: math.cos(7.0 * x) * math.exp(-x)
        one = quadrature.integrate_finite(f, 0.0, 20.0)
        assert one == quadrature.integrate_finite(f, 0.0, 20.0, 1)
        want = (1.0 - math.exp(-20.0) * (math.cos(140.0)
                                         - 7.0 * math.sin(140.0))) / 50.0
        for cells in (2, 3, 7):
            r = quadrature.integrate_finite(f, 0.0, 20.0, cells)
            assert r.evaluations >= 21 * cells
            assert (r.evaluations - 21 * cells) % 42 == 0
            assert abs(r.value - want) <= r.abs_error_estimate <= 1e-12
        r = quadrature.integrate_finite(math.sin, 0.0, math.pi, 4)
        assert r.evaluations == 84 and abs(r.value - 2.0) <= 1e-15

    def test_cells_past_the_cap_raise_before_any_evaluation(self):
        calls = []
        cells = quadrature._FINITE_MAX_EVALS // quadrature._GK_NODES + 1
        with pytest.raises(ConvergenceError) as info:
            quadrature.integrate_finite(lambda x: calls.append(x) or 0.0,
                                        0.0, 1.0, cells)
        assert calls == []
        partial = info.value.partial
        assert (partial.evaluations, partial.converged) == (0, False)
        assert math.isnan(partial.value) and partial.abs_error_estimate == math.inf
        # The most cells under the cap still run.
        r = quadrature.integrate_finite(math.cos, 0.0, 1.0, cells - 1)
        assert r.converged and r.evaluations == 21 * (cells - 1)

    @pytest.mark.parametrize("cells", [0, -3])
    def test_cells_below_one_rejected(self, cells):
        with pytest.raises(InvalidArgumentError):
            quadrature.integrate_finite(math.cos, 0.0, 1.0, cells)

    def test_k21_rule_exact_to_degree_30(self):
        v, _ = quadrature._gauss_kronrod(lambda x: x ** 30, -1.0, 1.0)
        assert abs(v - 2.0 / 31.0) <= 1e-15

    def test_result_validation(self):
        with pytest.raises(InvalidArgumentError):
            quadrature.QuadResult(value=1.0, abs_error_estimate=-1.0,
                                  evaluations=1, converged=True)


class TestSemiInfinite:
    def test_rejects_bad_arguments(self):
        f = lambda x: bessel_j(0, x)
        for scale in (0.0, -1.0):
            with pytest.raises(InvalidArgumentError):
                quadrature.integrate_bessel_semiinfinite(
                    f, scale, (12.0, 16.0), lambda x0: 0.0)

    def test_cell_error_is_not_hidden(self):
        # A unit step on [0, 0.3), inside the first cell of a recoil
        # integrand: no G10/K21 panel resolves it, so body plus tail must
        # either raise or carry an estimate that covers its true error.
        # Integrand, tail and cut-offs (max(12, m^2)/k and max(16, m^2 + 4)/k
        # over the factors) are those of _triple_bessel_oracle(1.0, 0.7,
        # 1.4, 1, 1, 1, 0), whose exact value is Sonine-Gegenbauer's
        # 2 Delta / (pi a b c).
        ks, orders = (1.0, 0.7, 1.4), (1, 1, 1)
        f = lambda x: (bessel_j(1, ks[0] * x) * bessel_j(1, ks[1] * x)
                       * bessel_j(1, ks[2] * x) + (1.0 if x < 0.3 else 0.0))
        tail = matrix_elements._triple_bessel_tail(ks, orders, 0)
        s = 0.5 * sum(ks)
        area = math.sqrt(s * (s - ks[0]) * (s - ks[1]) * (s - ks[2]))
        exact = 2.0 * area / (math.pi * ks[0] * ks[1] * ks[2]) + 0.3
        try:
            r = quadrature.integrate_bessel_semiinfinite(
                f, sum(ks), (12.0 / 0.7, 16.0 / 0.7), tail)
        except ConvergenceError as exc:
            assert exc.partial.abs_error_estimate > 1e-9
            return
        assert r.abs_error_estimate >= abs(r.value - exact)

    def test_wrong_tail_raises_after_the_cells_between_the_cut_offs(self):
        # The tail 0 is wrong at both cut-offs (x = 12 and 16 both round
        # up to 6 pi, so the second moves one 3 pi cell out), so only the
        # one K21 cell between them is spent before ConvergenceError.
        f = lambda x: bessel_j(0, x)
        with pytest.raises(ConvergenceError) as info:
            quadrature.integrate_bessel_semiinfinite(
                f, 1.0, (12.0, 16.0), lambda x0: 0.0)
        assert not info.value.partial.converged
        assert (info.value.partial.abs_error_estimate
                > quadrature.SEMIINFINITE_TOL)
        assert info.value.partial.evaluations == 21


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
