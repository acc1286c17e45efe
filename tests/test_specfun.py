"""Special-function kernel vs an independent multiprecision oracle."""

import bisect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from twistkit import specfun
from twistkit.errors import ConvergenceError, InvalidArgumentError

mpmath.mp.dps = 30


class TestBesselJ:
    def test_against_mpmath_grid(self):
        rng = np.random.RandomState(7)
        for _ in range(200):
            order = int(rng.randint(0, 15))
            x = float(rng.uniform(0.0, 40.0))
            want = float(mpmath.besselj(order, x))
            got = specfun.bessel_j(order, x)
            assert got == pytest.approx(want, abs=1e-12, rel=1e-11)

    def test_at_zero(self):
        assert specfun.bessel_j(0, 0.0) == 1.0
        assert specfun.bessel_j(3, 0.0) == 0.0

    def test_crossover_continuity(self):
        # Both sides of the series/fit switch at x = 8 and of the fit/Miller
        # switch at order = floor(x), floor(x) + 1 stay on the oracle.
        for order in (0, 1, 5):
            for x in (8.0 - 1e-9, 8.0 + 1e-9, 16.0 - 1e-9, 16.0 + 1e-9):
                want = float(mpmath.besselj(order, x))
                got = specfun.bessel_j(order, x)
                assert got == pytest.approx(want, abs=1e-13)
        for x in (8.5, 12.3, 19.0, 40.7, 99.9):
            for order in (math.floor(x), math.floor(x) + 1):
                want = float(mpmath.besselj(order, x))
                got = specfun.bessel_j(order, x)
                assert got == pytest.approx(want, abs=1e-13)
            # Where both hold, the fit and Miller agree.
            order = math.floor(x)
            assert abs(specfun._bessel_j_fit(order, x)
                       - specfun._bessel_j_miller(order, x)) <= 2e-15

    def test_large_x_range_against_mpmath(self):
        # Orders 0..60, x log-uniform on [16, 3000]: the fit and the
        # forward recurrence for order <= x, Miller's recurrence above.
        rng = np.random.RandomState(16)
        fitted = 0
        for _ in range(300):
            order = int(rng.randint(0, 61))
            x = float(np.exp(rng.uniform(np.log(16.0), np.log(3000.0))))
            fitted += order <= x
            want = float(mpmath.besselj(order, x))
            assert specfun.bessel_j(order, x) == pytest.approx(want, abs=1e-15)
        assert fitted > 200

    def test_fit_branch_against_mpmath(self):
        # The fit alone at orders 0..12, x log-uniform on [8, 200], every
        # draw with order <= x: within 3e-16 absolute (worst measured
        # 2.2e-16 over 3000 draws).
        rng = np.random.RandomState(12)
        fitted = 0
        for _ in range(300):
            order = int(rng.randint(0, 13))
            x = float(np.exp(rng.uniform(np.log(8.0), np.log(200.0))))
            if order > x:
                continue
            fitted += 1
            got = specfun._bessel_j_fit(order, x)
            assert specfun.bessel_j(order, x) == got
            assert abs(got - float(mpmath.besselj(order, x))) <= 3e-16
        assert fitted > 280

    def test_fit_order_zero_runs_two_columns_bit_identically(self):
        # Order 0 evaluates the P_0 and q_0 columns alone: the same
        # operations as the four-column loop, so the same bits.
        def four_columns(x):
            t = 64.0 / (x * x)
            p0 = q0 = p1 = q1 = 0.0
            for a, b, c, d in specfun._J01_FIT:
                p0 = p0 * t + a
                q0 = q0 * t + b
                p1 = p1 * t + c
                q1 = q1 * t + d
            cos_x, sin_x = math.cos(x), math.sin(x)
            return ((p0 * (cos_x + sin_x) - 8.0 / x * q0 * (sin_x - cos_x))
                    / math.sqrt(math.pi * x))
        rng = np.random.RandomState(29)
        for x in [8.0, 9.5, 1e6] + list(np.exp(rng.uniform(np.log(8.0),
                                                            np.log(3000.0), 200))):
            assert specfun._bessel_j_fit(0, float(x)) == four_columns(float(x))

    def test_fit_at_every_order_up_to_x(self):
        # The forward recurrence up to the turning point, x log-uniform on
        # [8, 3000] and any order <= x: within 1e-15 absolute (worst
        # measured 3.9e-16 over 1500 draws); far beyond, ~1e-19.
        rng = np.random.RandomState(8)
        for _ in range(100):
            x = float(np.exp(rng.uniform(np.log(8.0), np.log(3000.0))))
            order = int(rng.randint(0, int(x) + 1))
            want = float(mpmath.besselj(order, x))
            assert abs(specfun._bessel_j_fit(order, x) - want) <= 1e-15
        for x in (1e4, 1e6, 1e12):
            for order in (0, 1, 2, 5):
                want = float(mpmath.besselj(order, x))
                assert abs(specfun.bessel_j(order, x) - want) <= 1e-18

    @staticmethod
    def _stored_fit(t):
        p0 = q0 = p1 = q1 = 0.0
        for a, b, c, d in specfun._J01_FIT:
            p0, q0 = p0 * t + a, q0 * t + b
            p1, q1 = p1 * t + c, q1 * t + d
        return p0, q0, p1, q1

    @pytest.mark.parametrize("t", [1e-3, 0.05, 0.25, 0.5, 0.75, 1.0])
    def test_stored_fit_against_mpmath(self, t):
        # P_n and q_n = (x/8) Q_n at x = 8/sqrt(t), from J_n and Y_n:
        # sqrt(pi x/2) (J, Y) = (P cos chi - Q sin chi, P sin chi + Q cos chi)
        # with chi = x - (2n+1) pi/4.  P's error is its own rounding near 1
        # (half an ulp is 1.1e-16); q's, ~0.05 at most, shows the fit's
        # own ~5e-18.
        assert len(specfun._J01_FIT) == 13
        with mpmath.workdps(40):
            x = 8 / mpmath.sqrt(t)
            want = []
            for n in (0, 1):
                chi = x - (2 * n + 1) * mpmath.pi / 4
                j = mpmath.besselj(n, x) * mpmath.sqrt(mpmath.pi * x / 2)
                y = mpmath.bessely(n, x) * mpmath.sqrt(mpmath.pi * x / 2)
                want.append(j * mpmath.cos(chi) + y * mpmath.sin(chi))
                want.append((x / 8) * (y * mpmath.cos(chi)
                                       - j * mpmath.sin(chi)))
            errs = [float(abs(g - w))
                    for g, w in zip(self._stored_fit(t), want)]
        assert errs[0] <= 1.5e-16 and errs[2] <= 1.5e-16
        assert errs[1] <= 2e-17 and errs[3] <= 2e-17

    def test_stored_fit_limits_at_infinity(self):
        # t = 0: P_n = 1, Q_n ~ (4n^2 - 1)/(8x), so q_n = (4n^2 - 1)/64.
        p0, q0, p1, q1 = self._stored_fit(0.0)
        assert p0 == p1 == 1.0
        assert abs(q0 + 1 / 64) <= 1e-17 and abs(q1 - 3 / 64) <= 1e-17

    def test_miller_against_mpmath(self):
        # Miller's recurrence alone, orders 0..60, x log-uniform on
        # [8, 3000] past the series region.  Its rounding grows with the
        # ~x steps it takes: the worst of 4000 draws on that range is
        # 1.0e-15, at x ~ 590.  A coefficient 2k/x built from a hoisted 2/x loses
        # 3e-15 here, a margin without the x^(1/3) term 2e-4.
        rng = np.random.RandomState(60)
        for _ in range(400):
            order = int(rng.randint(0, 61))
            x = float(np.exp(rng.uniform(np.log(8.0), np.log(3000.0))))
            if x * x < 4.0 * (order + 1):
                continue
            want = float(mpmath.besselj(order, x))
            assert abs(specfun._bessel_j_miller(order, x) - want) <= 1.5e-15

    @pytest.mark.parametrize("order, x, branch", [
        (0, 8.0 - 1e-9, "_bessel_j_series"), (0, 8.0, "_bessel_j_fit"),
        (8, 8.0, "_bessel_j_fit"), (9, 8.0, "_bessel_j_miller"),
        (15, 8.0, "_bessel_j_miller"), (16, 8.0, "_bessel_j_series"),
        (-3, 40.0, "_bessel_j_fit"), (40, 20.0, "_bessel_j_miller"),
        (99, 20.0, "_bessel_j_miller"), (100, 20.0, "_bessel_j_series"),
        (0, 1e6, "_bessel_j_fit")])
    def test_branch_is_chosen_before_any_work(self, monkeypatch, order, x,
                                              branch):
        # One branch per call, picked from (order, x): no try and fall back.
        calls = []
        for name in ("_bessel_j_series", "_bessel_j_fit", "_bessel_j_miller"):
            real = getattr(specfun, name)

            def counted(m, y, name=name, real=real):
                calls.append(name)
                return real(m, y)
            monkeypatch.setattr(specfun, name, counted)
        specfun.bessel_j(order, x)
        assert calls == [branch]

    def test_order_above_x_takes_miller(self):
        # At m = 40, x = 20 the order lies between x and x^2/4 - 1.
        want = float(mpmath.besselj(40, 20.0))
        got = specfun.bessel_j(40, 20.0)
        assert got == specfun._bessel_j_miller(40, 20.0)
        assert got == pytest.approx(want, abs=1e-12, rel=1e-11)

    def test_large_order_underflow_is_zero(self):
        assert specfun.bessel_j(600, 1.0) == 0.0

    def test_negative_orders_on_every_branch(self, monkeypatch):
        # J_{-m} = (-1)^m J_m from one evaluation, on the series (x = 3),
        # fit (x = 12 and 40) and Miller (x = 9, orders 10..16) branches;
        # a wrapper of specfun.bessel_j, as the benchmark's tracer is, sees
        # one call.
        original = specfun.bessel_j
        for x, orders in ((3.0, range(1, 8)), (12.0, range(1, 8)),
                          (40.0, range(1, 8)), (9.0, range(10, 17))):
            for m in orders:
                got = original(-m, x)
                assert got == (-1) ** m * original(m, x)
                assert abs(got - float(mpmath.besselj(-m, x))) <= 1e-14
        calls = []

        def counted(order, x):
            calls.append(order)
            return original(order, x)
        monkeypatch.setattr(specfun, "bessel_j", counted)
        specfun.bessel_j(-3, 40.0)
        assert calls == [-3]

    def test_rejects_negative_order_and_argument(self):
        # Every integer order is accepted now: J_{-1} = -J_1.
        assert specfun.bessel_j(-1, 1.0) == -specfun.bessel_j(1, 1.0)
        with pytest.raises(InvalidArgumentError):
            specfun.bessel_j(0, -0.5)
        with pytest.raises(InvalidArgumentError):
            specfun.bessel_j(0, math.nan)

    def test_rejects_non_integral_orders(self):
        # bessel_j(0.5, 20.0) once gave 0.16666 (J_{1/2}(20) = 0.16288),
        # bessel_j(-0.5, 1.0) gave -0.6714 (J_{-1/2}(1) = 0.4311), and
        # bessel_j(0.5, 10.0) raised a bare TypeError.
        for order, x in ((0.5, 20.0), (-0.5, 1.0), (0.5, 10.0), (2.0, 1.0)):
            with pytest.raises(InvalidArgumentError):
                specfun.bessel_j(order, x)
        assert specfun.bessel_j(np.int64(-3), 9.0) == specfun.bessel_j(-3, 9.0)


class TestBesselJSeries:
    # The ascending series alone, against 30-digit mpmath: ~4e-14 absolute
    # up to x = 8, where its terms cancel (worst measured 1.7e-14, over
    # 4000 draws at orders 0..3 and x in (4, 8)).
    BOUND = 4e-14

    def test_against_mpmath_below_the_crossover(self):
        rng = np.random.RandomState(25)
        for _ in range(600):
            order = int(rng.randint(0, 41))
            x = float(np.exp(rng.uniform(math.log(1e-6), math.log(8.0))))
            want = mpmath.besselj(order, x)
            assert abs(specfun._bessel_j_series(order, x) - want) <= self.BOUND

    def test_relative_error_where_the_terms_fall(self):
        # x^2 < 4(m+1) at m <= 170: (x/2)^m times the stored 1/m!, and a
        # sum that loses no digits, so the error is relative (worst
        # measured 4.0e-16 over 3000 draws).
        rng = np.random.RandomState(170)
        for _ in range(600):
            order = int(rng.randint(0, specfun._FACT_MAX + 1))
            top = 2.0 * math.sqrt(order + 1.0)
            x = float(np.exp(rng.uniform(math.log(1e-3), math.log(top))))
            want = mpmath.besselj(order, x)
            if abs(want) < 1e-290:  # subnormal or zero: no relative digits
                continue
            got = specfun._bessel_j_series(order, x)
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_against_mpmath_at_large_order(self):
        # x >= 8 with x^2 < 4(m+1): the terms fall from the start, so the
        # relative error is that of (x/2)^m / m!: from the stored 1/m! at
        # m <= 170, in log space above (worst measured 1.6e-13 at
        # m <= 200).
        rng = np.random.RandomState(26)
        for _ in range(300):
            order = int(rng.randint(16, 201))
            x = float(rng.uniform(8.0, 2.0 * math.sqrt(order + 1.0)))
            want = mpmath.besselj(order, x)
            got = specfun.bessel_j(order, x)
            assert got == specfun._bessel_j_series(order, x)
            assert abs(got - want) <= self.BOUND
            assert abs(got - want) <= 5e-13 * abs(want)

    def test_against_mpmath_near_the_first_zeros(self):
        # Absolute, as everywhere: no relative digits survive at a zero
        # (worst measured 2.3e-15, at the zero of J_3, x = 6.38).
        for order in range(4):
            zero = float(mpmath.besseljzero(order, 1))
            for dx in np.linspace(-1e-6, 1e-6, 41):
                x = zero + float(dx)
                want = mpmath.besselj(order, x)
                assert abs(specfun._bessel_j_series(order, x) - want) <= self.BOUND

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 15, 40, 100, 200, 1000])
    def test_term_counts_meet_the_tail_bound(self, order):
        # At the largest h of each term count N, the first dropped term
        # c_N h^N (exact rationals) is within _SERIES_TAIL, up to the
        # rounding of the power that placed h; the terms fall from there
        # on, so the alternating tail is below it.
        limits, sums, _ = specfun._series_row(order)
        assert len(limits) == len(sums)
        assert limits == sorted(limits)
        assert limits[-1] >= max(16.0, order + 1.0)
        tail = Fraction(specfun._SERIES_TAIL)
        for n, h in enumerate(limits, start=1):
            c_n = Fraction(math.factorial(order),
                           math.factorial(n) * math.factorial(order + n))
            assert c_n * Fraction(h) ** n <= tail * Fraction(1 + 1e-13)
            assert h < (n + 1) * (order + n + 1)
            # The count N stores c_{N-1} .. c_0, highest first, each the
            # exact (-1)^t m! / (t! (m+t)!) correctly rounded.
            assert sums[n - 1] == tuple(
                float(Fraction((-1) ** t * math.factorial(order),
                               math.factorial(t) * math.factorial(order + t)))
                for t in reversed(range(n)))
        assert sums[-1][-1] == 1.0
        assert sums[-1][-2] == -1.0 / (order + 1)

    def test_sum_stays_above_an_eighth_where_terms_fall(self):
        # The bound's premise: with (x/2)^2 < m + 1 the series sum
        # 0F1(; m+1; -(x/2)^2) is least at (x/2)^2 = m + 1 and m = 0.
        least = min(mpmath.hyp0f1(m + 1, -(m + 1)) for m in range(201))
        assert least == mpmath.hyp0f1(1, -1)
        assert 0.125 < least < 0.225

    @pytest.mark.parametrize("order", [5, -5, 12])
    def test_numpy_order_builds_an_exact_row(self, monkeypatch, order):
        # The first call at an order builds its row; from an np.int64 order
        # the row's exact denominator N! (m+N)! / m! once became an
        # np.int64, which wraps past 2^63 (N ~ 12 at m = 5), and every later
        # int call at that order read the garbage row.
        monkeypatch.setattr(specfun, "_SERIES_ROWS", {})
        first = specfun.bessel_j(np.int64(order), 6.0)
        later = specfun.bessel_j(order, 6.0)
        monkeypatch.setattr(specfun, "_SERIES_ROWS", {})
        assert first == later == specfun.bessel_j(order, 6.0)
        assert abs(later - mpmath.besselj(order, 6.0)) <= self.BOUND


def _fit_loop_form(order, x):
    # _bessel_j_fit as one loop over the table's 4-tuples: the reference
    # its written-out Horner columns must match bit for bit.
    t = 64.0 / (x * x)
    p0 = q0 = p1 = q1 = 0.0
    for a, b, c, d in specfun._J01_FIT:
        p0, q0 = p0 * t + a, q0 * t + b
        p1, q1 = p1 * t + c, q1 * t + d
    cos_x, sin_x = math.cos(x), math.sin(x)
    r = 8.0 / x
    scale = math.sqrt(math.pi * x)
    j0 = (p0 * (cos_x + sin_x) - r * q0 * (sin_x - cos_x)) / scale
    if order == 0:
        return j0
    j1 = (p1 * (sin_x - cos_x) + r * q1 * (sin_x + cos_x)) / scale
    for k in range(1, order):
        j0, j1 = j1, (2.0 * k / x) * j1 - j0
    return j1


def _series_slice_form(order, x):
    # _bessel_j_series summing a slice of one coefficient list, c_t built
    # here from exact rationals: the reference for its stored suffixes.
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    limits, _, _ = specfun._series_row(order)
    coeffs = [float(Fraction((-1) ** t * math.factorial(order),
                             math.factorial(t) * math.factorial(order + t)))
              for t in reversed(range(len(limits)))]
    half = 0.5 * x
    if order <= specfun._FACT_MAX:
        t0 = half ** order * (1 / math.factorial(order))
    else:
        log_t0 = order * math.log(half) - math.lgamma(order + 1)
        if log_t0 < -745.0:
            return 0.0
        t0 = math.exp(log_t0)
    h2 = half * half
    total = 0.0
    for c in coeffs[len(coeffs) - 1 - bisect.bisect_left(limits, h2):]:
        total = total * h2 + c
    return t0 * total


class TestBitIdenticalForms:
    # The kernel's hot paths against the forms they replaced: equal bits,
    # compared with ==, not within a tolerance.

    def test_fit_matches_the_loop_form(self):
        rng = np.random.RandomState(3102)
        xs = [8.0, 8.5, 1e6, 1e200] + list(
            np.exp(rng.uniform(np.log(8.0), np.log(3000.0), 400)))
        for x in map(float, xs):
            for order in {0, 1, 2, 3, int(rng.randint(0, min(x, 60) + 1))}:
                assert (specfun._bessel_j_fit(order, x)
                        == _fit_loop_form(order, x))

    def test_series_matches_the_slice_form(self):
        rng = np.random.RandomState(3103)
        for _ in range(800):
            order = int(rng.randint(0, 201))
            top = max(8.0, 2.0 * math.sqrt(order + 1.0))
            x = float(rng.uniform(0.0, top))
            assert (specfun._bessel_j_series(order, x)
                    == _series_slice_form(order, x))
        for order in (0, 3, 171):
            assert specfun._bessel_j_series(order, 0.0) == (order == 0)

    def test_bessel_j_matches_the_reference_forms(self):
        # Deterministic draws over the three branches and negative orders:
        # (-1)^m times the reference branch that (|m|, x) selects.
        rng = np.random.RandomState(3104)
        taken = {"series": 0, "fit": 0, "miller": 0}
        for _ in range(1500):
            order = int(rng.randint(-60, 61))
            x = float(np.exp(rng.uniform(np.log(1e-3), np.log(400.0))))
            m = abs(order)
            if x < 8.0 or x * x < 4.0 * (m + 1.0):
                branch, want = "series", _series_slice_form(m, x)
            elif m <= x:
                branch, want = "fit", _fit_loop_form(m, x)
            else:
                branch, want = "miller", specfun._bessel_j_miller(m, x)
            taken[branch] += 1
            if order < 0 and order % 2:
                want = -want
            assert specfun.bessel_j(order, x) == want
        assert min(taken.values()) >= 80


class TestBesselJRun:
    def test_against_mpmath_no_worse_than_scalar(self):
        # Orders 0..80, x in [1e-3, 60], run lengths 1..60: the worst
        # absolute error is at most the scalar's, and the worst relative
        # one above the turning point (order > x, no zeros) is within
        # 4e-15 (measured: run 3.5e-15, scalar 1.9e-15).
        rng = np.random.RandomState(21)
        xs = [1e-3, 7.9, 8.0, 18.5, 60.0]
        xs += [float(x) for x in np.exp(rng.uniform(math.log(1e-3), math.log(60.0), 115))]
        run_abs = scalar_abs = run_rel = scalar_rel = 0.0
        for x in xs:
            order = int(rng.randint(0, 81))
            n = int(rng.randint(1, 61))
            run = specfun.bessel_j_run(order, n, x)
            assert len(run) == n
            for i in range(0, n, 2):
                want = mpmath.besselj(order + i, x)
                scalar = specfun.bessel_j(order + i, x)
                e_run = float(abs(run[i] - want))
                e_scalar = float(abs(scalar - want))
                run_abs = max(run_abs, e_run)
                scalar_abs = max(scalar_abs, e_scalar)
                if order + i > x and abs(want) > 1e-290:
                    run_rel = max(run_rel, e_run / float(abs(want)))
                    scalar_rel = max(scalar_rel, e_scalar / float(abs(want)))
        assert run_abs <= 1e-15
        assert run_abs <= scalar_abs
        assert run_rel <= 4e-15
        assert scalar_rel <= 4e-15

    def test_at_zero_exact(self):
        assert specfun.bessel_j_run(0, 4, 0.0) == [1.0, 0.0, 0.0, 0.0]
        assert specfun.bessel_j_run(3, 2, 0.0) == [0.0, 0.0]

    def test_underflow_is_zero(self):
        # J_70..J_80(1e-3) lie below 1e-308.
        assert mpmath.besselj(70, 1e-3) < 1e-308
        assert specfun.bessel_j_run(70, 11, 1e-3) == [0.0] * 11
        run = specfun.bessel_j_run(0, 81, 1e-3)
        assert all(math.isfinite(v) for v in run)
        assert run[80] == 0.0
        assert run[40] == pytest.approx(float(mpmath.besselj(40, 1e-3)), rel=1e-13)

    def test_long_run_through_the_rescale(self):
        # From J_1688(500) ~ 6e-686 the pass crosses 1e250 once, at order 884;
        # the orders above it were kept before the rescale.
        x = 500.0
        run = specfun.bessel_j_run(400, 1201, x)
        assert all(math.isfinite(v) for v in run)
        for order in range(400, 1101, 25):
            want = mpmath.besselj(order, x)
            if order <= x:
                assert abs(run[order - 400] - want) <= 1e-15
            else:
                assert abs(run[order - 400] - want) <= 1e-13 * abs(want)
        assert mpmath.besselj(1600, x) < 1e-308
        assert abs(run[-1]) < 1e-300

    def test_one_miller_start_per_call(self, monkeypatch):
        # The overflow guard and the pass share one start; the values are
        # those of a pass from that start.
        calls = []
        real = specfun._miller_start

        def counted(top, x):
            calls.append((top, x))
            return real(top, x)

        monkeypatch.setattr(specfun, "_miller_start", counted)
        run = specfun.bessel_j_run(2, 10, 3.0)
        assert calls == [(11, 3.0)]
        out, norm = specfun._miller_pass(2, 10, 3.0, real(11, 3.0))
        assert run == [v / norm for v in out]

    def test_scalar_calls_outside_the_pass_range(self):
        for order, n, x in ((3, 5, 1e-30), (0, 4, 2500.0)):
            want = [specfun.bessel_j(order + i, x) for i in range(n)]
            assert specfun.bessel_j_run(order, n, x) == want

    def test_rejects_bad_arguments(self):
        for args in ((-1, 3, 1.0), (0, 0, 1.0), (0, 3, -1.0),
                     (0, 3, math.nan), (0, 3, math.inf)):
            with pytest.raises(InvalidArgumentError):
                specfun.bessel_j_run(*args)

    def test_rejects_non_integral_orders(self):
        for args in ((0.5, 3, 1.0), (1.0, 3, 10.0), (0, 2.5, 1.0)):
            with pytest.raises(InvalidArgumentError):
                specfun.bessel_j_run(*args)
        assert (specfun.bessel_j_run(np.int64(1), np.int64(3), 9.0)
                == specfun.bessel_j_run(1, 3, 9.0))


class TestLaguerre:
    def test_against_mpmath(self):
        rng = np.random.RandomState(11)
        for _ in range(100):
            n = int(rng.randint(0, 12))
            alpha = float(rng.uniform(-0.9, 6.0))
            x = float(rng.uniform(0.0, 12.0))
            want = float(mpmath.laguerre(n, alpha, x))
            got = specfun.laguerre(n, alpha, x)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_low_degrees_exact(self):
        assert specfun.laguerre(0, 2.5, 9.0) == 1.0
        assert specfun.laguerre(1, 0.5, 2.0) == 1.0 + 0.5 - 2.0

    def test_rejects_negative_degree(self):
        with pytest.raises(InvalidArgumentError):
            specfun.laguerre(-1, 0.0, 1.0)

    def test_rejects_non_integral_degrees(self):
        # laguerre(1.5, ...) and laguerre(2.0, ...) raised a bare TypeError.
        for n in (1.5, 2.0):
            with pytest.raises(InvalidArgumentError):
                specfun.laguerre(n, 0.5, 1.0)
        assert specfun.laguerre(np.int64(3), 0.5, 1.0) == specfun.laguerre(3, 0.5, 1.0)

    @pytest.mark.parametrize("alpha, x", [(math.nan, 1.0), (math.inf, 1.0),
                                          (0.5, math.nan), (0.5, -math.inf)])
    def test_rejects_non_finite_alpha_or_x(self, alpha, x):
        with pytest.raises(InvalidArgumentError):
            specfun.laguerre(2, alpha, x)

    def test_unchecked_recurrence_is_the_same(self):
        # laguerre is its checks, then _laguerre: the same values.
        for n in range(6):
            for alpha, x in ((0.0, 0.3), (2.5, 7.0), (15.0, 40.0)):
                assert specfun._laguerre(n, alpha, x) == specfun.laguerre(n, alpha, x)


class TestPochhammer:
    def test_against_mpmath(self):
        for a in (-2.5, 0.5, 3.0):
            for n in range(6):
                assert specfun.pochhammer(a, n) == pytest.approx(
                    float(mpmath.rf(a, n)), rel=1e-13, abs=1e-13)

    def test_empty_product(self):
        assert specfun.pochhammer(7.3, 0) == 1.0

    def test_rejects_non_integral_and_negative_lengths(self):
        for n in (1.5, 2.0, -1):
            with pytest.raises(InvalidArgumentError):
                specfun.pochhammer(0.5, n)
        assert specfun.pochhammer(0.5, np.int64(4)) == specfun.pochhammer(0.5, 4)


class TestHyp1F1Scaled:
    @staticmethod
    def _want(a, b, x):
        with mpmath.workdps(40):
            return float(mpmath.exp(-x) * mpmath.hyp1f1(a, b, x))

    def test_against_mpmath(self):
        # The vortex series' parameters: a = n >= 0, b = m + n_bar + 1 >= 1.
        cases = [(0.5, 2.0, 1.7), (0.0, 3.0, 2.5), (1.0, 1.0, 0.0),
                 (2.0, 5.0, 30.0), (3.0, 17.0, 0.3), (4.0, 9.0, 100.0)]
        for a, b, x in cases:
            res = specfun.hyp1f1_scaled(a, b, x)
            assert res.value == pytest.approx(self._want(a, b, x), rel=1e-11)
            assert res.terms_used >= 1

    def test_truncation_estimate_is_honest(self):
        # At SERIES_REL_TOL, at small and moderate x, for a < 1 and a >= 1:
        # the estimate sums the dropped tail as a geometric series in a
        # bound on the term ratio past the stop, and adds the rounding.
        for a, b, x in ((1.0, 2.0, 0.5), (0.5, 2.0, 1.7), (5.0, 6.0, 2.25),
                        (2.0, 5.0, 30.0)):
            res = specfun.hyp1f1_scaled(a, b, x)
            assert abs(res.value - self._want(a, b, x)) <= res.truncation_estimate

    @pytest.mark.parametrize("a, b, x", [
        *((n, m + n_bar + 1, 0.25 * ka * ka) for ka in (20, 30, 40, 50, 60)
          for n_bar, m, n in ((0, 2, 2), (0, 3, 1), (1, 2, 1), (2, 3, 2),
                              (0, 1, 1))),
        (2.0, 5.0, 800.0), (4.0, 9.0, 100.0), (5.0, 6.0, 2.25),
        (0.5, 2.0, 1.7)])
    def test_estimate_bounds_the_error_at_large_x(self, a, b, x):
        # The vortex series' a = n and b = m + n_bar + 1 at k alpha =
        # 20..60, x = (k alpha)^2 / 4, where the term ratio at the stop is
        # 0.56-0.80: twice the first omitted term once fell below the error
        # by up to 2.9x.  At x = 800 the rounding of the log-space sum
        # matters too.
        res = specfun.hyp1f1_scaled(a, b, x)
        assert abs(res.value - self._want(a, b, x)) <= res.truncation_estimate

    def test_past_overflow(self):
        # At x = 800 e^{-x} underflows and the terms of 1F1(2; 5; x)
        # overflow, but their products stay in range.
        res = specfun.hyp1f1_scaled(2.0, 5.0, 800.0)
        assert res.value == pytest.approx(self._want(2.0, 5.0, 800.0), rel=1e-10)

    @pytest.mark.parametrize("a, b, x", [
        (-1.0, 2.0, 0.5), (1.0, 0.0, 0.5), (1.0, -3.0, 0.5), (1.0, 2.0, -0.5),
        (math.nan, 2.0, 0.5), (1.0, math.inf, 0.5), (1.0, 2.0, math.inf)])
    def test_rejects_arguments_outside_its_domain(self, a, b, x):
        with pytest.raises(InvalidArgumentError):
            specfun.hyp1f1_scaled(a, b, x)


class TestExpintE:
    @pytest.mark.parametrize("p", [0.5, 1.5, 2.5, 6.5, 14.5])
    def test_imaginary_axis_against_mpmath(self, p):
        # The triple-Bessel tail needs E_p(-i w x0) on both sides of the
        # |z| = 2 switch between the series and the continued fraction.
        for y in (1e-4, 0.3, 1.0, 1.99, 2.0, 2.01, 5.0, 30.0, 300.0):
            for z in (complex(0.0, -y), complex(0.0, y)):
                want = complex(mpmath.expint(p, z))
                assert abs(specfun.expint_e(p, z) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("p0", [0.5, 1.5, 2.5])
    def test_ladder_against_mpmath(self, p0):
        # The tail's z = -i w x0, |w| from 1e-3 to 30 and x0 from 5 to 60,
        # puts |z| below, inside and above the rungs p0 .. p0 + n - 1.
        cases = [(w, x0) for w in (1e-3, -0.02, 0.3, -1.0, 2.7, -9.0, 30.0)
                 for x0 in (5.0, 12.0, 60.0)]
        for i, (w, x0) in enumerate(cases):
            n = 13 + i % 3
            z = complex(0.0, -w * x0)
            got = specfun.expint_e_ladder(p0, n, z)
            assert len(got) == n
            for j, e in enumerate(got):
                want = complex(mpmath.expint(p0 + j, z))
                assert abs(e - want) <= 1e-14 * abs(want), (n, w, x0, j)

    def test_zero_argument_against_mpmath(self):
        # A degenerate triangle gives the tail a zero beat: z = 0, where
        # E_p(0) = 1/(p-1) for p > 1 (E_1/2(0) diverges and is rejected).
        for p in (1.5, 2.5, 6.5, 14.5):
            assert specfun.expint_e(p, 0j) == pytest.approx(
                float(mpmath.expint(p, 0)), rel=1e-15)
        got = specfun.expint_e_ladder(1.5, 14, 0j)
        for j, e in enumerate(got):
            want = float(mpmath.expint(1.5 + j, 0))
            assert abs(e - want) <= 1e-15 * want, j
        with pytest.raises(InvalidArgumentError):
            specfun.expint_e_ladder(0.5, 14, 0j)

    def test_rejects_bad_arguments(self):
        for p in (1.0, 0.0, -0.5):
            with pytest.raises(InvalidArgumentError):
                specfun.expint_e(p, 1j)
        with pytest.raises(InvalidArgumentError):
            specfun.expint_e(0.5, 0j)
        with pytest.raises(InvalidArgumentError):
            specfun.expint_e_ladder(0.5, 0, 1j)


class TestGegenbauerRun:
    def test_against_mpmath(self):
        # The recurrence stays within 3e-14 of C_v^l(1), the largest
        # |C_v^l| on [-1, 1].
        rng = np.random.RandomState(8)
        for l in range(1, 8):
            for dphi in [0.0, math.pi, 1e-9] + list(rng.uniform(-7.0, 7.0, 4)):
                run = specfun.gegenbauer_run(l, 61, float(dphi))
                assert len(run) == 61
                for v in range(61):
                    want = mpmath.gegenbauer(v, l, math.cos(dphi))
                    assert abs(run[v] - want) <= 3e-14 * math.comb(v + 2 * l - 1, v)

    def test_short_runs(self):
        assert specfun.gegenbauer_run(3, 1, 0.4) == [1.0]
        assert specfun.gegenbauer_run(3, 2, 0.0) == [1.0, 6.0]

    def test_rejects_invalid_indices(self):
        with pytest.raises(InvalidArgumentError):
            specfun.gegenbauer_run(0, 3, 0.5)
        with pytest.raises(InvalidArgumentError):
            specfun.gegenbauer_run(1, 0, 0.5)
        for n in (1.5, 2.0):
            with pytest.raises(InvalidArgumentError):
                specfun.gegenbauer_run(1, n, 0.5)
        assert specfun.gegenbauer_run(2, np.int64(5), 0.5) == specfun.gegenbauer_run(2, 5, 0.5)


class TestSeriesResult:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            specfun.SeriesResult(value=1.0, terms_used=0, truncation_estimate=0.0)
        with pytest.raises(InvalidArgumentError):
            specfun.SeriesResult(value=1.0, terms_used=1, truncation_estimate=-1.0)
        with pytest.raises(InvalidArgumentError):
            specfun.SeriesResult(value=math.inf, terms_used=1,
                                 truncation_estimate=0.0)
