"""Transition matrix elements: selection channels, center-of-mass and
internal integrals, spin couplings, and the candidate-closed-form
comparisons."""

import json
import math
import pathlib
import random
import sys

import mpmath
import pytest

from twistkit import matrix_elements as me, specfun
from twistkit.errors import (ConvergenceError, InvalidArgumentError,
                             SingularNormalizationError)
from twistkit.fields import (CylPoint, ModeKind, ModeSpec, magnetic_field, psi,
                             vector_potential)
from twistkit.quadrature import QuadResult, integrate_finite

HYDROGEN_2P_1S_RADIAL = 1536.0 / (243.0 * math.sqrt(24.0))


class TestStates:
    def test_trapped_state_validation(self):
        with pytest.raises(InvalidArgumentError):
            me.CenterOfMassState.trapped(0, -1, 1.0)
        with pytest.raises(InvalidArgumentError):
            me.CenterOfMassState.trapped(0, 0, 0.0)

    def test_non_integral_quantum_numbers_are_rejected(self):
        # free(1.5, 0.7) once failed later, with a TypeError in the recoil
        # dispatcher; trapped(0.5, 0, 1.0) gave an icm0 of 0.678, and
        # InternalState(1.5, 0, ...) an i_rel against 1s of 0.0, for states
        # that do not exist.
        radial = me.hydrogen_radial_2p()
        for make in (lambda: me.CenterOfMassState.free(1.5, 0.7),
                     lambda: me.CenterOfMassState.trapped(0.5, 0, 1.0),
                     lambda: me.CenterOfMassState.trapped(0, 1.5, 1.0),
                     lambda: me.InternalState(1.5, 0, radial),
                     lambda: me.InternalState(1, 0.5, radial),
                     lambda: me.InternalState(1, -2, radial),
                     lambda: me.InternalState(1, 2, radial)):
            with pytest.raises(InvalidArgumentError):
                make()

    def test_non_finite_state_is_rejected(self):
        # An infinite k_perp_R once reached the recoil cut-offs as a
        # division by zero.
        for make in (lambda: me.CenterOfMassState.free(0, math.inf),
                     lambda: me.CenterOfMassState.free(0, math.nan),
                     lambda: me.CenterOfMassState.free(0, 1.0, math.inf),
                     lambda: me.CenterOfMassState.trapped(0, 0, math.inf)):
            with pytest.raises(InvalidArgumentError):
                make()

    def test_internal_state_validation(self):
        with pytest.raises(InvalidArgumentError):
            me.hydrogen_state(1, 0, m_r=1)
        with pytest.raises(InvalidArgumentError):
            me.hydrogen_state(3, 2)

    def test_hydrogen_radial_normalization(self):
        s1 = me.hydrogen_state(1, 0)
        p2 = me.hydrogen_state(2, 1)
        n1 = integrate_finite(lambda r: r * r * s1.radial(r) ** 2, 0, 40).value
        n2 = integrate_finite(lambda r: r * r * p2.radial(r) ** 2, 0, 80).value
        assert n1 == pytest.approx(1.0, abs=1e-12)
        assert n2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q_e, energy_scale", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_dipole_couplings_must_be_finite(self, q_e, energy_scale):
        with pytest.raises(InvalidArgumentError):
            me.DipoleCouplings(q_e, energy_scale)

    @pytest.mark.parametrize("g, q, M", [
        (2.0, 1.0, 0.0), (2.0, 1.0, -1.0), (2.0, 1.0, math.inf),
        (2.0, 1.0, math.nan), (math.nan, 1.0, 1.0), (2.0, math.inf, 1.0)])
    def test_spin_particle_needs_finite_charges_and_positive_mass(self, g, q, M):
        # M = 0 once raised a bare ZeroDivisionError inside the coupling,
        # g = NaN gave a NaN amplitude and M = -1 was accepted.
        with pytest.raises(InvalidArgumentError):
            me.SpinParticle(g, q, M)

    def test_axial_momentum_constraint(self):
        cm = me.CenterOfMassState.free(0, 1.0, 0.7)
        assert me.axial_momentum_constraint(cm, 0.3) == pytest.approx(0.4)


def _full_grid_table(m, mode_kind, interaction, order=None):
    """The azimuthal oracle as it first stood, the reference for the
    factored one: every term sampled on the full _N_PHI x _N_PHI grid and
    one fft2 per spin change.  It never raises for unresolvable weights."""
    me._interaction_orders(interaction, order)
    import numpy as np

    mode_kind = ModeKind(mode_kind)
    terms = me._bracket(ModeSpec(mode_kind, m, 1.0, 1.0), interaction)[1]
    spin_mode = interaction == "spin"
    o = me.TermOrder(0, 0, 0)
    if interaction == "general":
        if order is None:
            raise InvalidArgumentError("the oracle needs explicit order indices")
        o = order

    phi = 2.0 * np.pi * np.arange(me._N_PHI) / me._N_PHI
    phi_R = phi[:, None]
    phi_r = phi[None, :]
    n, v, s = o
    grids = {}
    scale = 0.0  # sum of |coupling * radial|: what cancellation starts from
    for mu, sigma, coupling in terms:
        a = abs(mu)
        if a == 0:
            if n != 0 or s != 0:
                continue
            radial = (specfun.bessel_j(v, me._KR_R)
                      * specfun.bessel_j(v, me._KR_Q) * (2.0 if v else 1.0))
            term = radial * np.cos(v * (phi_R - phi_r)) + 0j
        else:
            if n > a:
                continue
            sgn = 1 if mu > 0 else -1
            parity = 1.0 if mu > 0 or a % 2 == 0 else -1.0
            radial = (parity * specfun.bessel_j(a + v, me._KR_R)
                      * specfun.bessel_j(a + v, me._KR_Q)
                      * math.comb(a, n) * (me._KR_Q / me._KR_R) ** n)
            term = (radial * np.cos((v - 2 * s) * (phi_R - phi_r))
                    * np.exp(-1j * sgn * ((a - n) * phi_R + n * phi_r)))
        scale += abs(coupling * radial)
        d_spin = sigma if spin_mode else 0
        vec = 1.0 if spin_mode else np.exp(1j * sigma * phi_r)
        contrib = coupling * term * vec
        grids[d_spin] = grids.get(d_spin, 0) + contrib

    spectra = {d_spin: np.abs(np.fft.fft2(grid) / (me._N_PHI * me._N_PHI))
               for d_spin, grid in grids.items()}
    peak = max((float(mags.max()) for mags in spectra.values()), default=0.0)
    table = {}
    if peak <= 1e-13 * scale:
        return table  # everything cancelled: no allowed channels
    half = me._N_PHI // 2
    for d_spin, mags in spectra.items():
        rows, cols = np.nonzero(mags > me._CHANNEL_REL_TOL * peak)
        for jR, jr in zip(rows.tolist(), cols.tolist()):
            dR = jR if jR < half else jR - me._N_PHI
            dr = jr if jr < half else jr - me._N_PHI
            table[(dR, dr, d_spin)] = float(mags[jR, jr])
    return table


def _scaled_2d_table(m, mode_kind, interaction, order=None):
    """The factored oracle as it stood before its one-pass table: the
    spectra scaled by 1/_N_PHI^2 and kept bins found with a 2-D nonzero.
    The reference for the bit identity of the unscaled, flat-index form."""
    [(o, _)] = me._interaction_orders(interaction, order)
    import numpy as np

    mode_kind = ModeKind(mode_kind)
    terms = me._bracket(ModeSpec(mode_kind, m, 1.0, 1.0), interaction)[1]
    spin_mode = interaction == "spin"
    phi = 2.0 * np.pi * np.arange(me._N_PHI) / me._N_PHI
    n, v, s = o
    w = v - 2 * s
    cos_w, sin_w = np.cos(w * phi), np.sin(w * phi)
    factors = {}
    weights = []
    for mu, sigma, coupling in terms:
        a = abs(mu)
        if n > a or (a == 0 and s != 0):
            continue
        sgn = 1 if mu > 0 else -1
        parity = 1.0 if mu > 0 or a % 2 == 0 else -1.0
        radial = (parity * specfun.bessel_j(a + v, me._KR_R)
                  * specfun.bessel_j(a + v, me._KR_Q)
                  * math.comb(a, n) * (me._KR_Q / me._KR_R) ** n
                  * (2.0 if a == 0 and v else 1.0))
        weights.append(abs(coupling * radial))
        d_spin = sigma if spin_mode else 0
        f = np.exp(-1j * sgn * (a - n) * phi)
        g = (coupling * radial
             * np.exp(1j * ((0 if spin_mode else sigma) - sgn * n) * phi))
        us, vs = factors.setdefault(d_spin, ([], []))
        us += [cos_w * f, sin_w * f]
        vs += [cos_w * g, sin_w * g]
    if weights and not min(weights) >= max(me._CHANNEL_REL_TOL * max(weights),
                                           sys.float_info.min):
        raise InvalidArgumentError("unresolvable term weights")

    spectra = {d_spin: np.abs(np.fft.fft(us, axis=1).T
                              @ np.fft.fft(vs, axis=1)) / (me._N_PHI * me._N_PHI)
               for d_spin, (us, vs) in factors.items()}
    peak = max((float(mags.max()) for mags in spectra.values()), default=0.0)
    table = {}
    if peak <= 1e-13 * sum(weights):
        return table
    half = me._N_PHI // 2
    for d_spin, mags in spectra.items():
        rows, cols = np.nonzero(mags > me._CHANNEL_REL_TOL * peak)
        for jR, jr in zip(rows.tolist(), cols.tolist()):
            dR = jR if jR < half else jR - me._N_PHI
            dr = jr if jr < half else jr - me._N_PHI
            table[(dR, dr, d_spin)] = float(mags[jR, jr])
    return table


def _selection_cases(m):
    """Every (m, kind, interaction, order) case up to n + v <= 3."""
    orders = [me.TermOrder(n, v, s) for n in range(4) for v in range(4 - n)
              for s in range(v + 1)]
    for kind in (ModeKind.TE, ModeKind.TM):
        yield m, kind, "dipole", None
        yield m, kind, "spin", None
        for o in orders:
            yield m, kind, "general", o


def _symbolic_keys(m, kind, interaction, order):
    return {(c.delta_m_R, c.delta_m_r, c.delta_spin_e)
            for c in me.symbolic_channels(m, kind, interaction, order=order)}


class TestSelectionChannels:
    def test_matches_azimuthal_oracle_spot_checks(self):
        orders = [me.TermOrder(n, v, s) for n in range(2)
                  for v in range(2 - n) for s in range(v + 1)]
        for m in (-2, 0, 1, 3):
            for kind in (ModeKind.TE, ModeKind.TM):
                cases = [("dipole", None), ("spin", None)]
                cases += [("general", o) for o in orders]
                for inter, o in cases:
                    sym = me.symbolic_channels(m, kind, inter, order=o)
                    got = {(c.delta_m_R, c.delta_m_r, c.delta_spin_e)
                           for c in sym}
                    want = set(me.azimuthal_channel_table(m, kind, inter,
                                                          order=o))
                    assert got == want, (m, kind, inter, o)

    def test_matches_azimuthal_oracle_at_large_m(self):
        # The radial weights J_{|m|+v}(1.3) J_{|m|+v}(0.7) fall below 1e-13
        # here, so the oracle must judge cancellation relative to them.
        # Kind and general order cycle with m to keep the test short.
        orders = [me.TermOrder(0, 0, 0), me.TermOrder(0, 1, 0),
                  me.TermOrder(0, 1, 1), me.TermOrder(1, 0, 0)]
        for i, m in enumerate([*range(-20, -7), *range(8, 21)]):
            kind = (ModeKind.TE, ModeKind.TM)[i % 2]
            cases = [("dipole", None), ("spin", None),
                     ("general", orders[i // 2 % 4])]
            for inter, o in cases:
                sym = me.symbolic_channels(m, kind, inter, order=o)
                got = {(c.delta_m_R, c.delta_m_r, c.delta_spin_e) for c in sym}
                want = set(me.azimuthal_channel_table(m, kind, inter, order=o))
                assert got and got == want, (m, kind, inter, o)

    def test_dipole_counts(self):
        assert len(me.symbolic_channels(2, ModeKind.TM, "dipole")) == 3
        assert len(me.symbolic_channels(0, ModeKind.TE, "dipole")) == 2

    def test_angular_momentum_conservation(self):
        for m in range(-4, 5):
            for kind in (ModeKind.TE, ModeKind.TM):
                for inter in ("dipole", "spin"):
                    for c in me.symbolic_channels(m, kind, inter):
                        assert (c.delta_m_R + c.delta_m_r
                                + c.delta_spin_e) == -m

    def test_exact_cancellation_at_m_zero(self):
        # The two transverse components of a TE mode at m = 0 carry equal
        # and opposite couplings into the same channel; the engine must
        # drop the cancelled channel, not report it.
        sym = me.symbolic_channels(0, ModeKind.TE, "general",
                                   order=me.TermOrder(1, 0, 0))
        got = {(c.delta_m_R, c.delta_m_r, c.delta_spin_e) for c in sym}
        want = set(me.azimuthal_channel_table(
            0, ModeKind.TE, "general", order=me.TermOrder(1, 0, 0)))
        assert got == want

    def test_multipole_enumeration_is_deduplicated(self):
        chs = me.symbolic_channels(1, ModeKind.TM, "general", max_multipole=2)
        keys = {(c.delta_m_R, c.delta_m_r, c.order) for c in chs}
        assert len(keys) == len(chs)

    @pytest.mark.parametrize("order", [(-1, 0, 0), (0, -1, 0), (0, 2, 5),
                                       (0, 1, -1)])
    def test_engines_reject_invalid_orders(self, order):
        # Each once gave an empty symbolic table; for s outside 0..v the
        # oracle still found channels, and for n < 0 it raised a bare
        # ValueError from math.comb.
        o = me.TermOrder(*order)
        with pytest.raises(InvalidArgumentError):
            me.symbolic_channels(1, ModeKind.TM, "general", order=o)
        with pytest.raises(InvalidArgumentError):
            me.azimuthal_channel_table(1, ModeKind.TM, "general", order=o)

    def test_engines_reject_non_integral_m(self):
        # symbolic_channels(1.5, "tm", "dipole") once listed
        # Delta m_R = -2.5, -1.5 and -0.5; both engines build a ModeSpec.
        for interaction in ("dipole", "general", "spin"):
            with pytest.raises(InvalidArgumentError):
                me.symbolic_channels(1.5, ModeKind.TM, interaction)
            order = me.TermOrder(0, 0, 0) if interaction == "general" else None
            with pytest.raises(InvalidArgumentError):
                me.azimuthal_channel_table(1.5, ModeKind.TM, interaction,
                                           order=order)

    def test_rejects_negative_max_multipole(self):
        with pytest.raises(InvalidArgumentError):
            me.symbolic_channels(1, ModeKind.TM, "general", max_multipole=-1)

    @pytest.mark.parametrize("interaction, order, max_multipole", [
        ("dipole", me.TermOrder(1, 0, 0), 0), ("spin", None, 3),
        ("general", me.TermOrder(0, 1, 0), 2)])
    def test_engines_reject_orders_the_interaction_ignores(
            self, interaction, order, max_multipole):
        # Each once gave a table as if the ignored argument were absent.
        with pytest.raises(InvalidArgumentError):
            me.symbolic_channels(2, ModeKind.TM, interaction,
                                 max_multipole=max_multipole, order=order)
        if not max_multipole:
            with pytest.raises(InvalidArgumentError):
                me.azimuthal_channel_table(2, ModeKind.TM, interaction,
                                           order=order)

    @pytest.mark.parametrize("m", range(-6, 7))
    def test_factored_oracle_matches_the_full_grid(self, m):
        # The same channels, and magnitudes within 1e-14 of the case's
        # largest, as the full-grid fft2 it replaced.
        for case in _selection_cases(m):
            want = _full_grid_table(*case)
            got = me.azimuthal_channel_table(*case)
            assert set(got) == set(want), case
            peak = max(want.values(), default=0.0)
            for key, mag in want.items():
                assert abs(got[key] - mag) <= 1e-14 * peak, (case, key)

    @pytest.mark.parametrize("m", [*range(-8, 9), 20, 40, 84])
    def test_one_pass_oracle_is_the_scaled_2d_form_bit_for_bit(self, m):
        # Unscaled magnitudes by flat index against the 1/N^2-scaled
        # spectrum and its 2-D nonzero: the same keys, the same floats, and
        # the same cases raising (some do at m = 84).
        for case in _selection_cases(m):
            try:
                want = _scaled_2d_table(*case)
            except InvalidArgumentError:
                with pytest.raises(InvalidArgumentError):
                    me.azimuthal_channel_table(*case)
                continue
            got = me.azimuthal_channel_table(*case)
            assert list(got) == list(want), case
            assert [v.hex() for v in got.values()] == [
                v.hex() for v in want.values()], case

    def test_oracle_resolves_every_case_up_to_m_40(self):
        for m in range(-40, 41):
            for case in _selection_cases(m):
                assert (set(me.azimuthal_channel_table(*case))
                        == _symbolic_keys(*case)), case

    def test_oracle_raises_where_it_once_lost_channels(self):
        # The full-grid oracle returned partial tables from m = 84 on (the
        # weight ratio between |mu| = m - 1 and m + 1 falls below 1e-9) and
        # {} from m ~ 90 on (the weights underflow).  Wherever the oracle
        # still answers, that old table was right too.
        for m in range(84, 131):
            for case in _selection_cases(m):
                try:
                    got = me.azimuthal_channel_table(*case)
                except InvalidArgumentError:
                    continue
                want = _symbolic_keys(*case)
                assert set(got) == want, case
                assert set(_full_grid_table(*case)) == want, case


class TestTripleBessel:
    def test_matches_triangle_closed_form(self):
        # int_0^inf J_0(aR) J_0(bR) J_0(cR) R dR = 1 / (2 pi * area) when
        # a, b, c close a triangle with the given Heron area.
        a, b, c = 1.0, 0.7, 1.4
        s = 0.5 * (a + b + c)
        area = math.sqrt(s * (s - a) * (s - b) * (s - c))
        r = me.triple_bessel(a, b, c, 0, 0, 0)
        assert r.value == pytest.approx(1.0 / (2.0 * math.pi * area), abs=1e-8)

    @pytest.mark.parametrize("args, want", [
        # Stored mpmath values at two n = 0 points with nonzero orders.
        ((1.2373301541579083, 0.42380202133415146, 1.520407063435965,
          1, 1, 0), 0.6501934372948824),
        ((1.1865935229258735, 0.4074911447656985, 0.9220499893680024,
          0, 2, 0), -0.4530750445059241),
        # Slowly decaying nu = 0 Sonine case: 1 / (2 pi * area).
        ((0.44, 0.95, 1.24, 0, 0, 0), None),
    ], ids=["m1_mR1", "m0_mR2", "sonine_nu0"])
    def test_hard_points_converge(self, args, want):
        if want is None:
            a, b, c = args[:3]
            s = 0.5 * (a + b + c)
            want = 1.0 / (2.0 * math.pi
                          * math.sqrt(s * (s - a) * (s - b) * (s - c)))
        r = me.triple_bessel(*args)
        assert r.converged
        assert abs(r.value - want) <= 2e-9

    def test_vanishes_outside_momentum_cone(self):
        r = me.triple_bessel(1.0, 0.5, 2.5, 1, 0, 0)
        assert abs(r.value) < 1e-7

    @pytest.mark.parametrize("k, k_R, k_Rp", [
        (0.7, 0.8, 1.6), (1.0, 0.5, 2.0), (0.4, 1.1, 1.8), (1.3, 0.6, 2.5)])
    def test_third_order_minus_one_outside_cone(self, k, k_R, k_Rp):
        # n = m + m_R + 1 makes the third order -1: outside the cone the
        # integral is the Weber-Schafheitlin value b / (2c), sign-flipped
        # by J_{-1} = -J_1, not zero.
        r = me.triple_bessel(k, k_R, k_Rp, 0, 1, 2)
        assert r.value == pytest.approx(-k_R / (2.0 * k_Rp), abs=1e-8)

    def test_rejects_divergent_power(self):
        with pytest.raises(InvalidArgumentError):
            me.triple_bessel(1.0, 1.0, 1.0, 0, 0, 2)

    def test_rejects_non_integral_orders(self):
        # Graf's closed form reads no Bessel value: (1.5, 0, 1.5) once
        # returned 0.3579 with an estimate of 2.9e-15, and n = 0.5 failed
        # deep in the tail with "p must be a positive half-integer".
        for args in ((1.0, 0.7, 1.4, 1.5, 0, 0), (1.0, 0.7, 1.4, 1, 0, 0.5),
                     (0.9, 1.1, 1.3, 1.5, 1, 1)):
            with pytest.raises(InvalidArgumentError):
                me.triple_bessel(*args)
        cm_in = me.CenterOfMassState.free(0, 0.7)
        cm_out = me.CenterOfMassState.free(1, 1.4)
        for order in (0.5, 1.0):
            with pytest.raises(InvalidArgumentError):
                me.icm0(cm_in, cm_out, 1.0, 1.0, order)

    def test_rejects_non_finite_wavenumbers(self):
        # The cut-offs divide by each wavenumber: an infinite one once
        # raised ZeroDivisionError there, and free icm0 took a zero one.
        with pytest.raises(InvalidArgumentError):
            me.triple_bessel(math.inf, 0.7, 1.4, 0, 0, 0)
        cm_in = me.CenterOfMassState.free(0, 0.7)
        cm_out = me.CenterOfMassState.free(0, 1.4)
        for k in (math.inf, 0.0):
            with pytest.raises(InvalidArgumentError):
                me.icm0(cm_in, cm_out, k, 1.0, 0)

    def test_outside_cone_n2_vanishes(self):
        r = me.triple_bessel(1.5973384447144974, 0.6650369522286923,
                             2.7096154924789113, 3, 1, 2)
        assert abs(r.value) <= 1e-12

    @staticmethod
    def _body_plus_tail(k, k_R, k_Rp, m, m_R, n):
        # triple_bessel's integral by body plus tail, which triple_bessel
        # itself runs only at n >= 1 (n = 0 is Graf's closed form).
        return me._triple_bessel_oracle(k, k_R, k_Rp, m, m_R, m_R + m - n,
                                        1 - n)

    def test_body_plus_tail_evaluations(self):
        assert self._body_plus_tail(1.0, 0.7, 1.4, 0, 0, 0).evaluations <= 1500

    def test_body_in_three_half_period_k21_cells(self):
        # 8 cells of width 3 pi / 3.1 reach 0.7 x >= 16, one G10/K21
        # panel (21 evaluations) each.
        assert self._body_plus_tail(1.0, 0.7, 1.4, 0, 0, 0).evaluations <= 200

    @pytest.mark.parametrize("args", [(1.0, 1e-6, 1.0, 0, 0, 0),
                                      (1.0, 0.5, 1.4, 10, 0, 0)])
    def test_cut_off_cost_is_bounded(self, args):
        # k_perp_R = 1e-6 would put the cut-offs ~1e7 cells out: it raises
        # before integrating any cell.  Order 10 moves the cut-offs out to
        # k x = 100 and 104, where the Hankel tail holds.
        if args[1] < 1e-3:
            with pytest.raises(ConvergenceError) as info:
                self._body_plus_tail(*args)
            assert info.value.partial.evaluations == 0
        else:
            assert self._body_plus_tail(*args).evaluations <= 1500

    @staticmethod
    def _closed_form_cases():
        rng = random.Random(8)
        cases = []
        for nu in (0, 1, 2):
            for _ in range(6):
                a, b = rng.uniform(0.4, 1.8), rng.uniform(0.4, 1.8)
                c = abs(a - b) + (a + b - abs(a - b)) * rng.uniform(0.1, 0.9)
                s = 0.5 * (a + b + c)
                area = math.sqrt(s * (s - a) * (s - b) * (s - c))
                # Sonine-Gegenbauer: 2^{nu-1} D^{2nu-1} / ((abc)^nu
                # Gamma(nu + 1/2) sqrt(pi)), D the triangle's area.
                want = (2.0 ** (nu - 1) * area ** (2 * nu - 1)
                        / ((a * b * c) ** nu * math.gamma(nu + 0.5)
                           * math.sqrt(math.pi)))
                cases.append(((a, b, c, nu, nu, nu), want))
        for _ in range(6):
            a, b = rng.uniform(0.4, 1.8), rng.uniform(0.4, 1.8)
            c = (a + b) * rng.uniform(1.05, 1.5)
            # Weber-Schafheitlin outside the cone, and a vanishing point.
            cases.append(((a, b, c, 0, 1, 2), -b / (2.0 * c)))
            cases.append(((a, b, c, rng.randrange(4), rng.randrange(4), 0), 0.0))
        return cases

    def test_closed_forms_within_estimate(self):
        for args, want in self._closed_form_cases():
            r = me.triple_bessel(*args)
            assert r.converged, args
            assert abs(r.value - want) <= r.abs_error_estimate + 1e-12, args

    def test_corrupted_tail_raises(self, monkeypatch):
        # A tail off by 1e-3 x0 makes the two cut-offs disagree:
        # ConvergenceError after only the two K21 cells between them
        # (0.7 x = 12 and 16 round up to 6 and 8 cells of 3 pi / 3.1).
        original = me._triple_bessel_tail
        monkeypatch.setattr(me, "_triple_bessel_tail",
                            lambda *args: (lambda x0, t=original(*args):
                                           t(x0) + 1e-3 * x0))
        with pytest.raises(ConvergenceError) as info:
            self._body_plus_tail(1.0, 0.7, 1.4, 0, 0, 0)
        assert not info.value.partial.converged
        assert info.value.partial.abs_error_estimate > 1e-9
        assert info.value.partial.evaluations == 2 * 21

    def test_zero_beat_converges(self):
        # k^R' = k + k^R: the zero-beat tail terms R^{-p}, p = 3/2 + j at
        # n = 1, integrate to x0^{1-p} / (p - 1); the integral vanishes.
        r = me.triple_bessel(0.5, 0.7, 1.2, 1, 0, 1)
        assert r.converged
        assert abs(r.value) <= 1e-14

    def test_zero_beat_divergent_raises(self):
        # At n = 0 the zero-beat term is ~ R^{-1/2}: the integral diverges.
        with pytest.raises(InvalidArgumentError):
            me.triple_bessel(1.0, 1.0, 2.0, 0, 0, 0)

    @pytest.mark.xfail(
        reason="the bare integral is not monotonically suppressed in the "
               "axial-gradient index n; e.g. (0.9, 1.1, 1.3, m=2, m_R=1) "
               "gives |I(1)| > |I(0)|.  Suppression enters only through "
               "the multipole prefactors, not the integral itself.",
        strict=True)
    def test_monotone_suppression_in_n(self):
        vals = [abs(me.triple_bessel(0.9, 1.1, 1.3, 2, 1, n).value)
                for n in (0, 1, 2)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_convolve_matches_the_generator_form(self):
        # The products a_i b_{j-i}, added in the order i = 0..j, give the
        # bits of the generator form, on random coefficients over many
        # magnitudes and on the tail's own Hankel coefficients.
        rng = random.Random(3101)

        def generator_form(a, b):
            return [sum(a[i] * b[j - i] for i in range(j + 1))
                    for j in range(me._TAIL_TERMS + 1)]

        def coefficients():
            return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    * 10.0 ** rng.uniform(-12, 12)
                    for _ in range(me._TAIL_TERMS + 1)]
        pairs = [(coefficients(), coefficients()) for _ in range(200)]
        for _ in range(50):
            c1, c2 = (me._hankel_coefficients(rng.randint(-6, 6),
                                              rng.uniform(0.1, 3.0))
                      for _ in range(2))
            pairs.append((c1, c2))
            pairs.append((me._convolve(c1, c2), [x.conjugate() for x in c2]))
        for a, b in pairs:
            assert me._convolve(a, b) == generator_form(a, b)


# Free icm0 (k_perp, k_R_in, k_R_out, order, m_R_in, m_R_out) and
# triple_bessel (k, k_R, k_R', m, m_R, n) points with Bessel orders up to
# |10| (drawn from random.Random(30): k in [0.4, 1.8], icm0 orders in
# -10..10, m and m_R in 0..7 with |m + m_R - n| <= 10), the beat -0.003
# icm0 point, and three with an order of 30 in the fastest factor.  Each
# reference is mpmath quadrature over half-period cells to x = 260 plus
# perfbench/reference.py's _asymptotic_tail (30 Hankel terms) beyond it;
# the same to x = 200 agrees within 3e-21 on every point.
_HIGH_ORDER_POINTS = [
    ("icm0",
     (1.1547141904481348, 0.8048750210956087, 0.4420516719715779, 10, -4, -2),
     0.4798548781777117),
    ("icm0",
     (0.4678663980668602, 0.9266507349774943, 0.5876997022653796, -8, 4, -10),
     1.0715111891818014),
    ("icm0",
     (1.7908790106423362, 1.789600791822079, 0.7397457498028206, -8, -5, 9),
     0.20043078706108267),
    ("icm0",
     (1.1431536069843748, 0.9624906358200068, 1.5646380299046139, 1, 7, -8),
     0.09354706998161572),
    ("icm0",
     (0.9619760322042858, 0.7480651134804784, 1.1879449750539481, -2, 3, 8),
     -0.2742471400589829),
    ("icm0",
     (0.5336815546710137, 0.7898017249570186, 1.187197786966308, -7, 9, 5),
     0.5886458652813604),
    ("icm0",
     (1.7072445946400734, 0.5810833942970848, 0.832071876733808, -1, -2, 6),
     -0.002077525561762495),
    ("icm0",
     (0.5124794721132021, 0.7405130787129458, 0.8404610065067806, -10, 3, 6),
     -0.3196246402968581),
    ("icm0",
     (0.8213365707600632, 1.133239481600282, 0.6609161590101837, 10, 0, 6),
     0.19619770640087653),
    ("icm0",
     (1.031770539341324, 1.3198026979554291, 0.8651517251731887, 0, -8, -10),
     0.24528346493321526),
    ("icm0",
     (1.7121796244271743, 1.7227813612208611, 1.0639553236168116, 5, -2, 5),
     -0.18116836437131156),
    ("icm0",
     (0.7551362530353363, 0.7578382749267286, 1.3733215080841854, -5, -5, -5),
     0.4127434868626016),
    ("triple_bessel",
     (1.1173862695600956, 0.9882011572390104, 0.7157098599421983, 3, 7, 5),
     -8.09931824450702e-06),
    ("triple_bessel",
     (1.7087383196088126, 1.6578790875934244, 1.5408295427862035, 4, 6, 10),
     1.957045382844444e-06),
    ("triple_bessel",
     (1.2756255454339456, 0.9351908655611917, 1.5162260527680882, 7, 5, 6),
     6.82020839446441e-06),
    ("triple_bessel",
     (1.1250560864367674, 1.4097406105854957, 1.7393393919938358, 5, 0, 5),
     0.00023139452154597478),
    ("triple_bessel",
     (0.6643364397239229, 1.481293818864641, 1.1871655154658836, 4, 6, 11),
     -9.586515335369776e-08),
    ("triple_bessel",
     (1.5025384064902325, 1.2895630057481906, 0.4517595886074809, 7, 0, 2),
     0.0033615975565445483),
    ("triple_bessel",
     (1.5524707468826162, 1.0950830463812309, 1.5905750045336853, 4, 7, 9),
     8.536558667643594e-08),
    ("triple_bessel",
     (0.594026513298519, 1.6143900684055046, 0.9455702464163882, 1, 5, 0),
     -4.235164736271502e-22),
    ("triple_bessel",
     (0.6710738299080758, 1.2084294674205913, 1.0667550906876087, 2, 6, 1),
     0.054009431398014084),
    ("triple_bessel",
     (0.9329551245952091, 1.4623936758162848, 1.4643858776874161, 0, 5, 2),
     -0.005983172368350553),
    ("icm0",
     (0.6637396546184631, 1.112411615751372, 1.779393968169778, -6, 3, 10),
     2.7932478690807327),
    ("icm0",
     (1.7, 0.9, 1.1, 30, 4, -7),
     -0.18277343583888117),
    ("icm0",
     (0.8, 1.2, 1.65, 6, -11, -30),
     -0.11617822469866354),
    ("triple_bessel",
     (0.9, 1.7, 1.3, 3, 27, 0),
     -0.27100801507057054),
]


class TestHighOrderRecoil:
    @pytest.mark.parametrize(
        "kind, args, want", _HIGH_ORDER_POINTS,
        ids=["_".join(map(str, (kind,) + args[3:]))
             for kind, args, _ in _HIGH_ORDER_POINTS])
    def test_against_mpmath(self, kind, args, want):
        # Body plus tail against mpmath at every point; the public entry
        # point must return Graf's closed form on a Graf triple at power 1
        # and the body plus tail otherwise.
        if kind == "icm0":
            k, k_in, k_out, order, m_in, m_out = args
            orders, power = (order, m_in, m_out), 1
            got = me.icm0(me.CenterOfMassState.free(m_in, k_in),
                          me.CenterOfMassState.free(m_out, k_out),
                          k, 1.0, order)
        else:
            m, m_R, n = args[3:]
            orders, power = (m, m_R, m + m_R - n), 1 - n
            got = me.triple_bessel(*args).value
        r = me._triple_bessel_oracle(*args[:3], *orders, power)
        graf = me._graf_closed_form(*args[:3], *orders) if power == 1 else None
        assert got == (r if graf is None else graf).value
        if graf is not None:
            # The references hold to ~3e-21 (see above).
            assert abs(graf.value - want) <= graf.abs_error_estimate + 1e-20
        assert r.converged
        assert abs(r.value - want) <= 1e-12
        assert abs(r.value - want) <= r.abs_error_estimate + 1e-13
        if max(map(abs, orders)) <= 10:
            assert r.evaluations <= 1500


class TestGrafClosedForm:
    """Free recoil integrals whose orders form a Graf triple, in closed
    form: int J_{nu+k}(a t) J_k(b t) J_nu(c t) t dt = cos(nu chi - k gamma)
    / (2 pi Delta) inside the momentum triangle, 0 outside it."""

    @staticmethod
    def _mp_graf(a, b, c, nu, k):
        # The closed form at 30 digits from the law of cosines and Heron.
        with mpmath.workdps(30):
            a, b, c = map(mpmath.mpf, (a, b, c))
            s = (a + b + c) / 2
            area = mpmath.sqrt(s * (s - a) * (s - b) * (s - c))
            gamma = mpmath.acos((a * a + b * b - c * c) / (2 * a * b))
            chi = mpmath.acos((a * a + c * c - b * b) / (2 * a * c))
            return float(mpmath.cos(nu * chi - k * gamma)
                         / (2 * mpmath.pi * area))

    def test_pool_points_at_n0(self):
        path = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
                / "recoil_refs.json")
        points = [p for p in json.loads(path.read_text())["points"]
                  if p["n"] == 0]
        assert len(points) == 37
        for p in points:
            r = me.triple_bessel(p["k_perp"], p["k_perp_R"], p["k_perp_Rp"],
                                 p["m"], p["m_R"], 0)
            assert r.converged and r.evaluations == 0
            assert abs(r.value - p["value"]) <= 1e-14, p

    def test_signed_orders_against_body_plus_tail(self):
        rng = random.Random(16)
        inside = outside = 0
        for _ in range(64):
            ks = [rng.uniform(0.4, 1.8) for _ in range(3)]
            nu = rng.randint(-10, 10)
            k = rng.randint(max(-10, -10 - nu), min(10, 10 - nu))
            orders = [rng.choice((1, -1)) * (nu + k), k, nu]
            turn = rng.randrange(3)
            ks, orders = ks[turn:] + ks[:turn], orders[turn:] + orders[:turn]
            graf = me._graf_closed_form(*ks, *orders)
            r = me._triple_bessel_oracle(*ks, *orders, 1)
            assert abs(graf.value - r.value) <= (graf.abs_error_estimate
                                                 + r.abs_error_estimate), (
                ks, orders)
            inside += graf.value != 0.0
            outside += graf.value == 0.0
        assert inside >= 30 and outside >= 5

    def test_order_30_point(self):
        # Body plus tail raises ConvergenceError here: x_b = 904 / 0.5
        # lies beyond 1152 half-periods.  -0.11582775227125025 is mpmath
        # at 25 digits.
        with pytest.raises(ConvergenceError):
            me._triple_bessel_oracle(0.5, 1.2, 1.0, 30, 2, 32, 1)
        r = me.triple_bessel(0.5, 1.2, 1.0, 30, 2, 0)
        assert r.converged and r.evaluations == 0
        assert abs(r.value - -0.11582775227125025) <= r.abs_error_estimate

    @pytest.mark.parametrize("beat", [1e-12, 3e-9, 2e-7, 9.99e-7])
    def test_needle_triangles(self, beat):
        # One side 1e-6 between two nearly equal ones, which Heron's
        # formula in floating point gets wrong by orders of magnitude.
        for sides in ((1.0, 1e-6, 1.0 - beat), (1.3 + beat, 1.3, 1e-6),
                      (1e-6, 0.7, 0.7 + beat)):
            r = me._graf_closed_form(*sides, 0, 0, 0)
            assert abs(r.value - self._mp_graf(*sides, 0, 0)) <= r.abs_error_estimate
            for nu, k in ((3, -2), (-7, 5), (10, 10)):
                r = me._graf_closed_form(*sides, nu + k, k, nu)
                want = self._mp_graf(*sides, nu, k)
                assert abs(r.value - want) <= r.abs_error_estimate, (sides, nu, k)

    def test_exact_zero_outside_and_zero_beat(self):
        assert me.triple_bessel(1.0, 0.5, 2.5, 1, 0, 0) == QuadResult(
            0.0, 0.0, 0, True)
        # Orders (3, 2, -1): 2 = 3 + (-1).
        cm_in = me.CenterOfMassState.free(2, 0.5)
        cm_out = me.CenterOfMassState.free(-1, 2.5)
        assert me.icm0(cm_in, cm_out, 1.0, 1.0, 3) == 0.0
        # 0.5 + 0.75 = 1.25 exactly: a zero beat diverges.
        cm_out = me.CenterOfMassState.free(1, 1.25)
        with pytest.raises(InvalidArgumentError):
            me.icm0(me.CenterOfMassState.free(0, 0.75), cm_out, 0.5, 1.0, 1)
        with pytest.raises(InvalidArgumentError):
            me.triple_bessel(0.5, 0.75, 1.25, 0, 1, 0)

    def test_float_range(self):
        # Sides of 1e-170 put the area below the smallest normal float and
        # the value near 1e340: a domain error, not ZeroDivisionError.
        with pytest.raises(InvalidArgumentError):
            me.triple_bessel(1e-170, 1e-170, 1e-170, 0, 0, 0)
        # Sides of 1e200: the value, ~4e-401, underflows to 0.
        assert me.triple_bessel(1e200, 1e200, 1e200, 0, 0, 0).value == 0.0
        r = me.triple_bessel(1e-150, 1e-150, 1e-150, 0, 0, 0)
        assert r.value == pytest.approx(2.0 / (math.sqrt(3.0) * math.pi) * 1e300,
                                        rel=1e-14)

    @pytest.mark.parametrize("kind, m, m_R_in, k_R_in, m_R_out, k_R_out, want", [
        ("tm", 1, 0, 0.7, -1, 1.1, -0.07797584745460724),
        ("tm", 0, 2, 1.2, 2, 0.6, 0.03935118083563073),
        ("tm", -1, -3, 0.5, -2, 1.0, 0.14122861027974543)])
    def test_free_dipole_amplitude(self, kind, m, m_R_in, k_R_in, m_R_out,
                                   k_R_out, want):
        # want: the 2p -> 1s amplitude when free icm0 ran body plus tail
        # to 1e-9.
        amps = me.dipole_amplitude(ModeSpec(ModeKind(kind), m, 0.8, 1.2),
                                   me.CenterOfMassState.free(m_R_in, k_R_in),
                                   me.CenterOfMassState.free(m_R_out, k_R_out),
                                   me.hydrogen_state(2, 1, 0),
                                   me.hydrogen_state(1, 0))
        assert len(amps) == 1
        assert abs(amps[0].amplitude - want) <= 1e-9


class TestGrafAngleOracle:
    """Free recoil integrals at n >= 1 as a finite integral over Graf's
    angle, evaluated here and nowhere in the package.  With nu = m + m_R
    and m3 = nu - n, Graf's theorem (DLMF 10.23.7) gives

        (-1)^{m_R} / pi int_0^pi cos(nu chi + m_R alpha) G(W) d alpha,

    W^2 = k1^2 + k2^2 - 2 k1 k2 cos alpha, W cos chi = k1 - k2 cos alpha,
    W sin chi = k2 sin alpha, and G(W) = int_0^inf J_nu(W t) t^{1-n}
    J_{m3}(k3 t) dt in closed form: a discontinuous Weber-Schafheitlin
    integral, split where W = k3."""

    @staticmethod
    def _radial(W, k3, nu, n):
        m3 = nu - n
        if n <= nu:  # GR 6.575.1
            if W <= k3:
                return 0.0
            return (k3 ** m3 * (W * W - k3 * k3) ** (n - 1)
                    / (2.0 ** (n - 1) * math.factorial(n - 1) * W ** nu))
        # n = nu + 1, m3 = -1: DLMF 10.22.56, where 2F1(1, 1 - nu; 2; z)
        # terminates.
        if W <= k3:
            return -W ** nu / (2.0 ** nu * math.factorial(nu) * k3)
        if nu == 0:
            return 0.0
        z = (k3 / W) ** 2
        hyp = sum(math.prod(range(1 - nu, 1 - nu + j)) / math.factorial(j + 1)
                  * z ** j for j in range(nu))
        return (-k3 * hyp
                / (2.0 ** nu * math.factorial(nu - 1) * W ** (2 - nu)))

    @classmethod
    def _graf(cls, k1, k2, k3, m, m_R, n):
        nu = m + m_R

        def f(alpha):
            W = math.sqrt(k1 * k1 + k2 * k2 - 2.0 * k1 * k2 * math.cos(alpha))
            chi = math.atan2(k2 * math.sin(alpha), k1 - k2 * math.cos(alpha))
            return math.cos(nu * chi + m_R * alpha) * cls._radial(W, k3, nu, n)

        c = (k1 * k1 + k2 * k2 - k3 * k3) / (2.0 * k1 * k2)
        edges = [0.0, math.acos(c), math.pi] if -1.0 < c < 1.0 else [0.0,
                                                                     math.pi]
        parts = [integrate_finite(f, a, b) for a, b in zip(edges, edges[1:])]
        return ((-1) ** m_R / math.pi * sum(p.value for p in parts),
                sum(p.abs_error_estimate for p in parts) / math.pi)

    def test_body_plus_tail_matches_graf_angle(self):
        # Within the two estimates: where body plus tail reports ~4e-17 (at
        # (4, 2, 6), within 1e-20 of 30-digit mpmath), the angle integral is
        # the one 2.5e-16 off, inside its own estimate of 5.7e-15.
        rng = random.Random(3301)
        for _ in range(150):
            m, m_R = rng.randrange(6), rng.randrange(6)
            n = rng.randint(1, m + m_R + 1)
            k1, k2 = rng.uniform(0.4, 1.8), rng.uniform(0.4, 1.8)
            while True:  # keep W = k3 off the ends of the alpha range
                k3 = rng.uniform(0.1, 1.2 * (k1 + k2))
                if min(abs(k3 - abs(k1 - k2)), abs(k3 - k1 - k2)) >= 0.02:
                    break
            r = me.triple_bessel(k1, k2, k3, m, m_R, n)
            want, err = self._graf(k1, k2, k3, m, m_R, n)
            assert abs(r.value - want) <= r.abs_error_estimate + err, (
                k1, k2, k3, m, m_R, n)


@pytest.fixture
def finite_evaluations(monkeypatch):
    """The evaluation count of each integrate_finite call matrix_elements
    makes while the test runs."""
    evaluations = []
    finite = me.quadrature.integrate_finite

    def counted(*args, **kwargs):
        r = finite(*args, **kwargs)
        evaluations.append(r.evaluations)
        return r
    monkeypatch.setattr(me.quadrature, "integrate_finite", counted)
    return evaluations


class TestCenterOfMassIntegrals:
    def test_trapped_diagonal_long_wavelength_limit(self):
        cm = me.CenterOfMassState.trapped(0, 0, 1.1)
        assert me.icm0(cm, cm, 1e-8, 1.0, 0) == pytest.approx(1.0, abs=1e-8)

    def test_trapped_diagonal_gaussian_suppression(self):
        alpha = 1.1
        cm = me.CenterOfMassState.trapped(0, 0, alpha)
        for k in (0.5, 1.5, 3.0):
            got = me.icm0(cm, cm, k, 1.0, 0).real
            assert got == pytest.approx(me.suppression_factor(k, alpha),
                                        abs=1e-10)

    @pytest.mark.parametrize("k_perp, alpha", [
        (math.nan, 1.0), (math.inf, 1.0), (-0.5, 1.0),
        (1.0, math.nan), (1.0, math.inf), (1.0, -1.0), (1.0, 0.0)])
    def test_suppression_factor_rejects_invalid_input(self, k_perp, alpha):
        # suppression_factor(1.0, nan) once returned nan, and a negative or
        # infinite alpha was accepted.
        with pytest.raises(InvalidArgumentError):
            me.suppression_factor(k_perp, alpha)

    def test_suppression_factor_at_zero_k_perp(self):
        # The long-wavelength limit, where trapped icm0 gives 1 too.
        assert me.suppression_factor(0.0, 1.1) == 1.0

    def test_trapped_ground_state_on_k21_panels(self, finite_evaluations):
        # e^{-k^2 alpha^2 / 4} to rounding, in 105 evaluations each: the
        # derived cut-off sqrt(ln 1e16) = 6.07 takes five K21 panels at
        # every k alpha in [0.5, 3] (up to seven with the old cut-off 8).
        for alpha in (0.8, 1.0, 1.4):
            cm = me.CenterOfMassState.trapped(0, 0, alpha)
            for k_alpha in (0.5, 1.0, 2.0, 3.0):
                k = k_alpha / alpha
                got = me.icm0(cm, cm, k, 1.0, 0)
                assert abs(got - me.suppression_factor(k, alpha)) <= 1e-14
        assert finite_evaluations == [105] * 12

    @pytest.mark.parametrize("k_alpha", [1.0, 3.0])
    @pytest.mark.parametrize("m_in, n_in, m_out, n_out, order", [
        (0, 0, 0, 0, 0), (1, 2, 0, 1, -1), (2, 1, 1, 3, 2)])
    def test_trapped_depends_on_k_alpha_alone(self, finite_evaluations, m_in,
                                              n_in, m_out, n_out, order,
                                              k_alpha):
        # The overlap is an integral in R / alpha: the same evaluations at
        # every alpha, and values within rounding.  In R, the ground state
        # at k alpha = 3 took 63, 147 and 13,041 evaluations at these alphas
        # (4.65e-13 off at 1e-3), and there the excited pairs at alpha =
        # 1e4 raised ConvergenceError after 200,000.
        values = {}
        for alpha in (1e-3, 1.0, 1e4):
            cm_in = me.CenterOfMassState.trapped(m_in, n_in, alpha)
            cm_out = me.CenterOfMassState.trapped(m_out, n_out, alpha)
            values[alpha] = me.icm0(cm_in, cm_out, k_alpha / alpha, 1.0, order)
        assert len(finite_evaluations) == 3 and len(set(finite_evaluations)) == 1
        assert all(abs(v - values[1.0]) <= 1e-15 for v in values.values())
        if (m_in, n_in, m_out, n_out) == (0, 0, 0, 0):
            for v in values.values():
                assert abs(v - math.exp(-0.25 * k_alpha ** 2)) <= 1e-15

    @pytest.mark.parametrize("n_bar, m, n", [(1, 2, 1), (0, 3, 1), (2, 4, 2)])
    def test_vortex_estimate_holds_at_every_alpha(self, n_bar, m, n):
        # Against the 1F1 closed form in 40 digits.  In R the estimate was
        # a tolerance on a value that scales as alpha^(m-2n+2): at
        # (1, 1e4, 1e-4, 2, 1) it reported 5.8e-13 for an error of 3.7e-10.
        for k_alpha in (1.0, 3.0):
            for alpha in (1e-3, 1.0, 1e4):
                k = k_alpha / alpha
                r = me.ho_vortex_integral(n_bar, alpha, k, m, n)
                with mpmath.workdps(40):
                    a, kk = mpmath.mpf(alpha), mpmath.mpf(k)
                    z = (kk * a) ** 2 / 4
                    want = (a ** (2 * (m - n + 1)) * (kk / 2) ** m * z ** n_bar
                            / (2 * mpmath.factorial(n_bar))
                            * mpmath.factorial(m + n_bar - n)
                            / mpmath.factorial(m + n_bar)
                            * mpmath.hyp1f1(m + n_bar - n + 1, m + n_bar + 1, -z))
                    err = float(abs(mpmath.mpf(r.value) - want))
                assert err <= r.abs_error_estimate

    @pytest.mark.parametrize("k_perp", [-1.0, math.nan, math.inf])
    def test_trapped_rejects_invalid_k_perp(self, k_perp):
        # -1 once reached bessel_j, whose error named x = -4.0.
        cm = me.CenterOfMassState.trapped(0, 0, 1.0)
        with pytest.raises(InvalidArgumentError, match="k_perp"):
            me.icm0(cm, cm, k_perp, 1.0, 0)

    def test_trapped_at_zero_k_perp(self):
        # J_nu(0) = delta_nu0 leaves the states' orthonormality.
        for m_R, n_bar in ((0, 0), (1, 2), (-3, 1)):
            cm = me.CenterOfMassState.trapped(m_R, n_bar, 1.3)
            assert abs(me.icm0(cm, cm, 0.0, 1.0, 0) - 1.0) <= 1e-12
        cm_in = me.CenterOfMassState.trapped(1, 2, 1.3)
        cm_out = me.CenterOfMassState.trapped(1, 0, 1.3)
        assert abs(me.icm0(cm_in, cm_out, 0.0, 1.0, 0)) <= 1e-12

    def test_trapped_high_quanta_within_tolerance(self, finite_evaluations):
        # From (m_R, n_bar) = (-1, 2) at k alpha = 3 to m_R' = -1 + order,
        # n_bar' = 0..29.  The tolerance once bound the integral before
        # the states' norm (down to ~1e-11 here) scaled it: over orders
        # -14..14 49 such overlaps raised ConvergenceError, and 80 more
        # took 2,037 to 140,511 evaluations.
        cm_in = me.CenterOfMassState.trapped(-1, 2, 1.0)
        for order in (-14, -6, 0, 6, 14):
            for n_bar in range(30):
                cm_out = me.CenterOfMassState.trapped(-1 + order, n_bar, 1.0)
                me.icm0(cm_in, cm_out, 3.0, 1.0, order)
        assert len(finite_evaluations) == 150
        assert max(finite_evaluations) <= 2000

    @pytest.mark.parametrize("n_bar, m_R, k_alpha, nu_max, n_max, shortfall", [
        (0, 0, 1.0, 8, 10, 2e-11), (1, 1, 2.0, 12, 20, 6e-8)])
    def test_trapped_sum_rule(self, n_bar, m_R, k_alpha, nu_max, n_max,
                              shortfall):
        # sum_nu sum_n_bar' |icm0|^2 = 1: Neumann's sum_nu J_nu(kR)^2 = 1
        # (DLMF 10.23.3) and the completeness of the oscillator states at
        # each m_R'.  Truncated to |nu| <= nu_max and n_bar' < n_max, the
        # sum falls short of 1 by the dropped terms: 1.3e-11 and 4.1e-8.
        cm_in = me.CenterOfMassState.trapped(m_R, n_bar, 1.0)
        total = 0.0
        for nu in range(-nu_max, nu_max + 1):
            for n_out in range(n_max):
                cm_out = me.CenterOfMassState.trapped(m_R + nu, n_out, 1.0)
                total += abs(me.icm0(cm_in, cm_out, k_alpha, 1.0, nu)) ** 2
        assert -1e-12 <= 1.0 - total <= shortfall

    def test_free_non_convergence_raises(self):
        # k_R = 1e-6 puts the cut-offs beyond 1152 half-periods.
        cm_in = me.CenterOfMassState.free(3, 1e-6)
        cm_out = me.CenterOfMassState.free(10, 1.779393968169778)
        with pytest.raises(ConvergenceError) as info:
            me.icm0(cm_in, cm_out, 0.6637396546184631, 1.0, -6)
        assert not info.value.partial.converged
        assert info.value.partial.abs_error_estimate > 1e-9

    def test_free_order_8_converges(self):
        cm_in = me.CenterOfMassState.free(3, 1.7)
        cm_out = me.CenterOfMassState.free(-5, 1.4)
        # Orders (8, 3, -5) form a Graf triple: icm0 takes the closed form,
        # which body plus tail must reproduce.
        r = me._triple_bessel_oracle(0.5, 1.7, 1.4, 8, 3, -5, 1)
        assert r.converged
        graf = me._graf_closed_form(0.5, 1.7, 1.4, 8, 3, -5)
        assert me.icm0(cm_in, cm_out, 0.5, 1.0, 8) == graf.value
        assert abs(graf.value - r.value) <= (graf.abs_error_estimate
                                             + r.abs_error_estimate)

    def test_vortex_series_matches_quadrature(self):
        alpha = 1.3
        for z in (0.5, 1.0, 2.0):
            k = 2.0 * math.sqrt(z) / alpha
            for n_bar, m, n in [(0, 2, 1), (1, 3, 0), (2, 4, 2)]:
                q = me.ho_vortex_integral(n_bar, alpha, k, m, n).value
                s = me.ho_vortex_series(n_bar, alpha, k, m, n).value
                assert complex(s).real == pytest.approx(q, rel=1e-9)

    def test_vortex_series_against_mpmath_grid(self):
        # The printed alternating 1F1(m+n_bar-n+1; m+n_bar+1; -z) form in
        # 30 digits, up to k alpha = 20 where its terms cancel hardest.
        alpha = 1.3
        checked = 0
        for n_bar in range(4):
            for m in range(6):
                for n in range((m + 1) // 2 + 1):  # m - 2n + 1 >= 0
                    for k_alpha in (0.5, 1, 2, 4, 6, 8, 10, 12, 15, 20):
                        k = k_alpha / alpha
                        got = me.ho_vortex_series(n_bar, alpha, k, m, n).value
                        with mpmath.workdps(30):
                            z = mpmath.mpf(k * alpha) ** 2 / 4
                            want = (mpmath.mpf(alpha) ** (2 * (m - n + 1))
                                    * (mpmath.mpf(k) / 2) ** m * z ** n_bar
                                    / (2 * mpmath.factorial(n_bar))
                                    * mpmath.factorial(m + n_bar - n)
                                    / mpmath.factorial(m + n_bar)
                                    * mpmath.hyp1f1(m + n_bar - n + 1,
                                                    m + n_bar + 1, -z))
                            assert abs(got - want) <= 1e-11 * abs(want)
                        checked += 1
        assert checked == 600

    @pytest.mark.parametrize("k_alpha", [55.0, 60.0])
    @pytest.mark.parametrize("n_bar, m, n", [(0, 3, 1), (1, 2, 1), (2, 4, 2)])
    def test_vortex_series_large_k_alpha(self, n_bar, m, n, k_alpha):
        # Past k alpha ~ 53, e^{-z} underflows and the 1F1 terms overflow.
        got = me.ho_vortex_series(n_bar, 1.0, k_alpha, m, n).value
        with mpmath.workdps(30):
            z = mpmath.mpf(k_alpha) ** 2 / 4
            want = ((mpmath.mpf(k_alpha) / 2) ** m * z ** n_bar
                    / (2 * mpmath.factorial(n_bar))
                    * mpmath.factorial(m + n_bar - n) / mpmath.factorial(m + n_bar)
                    * mpmath.hyp1f1(m + n_bar - n + 1, m + n_bar + 1, -z))
        assert abs(got - want) <= 1e-10 * abs(want)
        # The quadrature's own error is up to 1.7e-10 relative here (the
        # integrand cancels to ~1e-3 of its size).
        q = me.ho_vortex_integral(n_bar, 1.0, k_alpha, m, n).value
        assert got == pytest.approx(q, rel=1e-9)

    def test_vortex_converges_past_the_old_exponent_guard(self):
        # m - 2n + 1 <= -1 was once rejected as divergent, but J_m(kR) ~
        # R^m near 0 makes the integrand go as R^{2m-2n+1}, and n <= m.
        # The references are mpmath at 30 digits.
        for args, want in [((0, 1.0, 1.0, 2, 2), 0.057601566142809736),
                           ((1, 1.3, 0.8, 4, 3), 1.4410835286870065e-4),
                           ((2, 1.0, 1.5, 3, 3), 4.2220614787562446e-4)]:
            q = me.ho_vortex_integral(*args)
            assert abs(q.value - want) <= q.abs_error_estimate <= 1e-12
            s = me.ho_vortex_series(*args)
            assert abs(s.value - want) <= 1e-12 * want

    def test_vortex_rejects_inputs_outside_the_trapped_domain(self):
        # Both evaluators, and the candidate comparison, take the trapped
        # states' domain.  The series once returned the alpha = 1.3 value
        # at alpha = -1.3 and 0.0 at alpha = 0, and raised a bare
        # ValueError at n_bar = -1, as the candidate did.
        for args in [(0, -1.3, 1.0, 2, 1), (0, 0.0, 1.0, 2, 1),
                     (0, math.inf, 1.0, 2, 1), (-1, 1.3, 1.0, 2, 1),
                     (0.5, 1.3, 1.0, 2, 1), (0, 1.3, -1.0, 2, 1),
                     (0, 1.3, math.inf, 2, 1), (0, 1.3, 1.0, -1, 0),
                     (0, 1.3, 1.0, 2, 3), (0, 1.3, 1.0, 2, -1)]:
            for evaluate in (me.ho_vortex_integral, me.ho_vortex_series,
                             me.ho_vortex_candidate):
                with pytest.raises(InvalidArgumentError):
                    evaluate(*args)


def _trapped_integral_args(rng, form):
    """(weight, p, n1, a1, n2, a2, nu) of _laguerre_gauss_bessel as one of
    its three callers forms them, every n and a <= 15."""
    if form == "icm0":  # the states' norm; p = 1 + |m_R| + |m_R'|
        n1, a1, n2, a2 = (rng.randint(0, 15) for _ in range(4))
        norm = 2.0 * math.sqrt(math.factorial(n1) * math.factorial(n2)
                               / (math.factorial(n1 + a1)
                                  * math.factorial(n2 + a2)))
        return norm, 1 + a1 + a2, n1, a1, n2, a2, rng.randint(-15, 15)
    if form == "gauss_bessel":
        nu = rng.randint(0, 15)
        sigma = rng.randint(0, nu)
        return (1.0, nu + 1, rng.randint(0, 15), nu - sigma,
                rng.randint(0, 15), sigma, nu)
    # ho_vortex_integral; n > (m + 1) / 2 makes p = m - 2n + 1 negative.
    m = rng.randint(1, 15)
    n = rng.randint((m + 2) // 2, m) if form == "vortex_p<0" else rng.randint(0, m)
    return 1.0, m - 2 * n + 1, rng.randint(0, 15), m - n, 0, 0, m


class TestTrappedCutOff:
    @pytest.mark.parametrize("form", ["icm0", "gauss_bessel", "vortex",
                                      "vortex_p<0"])
    def test_bound_covers_the_dropped_tail(self, form):
        # T(X) >= |int_X^inf| of the integrand in 30 digits, 10 draws per
        # caller form; T(X) is within 1e-4 under 1e-16, so X is the
        # smallest cut-off with T <= 1e-16 (T falls with X).
        rng = random.Random(2900 + len(form))
        for _ in range(10):
            weight, p, n1, a1, n2, a2, nu = _trapped_integral_args(rng, form)
            k_alpha = rng.uniform(0.1, 5.0)
            x_max, bound = me._tail_cutoff(weight, p, n1, a1, n2, a2)
            assert 1e-16 * (1.0 - 1e-4) <= bound <= 1e-16
            with mpmath.workdps(30):
                def f(x):
                    u = x * x
                    return (weight * x ** p * mpmath.exp(-u)
                            * mpmath.laguerre(n1, a1, u)
                            * mpmath.laguerre(n2, a2, u)
                            * mpmath.besselj(nu, k_alpha * x))
                tail = abs(mpmath.quad(f, mpmath.linspace(x_max, x_max + 12, 25),
                                       method="gauss-legendre"))
            assert tail <= bound

    def test_estimate_includes_the_bound(self, monkeypatch):
        # The panels run on [0, X], and the estimate is theirs plus T(X).
        calls = []
        finite = me.quadrature.integrate_finite

        def recorded(f, a, b, cells=1):
            calls.append((a, b, finite(f, a, b, cells)))
            return calls[-1][2]
        monkeypatch.setattr(me.quadrature, "integrate_finite", recorded)
        rng = random.Random(2905)
        for form in ("icm0", "gauss_bessel", "vortex", "vortex_p<0"):
            args = _trapped_integral_args(rng, form)
            x_max, bound = me._tail_cutoff(*args[:6])
            r = me._laguerre_gauss_bessel(*args, 1.7)
            a, b, panels = calls[-1]
            assert (a, b) == (0.0, x_max)
            assert r.abs_error_estimate == panels.abs_error_estimate + bound
            assert r.abs_error_estimate >= bound
            assert r.value == panels.value

    def test_ground_state_cut_off(self):
        # T(X) = e^{-X^2} for the ground state's weight 2 and p = 1.
        x_max, bound = me._tail_cutoff(2.0, 1, 0, 0, 0, 0)
        assert x_max == pytest.approx(math.sqrt(math.log(1e16)), abs=1e-6)
        assert bound == pytest.approx(math.exp(-x_max ** 2), rel=1e-12)

    def test_high_quanta_stay_in_range(self):
        # At n_bar = 120, X ~ 27.2: e^{-X^2} underflows, so log T is the
        # sum of its factors' logs.
        x_max, bound = me._tail_cutoff(2.0, 1, 120, 0, 120, 0)
        assert 25.0 < x_max < 30.0
        assert 1e-16 * (1.0 - 1e-4) <= bound <= 1e-16

    @pytest.mark.parametrize("call", [
        lambda: me.CenterOfMassState.trapped(0, -1, 1.0),
        lambda: me.CenterOfMassState.trapped(1.5, 0, 1.0),
        lambda: me.CenterOfMassState.trapped(0, 2.0, 1.0),
        lambda: me.ho_gauss_bessel_candidate(1, -1, 0, 0, 1.0, 0.8),
        lambda: me.ho_gauss_bessel_candidate(1, 0, 0, 2, 1.0, 0.8),
        lambda: me.ho_gauss_bessel_candidate(1, 0, 1.5, 0, 1.0, 0.8),
        lambda: me.ho_vortex_integral(-1, 1.0, 1.0, 2, 1),
        lambda: me.ho_vortex_integral(0, 1.0, 1.0, 2, 3),
        lambda: me.ho_vortex_integral(1.5, 1.0, 1.0, 2, 1)])
    def test_callers_check_the_indices(self, call, monkeypatch):
        # _laguerre_gauss_bessel takes its n and a as checked: each caller
        # (icm0 through its states) rejects bad ones before any evaluation.
        monkeypatch.setattr(me, "_laguerre_gauss_bessel", None)
        with pytest.raises(InvalidArgumentError):
            call()

    def test_cut_off_is_computed_once_per_states(self):
        # X depends on the states and the weight, not on k alpha.
        cm = me.CenterOfMassState.trapped(2, 1, 0.9)
        me.icm0(cm, cm, 1.0, 1.0, 0)
        before = me._tail_cutoff.cache_info()
        for k in (0.3, 1.7, 2.9):
            me.icm0(cm, cm, k, 1.0, 0)
        after = me._tail_cutoff.cache_info()
        assert (after.hits - before.hits, after.misses) == (3, before.misses)

    @pytest.mark.parametrize("evaluate", [
        lambda: me.icm0(me.CenterOfMassState.trapped(0, 0, 1.0),
                        me.CenterOfMassState.trapped(0, 0, 1.0), 1e9, 1.0, 0),
        lambda: me.ho_vortex_integral(1, 2.0, 5e8, 2, 1)])
    def test_huge_k_alpha_raises_before_any_evaluation(self, evaluate,
                                                       monkeypatch):
        # k alpha = 1e9 asks for ~3e8 starting panels: ConvergenceError
        # before the integrand runs, not a list of them in memory.
        calls = []
        monkeypatch.setattr(me.specfun, "bessel_j",
                            lambda *args: calls.append(args) or 0.0)
        with pytest.raises(ConvergenceError) as info:
            evaluate()
        assert calls == [] and info.value.partial.evaluations == 0

    @pytest.mark.parametrize("m_R", [100, 101, -102, 120, 127])
    def test_high_m_R_matches_the_closed_form(self, m_R):
        # icm0 of the state (m_R, 0) with itself is e^{-z} L_a(z), a = |m_R|,
        # z = (k alpha)^2 / 4 (Gradshteyn-Ryzhik 6.631.10).  The norm once
        # took its root after the factorial ratio, which went subnormal:
        # 1.3e-5 off at a = 101 and a math domain error from a = 102.
        st = me.CenterOfMassState.trapped(m_R, 0, 1.0)
        for k in (0.5, 1.0, 2.0, 3.0):
            z = mpmath.mpf(k) ** 2 / 4
            want = float(mpmath.exp(-z) * mpmath.laguerre(abs(m_R), 0, z))
            assert abs(me.icm0(st, st, k, 1.0, 0) - want) <= 1e-14

    @pytest.mark.parametrize("n_bar, m_R, k_alpha", [
        (0, 0, 1.1), (3, -2, 0.7), (5, 4, 2.3)])
    def test_diagonal_overlap_evaluates_laguerre_once(self, n_bar, m_R,
                                                      k_alpha, monkeypatch):
        # A state with itself shares (n_bar, |m_R|): one L_n^a(x^2) per
        # evaluation, squared, against two calls in the two-call form,
        # which gives the same bits (the product is taken in one order).
        a = abs(m_R)
        weight = 2.0 * math.factorial(n_bar) / math.factorial(n_bar + a)
        args = (weight, 1 + 2 * a, n_bar, a, n_bar, a)
        x_max, tail = me._tail_cutoff(*args)
        off_diagonal = (weight, 1 + 2 * a, n_bar, a, n_bar + 1, a)
        me._tail_cutoff(*off_diagonal)  # memoized: no L calls below
        laguerre = specfun._laguerre

        def two_calls(x):
            u = x * x
            return (weight * x ** (1 + 2 * a) * math.exp(-u)
                    * laguerre(n_bar, a, u) * laguerre(n_bar, a, u)
                    * specfun.bessel_j(0, k_alpha * x))
        value, err, evals, ok = integrate_finite(
            two_calls, 0.0, x_max,
            max(1, math.ceil(x_max * k_alpha / (6.0 * math.pi))))
        calls = []
        monkeypatch.setattr(
            specfun, "_laguerre",
            lambda *args: calls.append(args) or laguerre(*args))
        r = me._laguerre_gauss_bessel(*args, 0, k_alpha)
        assert len(calls) == r.evaluations == evals
        assert (r.value, r.abs_error_estimate, r.converged) == (
            value, err + tail, ok)
        # Distinct states still take one call each.
        calls.clear()
        r = me._laguerre_gauss_bessel(*off_diagonal, 0, k_alpha)
        assert len(calls) == 2 * r.evaluations

    def test_ground_state_norm_is_two(self, monkeypatch):
        weights = []
        original = me._laguerre_gauss_bessel

        def recorded(weight, *args):
            weights.append(weight)
            return original(weight, *args)
        monkeypatch.setattr(me, "_laguerre_gauss_bessel", recorded)
        cm = me.CenterOfMassState.trapped(0, 0, 1.2)
        me.icm0(cm, cm, 1.1, 1.0, 0)
        assert weights == [2.0]

    @pytest.mark.parametrize("m_R, n_bar, reason", [
        (128, 0, "x^p overflows"), (-170, 0, "x^p overflows"),
        (200, 0, "weight underflowed"), (0, 250, "tail bound overflows"),
        (-3, 300, "tail bound overflows")])
    def test_past_float_range_raises_naming_the_states(self, m_R, n_bar,
                                                       reason, monkeypatch):
        # Past these states the integrand's x^p or the tail bound's
        # L_n^a(-X^2) overflows a float, or the norm underflows: once an
        # OverflowError, a math domain error, or a NaN bound followed by
        # 200,000 evaluations.
        calls = []
        monkeypatch.setattr(me.specfun, "bessel_j",
                            lambda *args: calls.append(args) or 0.0)
        st = me.CenterOfMassState.trapped(m_R, n_bar, 1.0)
        with pytest.raises(InvalidArgumentError) as info:
            me.icm0(st, st, 1.0, 1.0, 0)
        assert f"({m_R}, {n_bar}) and ({m_R}, {n_bar})" in str(info.value)
        assert reason in str(info.value)
        assert calls == []

    @pytest.mark.parametrize("args", [(2.0, 1, 250, 0, 250, 0),
                                      (2.0, 1, 300, 0, 300, 0),
                                      (0.0, 1, 0, 0, 0, 0)])
    def test_cut_off_without_a_float_bound_raises(self, args):
        # _tail_cutoff(2.0, 1, 300, 0, 300, 0) once gave (34.64, nan).
        with pytest.raises(InvalidArgumentError):
            me._tail_cutoff(*args)

    @pytest.mark.parametrize("k_alpha", [20.0, 40.0, 55.0, 60.0])
    @pytest.mark.parametrize("n_bar, m, n", [(0, 3, 1), (1, 2, 1), (2, 4, 2),
                                             (3, 5, 1), (1, 3, 3)])
    def test_vortex_estimate_holds_at_large_k_alpha(self, n_bar, m, n,
                                                    k_alpha):
        # Panels start at most three periods 2 pi / (k alpha) wide.  One
        # panel over ~14 periods once reported 7.5e-13 for an error of
        # 3.0e-12 at (1, 2, 1), k alpha = 55.
        r = me.ho_vortex_integral(n_bar, 1.0, k_alpha, m, n)
        with mpmath.workdps(30):
            z = mpmath.mpf(k_alpha) ** 2 / 4
            want = ((mpmath.mpf(k_alpha) / 2) ** m * z ** n_bar
                    / (2 * mpmath.factorial(n_bar))
                    * mpmath.factorial(m + n_bar - n) / mpmath.factorial(m + n_bar)
                    * mpmath.hyp1f1(m + n_bar - n + 1, m + n_bar + 1, -z))
        assert float(abs(r.value - want)) <= r.abs_error_estimate


class TestInternalIntegrals:
    def test_hydrogen_2p_1s_radial_value(self):
        got = me.radial_dipole_integral(me.hydrogen_state(2, 1),
                                        me.hydrogen_state(1, 0))
        assert got == pytest.approx(HYDROGEN_2P_1S_RADIAL, abs=1e-10)

    def test_same_parity_vanishes(self):
        p2 = me.hydrogen_state(2, 1, 0)
        for j in (-1, 0, 1):
            assert me.i_rel(p2, me.hydrogen_state(2, 1, 0), j) == 0.0

    def test_axial_component_value(self):
        got = me.i_rel(me.hydrogen_state(2, 1, 0), me.hydrogen_state(1, 0), 0)
        assert got == pytest.approx(HYDROGEN_2P_1S_RADIAL, abs=1e-10)


class TestDipoleAmplitude:
    def test_tm_axial_channel_present(self):
        mode = ModeSpec(ModeKind.TM, 0, 0.8, 1.2)
        cm = me.CenterOfMassState.trapped(1, 0, 1.0)
        amps = me.dipole_amplitude(mode, cm, cm,
                                   me.hydrogen_state(2, 1, 0),
                                   me.hydrogen_state(1, 0))
        assert len(amps) == 1
        assert amps[0].channel.delta_m_R == 0
        assert amps[0].channel.delta_m_r == 0
        assert abs(amps[0].amplitude) > 0.0

    def test_te_has_no_axial_channel(self):
        mode = ModeSpec(ModeKind.TE, 1, 0.8, 1.2)
        cm_in = me.CenterOfMassState.trapped(1, 0, 1.0)
        cm_out = me.CenterOfMassState.trapped(0, 0, 1.0)
        amps = me.dipole_amplitude(mode, cm_in, cm_out,
                                   me.hydrogen_state(2, 1, 0),
                                   me.hydrogen_state(1, 0))
        assert amps == []

    def test_conservation_violating_transition_is_absent(self):
        mode = ModeSpec(ModeKind.TM, 0, 0.8, 1.2)
        cm_in = me.CenterOfMassState.trapped(1, 0, 1.0)
        cm_bad = me.CenterOfMassState.trapped(5, 0, 1.0)
        amps = me.dipole_amplitude(mode, cm_in, cm_bad,
                                   me.hydrogen_state(2, 1, 0),
                                   me.hydrogen_state(1, 0))
        assert amps == []

    def test_kz_zero_is_singular(self):
        mode = ModeSpec(ModeKind.TM, 0, 0.8, 0.0)
        cm = me.CenterOfMassState.trapped(1, 0, 1.0)
        with pytest.raises(SingularNormalizationError):
            me.dipole_amplitude(mode, cm, cm, me.hydrogen_state(2, 1, 0),
                                me.hydrogen_state(1, 0))


class TestSpinMatrixElement:
    def setup_method(self):
        self.particle = me.SpinParticle(g=2.0, q=1.0, M=1836.0)
        self.s1 = me.hydrogen_state(1, 0)
        self.cm0 = me.CenterOfMassState.trapped(0, 0, 1.0)

    def test_tm_spin_flip_pairing(self):
        # A TM mode pairs a spin flip +1 with Delta m_R = -(m + 1).
        mode = ModeSpec(ModeKind.TM, 1, 0.8, 1.2)
        cm_out = me.CenterOfMassState.trapped(-2, 0, 1.0)
        r = me.spin_matrix_element(mode, self.particle, -0.5, 0.5,
                                   self.cm0, cm_out, self.s1, self.s1)
        assert r is not None
        assert abs(r.amplitude) > 0.0

    def test_wrong_recoil_for_flip_is_none(self):
        mode = ModeSpec(ModeKind.TM, 1, 0.8, 1.2)
        r = me.spin_matrix_element(mode, self.particle, -0.5, 0.5,
                                   self.cm0, self.cm0, self.s1, self.s1)
        assert r is None

    def test_spin_preserving_channel_is_te_only(self):
        cm_out = me.CenterOfMassState.trapped(-1, 0, 1.0)
        tm = ModeSpec(ModeKind.TM, 1, 0.8, 1.2)
        te = ModeSpec(ModeKind.TE, 1, 0.8, 1.2)
        args = (self.particle, 0.5, 0.5, self.cm0, cm_out, self.s1, self.s1)
        assert me.spin_matrix_element(tm, *args) is None
        assert me.spin_matrix_element(te, *args) is not None

    def test_kz_zero_is_singular(self):
        mode = ModeSpec(ModeKind.TM, 1, 0.8, 0.0)
        cm_out = me.CenterOfMassState.trapped(-2, 0, 1.0)
        with pytest.raises(SingularNormalizationError):
            me.spin_matrix_element(mode, self.particle, -0.5, 0.5,
                                   self.cm0, cm_out, self.s1, self.s1)

    def test_projections_must_be_half(self):
        # (0.3, 0.8) once returned None ("forbidden"): the spin change
        # 0.5 was checked against the ladder before the projections.
        mode = ModeSpec(ModeKind.TM, 1, 0.8, 1.2)
        for spins in ((0.3, 0.8), (0.5, 1.5), (0.0, 0.0)):
            with pytest.raises(InvalidArgumentError):
                me.spin_matrix_element(mode, self.particle, *spins,
                                       self.cm0, self.cm0, self.s1, self.s1)


    def test_center_of_mass_variants_must_match(self):
        # free -> trapped once returned None when no channel matched
        # (m_R' = 5) and raised in icm0 when one did (m_R' = -1).
        mode = ModeSpec(ModeKind.TM, 0, 0.8, 1.2)
        free = me.CenterOfMassState.free(0, 1.0)
        for m_R_out in (5, -1):
            cm_out = me.CenterOfMassState.trapped(m_R_out, 0, 1.0)
            with pytest.raises(InvalidArgumentError):
                me.spin_matrix_element(mode, self.particle, -0.5, 0.5,
                                       free, cm_out, self.s1, self.s1)


def _slot_coefficients(field, mode, rho=1.1, phi=0.4):
    """a_slot of a field sum_slot a_slot psi_{m - slot} e_slot read at
    z = t = 0, with e_{+1} = e_x + i e_y, e_{-1} = e_x - i e_y, e_0 = e_z."""
    s = field(mode, CylPoint(rho, phi, 0.0, 0.0))
    amps = {1: (s.x - 1j * s.y) / 2.0, -1: (s.x + 1j * s.y) / 2.0, 0: s.z}
    return {slot: a / psi(mode.m - slot, mode.k_perp, rho, phi)
            for slot, a in amps.items()}


class TestCouplingsMatchFields:
    """Every amplitude coupling is a coefficient of the fields themselves:
    H_I1 pairs r with A (A* for emission), H_I3 pairs S with B* = curl A*."""

    charges = me.DipoleCouplings(q_e=1.3, energy_scale=0.7)
    particle = me.SpinParticle(g=2.0, q=-1.0, M=3.0)
    cm0 = me.CenterOfMassState.trapped(0, 0, 1.0)
    s1 = me.hydrogen_state(1, 0)

    @pytest.mark.parametrize("m", range(-3, 4))
    @pytest.mark.parametrize("kind", [ModeKind.TE, ModeKind.TM])
    def test_dipole(self, kind, m):
        mode = ModeSpec(kind, m, 0.8, 1.2)
        scale = -1j * self.charges.q_e * self.charges.energy_scale
        for slot, a in _slot_coefficients(vector_potential, mode).items():
            # The channel of this slot: d_m_r = sign slot, d_m_R = sign mu.
            p2 = me.hydrogen_state(2, 1, slot)
            for direction, sign, want in (("emission", -1, a.conjugate() * scale),
                                          ("absorption", 1, a * scale)):
                cm_out = me.CenterOfMassState.trapped(sign * (m - slot), 0, 1.0)
                states = (p2, self.s1) if sign < 0 else (self.s1, p2)
                amps = me.dipole_amplitude(mode, self.cm0, cm_out, *states,
                                           self.charges, direction)
                if a == 0.0:
                    assert amps == []
                    continue
                assert len(amps) == 1
                assert abs(amps[0].coupling - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("m", range(-3, 4))
    @pytest.mark.parametrize("kind", [ModeKind.TE, ModeKind.TM])
    def test_spin(self, kind, m):
        mode = ModeSpec(kind, m, 0.8, 1.2)
        p = self.particle
        spins = {-1: [(0.5, -0.5)], 1: [(-0.5, 0.5)],
                 0: [(0.5, 0.5), (-0.5, -0.5)]}
        for slot, b in _slot_coefficients(magnetic_field, mode).items():
            # Emission: the spin change is -slot and d_m_R = -mu.
            cm_out = me.CenterOfMassState.trapped(slot - m, 0, 1.0)
            for s_in, s_out in spins[-slot]:
                r = me.spin_matrix_element(mode, p, s_in, s_out, self.cm0,
                                           cm_out, self.s1, self.s1)
                if b == 0.0:
                    assert r is None
                    continue
                ladder = s_in if slot == 0 else 1.0
                want = b.conjugate() * (p.g * p.q / (2.0 * p.M)) * ladder
                assert abs(r.coupling - want) <= 1e-13 * abs(want)


class TestBuildersMatchEngines:
    """The amplitude builders find the symbolic engine's channels, one for
    one: dipole emission channels, and absorption channels negated, are
    the "dipole" set; spin channels are the "spin" set."""

    cm0 = me.CenterOfMassState.trapped(0, 0, 1.0)
    s1 = me.hydrogen_state(1, 0)
    particle = me.SpinParticle(g=2.0, q=1.0, M=1.0)

    @pytest.mark.parametrize("m", range(-3, 4))
    @pytest.mark.parametrize("kind", [ModeKind.TE, ModeKind.TM])
    def test_channel_sets_agree(self, kind, m):
        mode = ModeSpec(kind, m, 0.8, 1.2)
        emitted, absorbed, spin = set(), set(), set()
        for m_R_out in range(-6, 7):
            cm_out = me.CenterOfMassState.trapped(m_R_out, 0, 1.0)
            for m_r in (-1, 0, 1):
                p2 = me.hydrogen_state(2, 1, m_r)
                for a in me.dipole_amplitude(mode, self.cm0, cm_out, p2, self.s1):
                    emitted.add((a.channel.delta_m_R, a.channel.delta_m_r))
                for a in me.dipole_amplitude(mode, self.cm0, cm_out, self.s1, p2,
                                             direction="absorption"):
                    absorbed.add((-a.channel.delta_m_R, -a.channel.delta_m_r))
            for s_in in (-0.5, 0.5):
                for s_out in (-0.5, 0.5):
                    r = me.spin_matrix_element(mode, self.particle, s_in, s_out,
                                               self.cm0, cm_out, self.s1, self.s1)
                    if r is not None:
                        spin.add((r.channel.delta_m_R, r.channel.delta_spin_e))
        dipole = {(c.delta_m_R, c.delta_m_r)
                  for c in me.symbolic_channels(m, kind, "dipole")}
        assert emitted == dipole
        assert absorbed == dipole
        assert spin == {(c.delta_m_R, c.delta_spin_e)
                        for c in me.symbolic_channels(m, kind, "spin")}


class TestCandidateComparisons:
    def test_triple_series_runs_and_reports(self):
        c = me.triple_bessel_candidate(1.0, 0.7, 1.4, 1, 0, 0)
        assert math.isfinite(c.candidate)
        assert isinstance(c.candidate_converged, bool)

    def test_gauss_bessel_candidate_reports_discrepancy(self):
        c = me.ho_gauss_bessel_candidate(2, 1, 1, 1, 1.0, 0.9)
        assert math.isfinite(c.discrepancy)
        assert c.oracle_error >= 0.0

    def test_gauss_bessel_candidate_rejects_inputs_outside_its_domain(self):
        # alpha <= 0 once raised integrate_finite's "need a < b"; nu = -1
        # and sigma = 2 > nu = 1, outside the printed formula, returned a
        # comparison (nu = -1: oracle -0.185, candidate 1.065).
        for args in [(1, 0, 0, 0, -1.0, 0.8), (1, 0, 0, 0, 0.0, 0.8),
                     (1, 0, 0, 0, math.inf, 0.8), (1, 0, 0, 0, 1.0, -0.8),
                     (1, 0, 0, 0, 1.0, math.inf), (1, 0, 0, 0, 1.0, math.nan),
                     (-1, 0, 0, 0, 1.0, 0.8), (1, 0, 0, 2, 1.0, 0.8),
                     (1, 0, 0, -1, 1.0, 0.8), (1, -1, 0, 0, 1.0, 0.8),
                     (1, 0, -1, 0, 1.0, 0.8), (1.5, 0, 0, 0, 1.0, 0.8),
                     (1, 0.5, 0, 0, 1.0, 0.8), (1, 0, 1.0, 0, 1.0, 0.8),
                     (1, 0, 0, 0.0, 1.0, 0.8)]:
            with pytest.raises(InvalidArgumentError):
                me.ho_gauss_bessel_candidate(*args)

    def test_vortex_candidate_reports_the_quadrature_estimate(self):
        # The estimate is the quadrature's own, scaled like the value by
        # sqrt(alpha)^(n - m), not the 1e-12 tolerance; it covers the
        # distance to the 1F1 closed form in 40 digits.  (The float series
        # is 1.8e-14 off here, above the estimate, 2.9e-15 unscaled.)
        n_bar, alpha, k, m, n = 2, 1.3, 2.0, 3, 1
        c = me.ho_vortex_candidate(n_bar, alpha, k, m, n)
        scale = math.sqrt(alpha) ** (n - m)
        r = me.ho_vortex_integral(n_bar, alpha, k, m, n)
        assert c.oracle == scale * r.value
        assert c.oracle_error == scale * r.abs_error_estimate != 1e-12
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            z = (k * a) ** 2 / 4
            want = (a ** (2 * (m - n + 1)) * mpmath.mpf(k / 2) ** m * z ** n_bar
                    / (2 * mpmath.factorial(n_bar))
                    * mpmath.factorial(m + n_bar - n) / mpmath.factorial(m + n_bar)
                    * mpmath.hyp1f1(m + n_bar - n + 1, m + n_bar + 1, -z))
            assert abs(c.oracle - scale * want) <= c.oracle_error

    def test_vortex_candidate_matches_at_trivial_order(self):
        # With n_bar = 0, n = 0 both sides reduce to the same Gaussian
        # integral, so the printed form is correct there.
        c = me.ho_vortex_candidate(0, 1.0, 1.0, 1, 0)
        assert c.discrepancy < 1e-10
