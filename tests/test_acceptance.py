"""End-to-end acceptance suite.

Each test covers one headline property of the package at its stated
tolerance and prints a one-line pass summary with the measured margin.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from twistkit import cli, expansion, fields, matrix_elements, quadrature
from twistkit.expansion import PlanarVec
from twistkit.fields import CylPoint, ModeKind, ModeSpec
from twistkit.specfun import bessel_j


def _report(name, margin, bound, t0):
    print(f"PASS {name}: worst={margin:.3e} bound={bound:.3e} "
          f"elapsed={time.time() - t0:.1f}s")


def test_maxwell_gauge_suite():
    """100 random TE/TM modes x 100 random points: Coulomb-gauge
    divergence, closed-form B vs finite-difference curl, Helmholtz."""
    t0 = time.time()
    rng = np.random.RandomState(20260824)
    worst_div = worst_curl = worst_helm = 0.0
    for _ in range(100):
        kind = ModeKind.TE if rng.randint(2) else ModeKind.TM
        mode = ModeSpec(kind, int(rng.randint(-4, 5)),
                        float(rng.uniform(0.2, 3.0)),
                        float(rng.uniform(0.2, 3.0)))
        w = mode.omega()

        def a_field(x, y, z, _m=mode):
            s = fields.vector_potential(_m, CylPoint.from_cartesian(x, y, z))
            return (s.x, s.y, s.z)

        for _ in range(100):
            x, y, z = rng.uniform(-2.0, 2.0, size=3)
            if math.hypot(x, y) < 0.05:
                x += 0.5
            p = CylPoint.from_cartesian(x, y, z)
            s = fields.vector_potential(mode, p)
            scale = max(s.norm(), 1e-3)
            div = quadrature.fd_divergence(a_field, x, y, z, 1e-4)
            worst_div = max(worst_div, abs(div) / (w * scale))
            b = fields.magnetic_field(mode, p)
            curl = quadrature.fd_curl(a_field, x, y, z, 1e-4)
            diff = math.sqrt(sum(abs(c - g) ** 2 for c, g in
                                 zip(curl, (b.x, b.y, b.z))))
            worst_curl = max(worst_curl, diff / max(b.norm(), 1e-3))
            lap = quadrature.fd_laplacian(a_field, x, y, z, 1e-3)
            resid = math.sqrt(sum(abs(l + w * w * a) ** 2 for l, a in
                                  zip(lap, (s.x, s.y, s.z))))
            worst_helm = max(worst_helm, resid / (w * w * scale))
    assert worst_div < 1e-6
    assert worst_curl < 1e-5
    assert worst_helm < 1e-4
    assert time.time() - t0 < 30.0
    _report("maxwell_gauge_suite",
            max(worst_div / 1e-6, worst_curl / 1e-5, worst_helm / 1e-4)
            * 1e-6, 1e-6, t0)


def test_addition_theorem_suite():
    """psi_shifted reproduces the directly displaced profile to 1e-8
    relative over 200 random configurations (both the m = 0 cosine
    branch and the m >= 1 branch); phase_expand is exact to 1e-12."""
    t0 = time.time()
    rng = np.random.RandomState(7)
    worst = 0.0
    n_done = 0
    while n_done < 200:
        m = int(rng.randint(0, 7))
        k = float(rng.uniform(0.3, 1.5))
        R = PlanarVec(float(rng.uniform(0.3, 3.0)),
                      float(rng.uniform(0, 2 * math.pi)))
        q = PlanarVec(float(rng.uniform(0.05, 3.0 / k)),
                      float(rng.uniform(0, 2 * math.pi)))
        direct = expansion.psi_displaced_direct(m, k, R, q)
        if abs(direct) < 1e-6:
            # Relative error is ill-conditioned at zeros of the profile.
            continue
        v_max = expansion.default_v_max(k, R, q)
        approx = expansion.psi_shifted(m, k, R, q, v_max).value
        worst = max(worst, abs(approx - direct) / abs(direct))
        n_done += 1
    assert worst < 1e-8

    worst_phase = 0.0
    for _ in range(50):
        m = int(rng.randint(0, 7))
        k = float(rng.uniform(0.3, 1.5))
        R = PlanarVec(float(rng.uniform(0.5, 2.5)),
                      float(rng.uniform(0, 2 * math.pi)))
        q = PlanarVec(float(rng.uniform(0.01, 0.45)),
                      float(rng.uniform(0, 2 * math.pi)))
        got = expansion.phase_expand(m, k, R, q)
        rho = PlanarVec.from_complex(R.to_complex() - q.to_complex())
        worst_phase = max(worst_phase, abs(got - cmath.exp(1j * m * rho.phi)))
    assert worst_phase < 1e-12
    assert time.time() - t0 < 20.0
    _report("addition_theorem_suite", worst, 1e-8, t0)


def test_selection_rule_equivalence():
    """Symbolic channel enumeration agrees with the brute-force azimuthal
    Fourier oracle on the exhaustive matrix |m| <= 5 x {TE, TM} x
    {dipole, first multipole order, spin}; every channel conserves the
    total azimuthal quantum number."""
    t0 = time.time()
    quadrupole_orders = [matrix_elements.TermOrder(1, 0, 0),
                         matrix_elements.TermOrder(0, 1, 0),
                         matrix_elements.TermOrder(0, 1, 1)]
    checked = 0
    for m in range(-5, 6):
        for kind in (ModeKind.TE, ModeKind.TM):
            cases = [("dipole", None), ("spin", None)]
            cases += [("general", o) for o in quadrupole_orders]
            for inter, o in cases:
                sym = matrix_elements.symbolic_channels(m, kind, inter,
                                                        order=o)
                got = {(c.delta_m_R, c.delta_m_r, c.delta_spin_e)
                       for c in sym}
                want = set(matrix_elements.azimuthal_channel_table(
                    m, kind, inter, order=o))
                assert got == want, (m, kind, inter, o)
                for c in sym:
                    assert c.delta_m_R + c.delta_m_r + c.delta_spin_e == -m
                checked += 1
    assert time.time() - t0 < 60.0
    _report("selection_rule_equivalence", 0.0, 1.0, t0)
    print(f"  ({checked} (m, kind, interaction) cells checked)")


def test_transverse_momentum_cutoff():
    """The triple-Bessel recoil integral vanishes outside the momentum
    triangle (third wavenumber > 1.05x the sum of the other two) and is
    nonzero inside."""
    t0 = time.time()
    rng = np.random.RandomState(42)
    worst_ratio = 0.0
    for _ in range(50):
        k1 = float(rng.uniform(0.4, 1.8))
        k2 = float(rng.uniform(0.4, 1.8))
        k3 = (k1 + k2) * float(rng.uniform(1.05, 1.4))
        m = int(rng.randint(0, 3))
        m_R = int(rng.randint(0, 3))
        r = matrix_elements.triple_bessel(k1, k2, k3, m, m_R, 0)
        # Scale of the partial integrals the cancellation has to beat.
        third = m_R + m
        scale = quadrature.integrate_finite(
            lambda R: abs(bessel_j(m, k1 * R) * R
                          * bessel_j(m_R, k2 * R)
                          * bessel_j(third, k3 * R)),
            0.0, 10.0 * math.pi / (k1 + k2 + k3)).value
        worst_ratio = max(worst_ratio, abs(r.value) / max(scale, 1e-3))
    assert worst_ratio < 1e-6

    # Inside the cone the integral is supported.
    inside = matrix_elements.triple_bessel(1.0, 0.7, 1.4, 0, 0, 0)
    assert abs(inside.value) > 1e-3
    assert time.time() - t0 < 120.0
    _report("transverse_momentum_cutoff", worst_ratio, 1e-6, t0)


def test_gaussian_suppression_law():
    """For the trapped ground state, log|icm0| falls linearly in k_perp^2
    with slope -alpha^2/4, recovered by least squares within 1%."""
    t0 = time.time()
    for alpha in (0.8, 1.0, 1.3):
        cm = matrix_elements.CenterOfMassState.trapped(0, 0, alpha)
        ks = np.linspace(0.5 / alpha, 3.0 / alpha, 12)
        logs = [math.log(abs(matrix_elements.icm0(cm, cm, float(k), 1.0, 0)))
                for k in ks]
        slope = float(np.polyfit(ks ** 2, logs, 1)[0])
        rel = abs(slope + alpha ** 2 / 4.0) / (alpha ** 2 / 4.0)
        assert rel < 0.01
    assert time.time() - t0 < 10.0
    _report("gaussian_suppression_law", rel, 0.01, t0)


def test_vortex_series_convergence():
    """The closed-form vortex-overlap series matches direct quadrature to
    1e-8 relative at Gaussian arguments 0.5, 1 and 2 — including past
    the naive convergence boundary at 1."""
    t0 = time.time()
    worst = 0.0
    alpha = 1.3
    for z in (0.5, 1.0, 2.0):
        k = 2.0 * math.sqrt(z) / alpha
        for n_bar, m, n in [(0, 2, 1), (1, 3, 0), (2, 4, 2)]:
            q = matrix_elements.ho_vortex_integral(n_bar, alpha, k, m, n).value
            s = matrix_elements.ho_vortex_series(n_bar, alpha, k, m, n).value
            worst = max(worst, abs(complex(s).real - q) / abs(q))
    assert worst < 1e-8
    assert time.time() - t0 < 10.0
    _report("vortex_series_convergence", worst, 1e-8, t0)


def test_lr_overlap_closed_form():
    """The L/R polarized-mode overlap equals (1 - kz^2/w^2)/(1 + kz^2/w^2)
    to machine precision over a 20x20 wavenumber grid, with the correct
    collinear (1) and paraxial (0) limits."""
    t0 = time.time()
    worst = 0.0
    for kp in np.linspace(0.2, 3.0, 20):
        for kz in np.linspace(0.2, 3.0, 20):
            w2 = kp * kp + kz * kz
            want = (1.0 - kz * kz / w2) / (1.0 + kz * kz / w2)
            got = fields.lr_cross_overlap(1, float(kp), float(kz))
            worst = max(worst, abs(got - want))
    assert worst < 5e-16
    assert fields.lr_cross_overlap(0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert abs(fields.lr_cross_overlap(0, 1e-9, 1.0)) < 1e-15
    _report("lr_overlap_closed_form", worst, 5e-16, t0)


def test_candidate_vs_oracle_report(capsys):
    """The verify command emits the candidate-vs-oracle discrepancy table
    over the fixed 10-point parameter set, with a quadrature oracle that
    reports its own error estimate.  Discrepancies of the printed closed
    forms are documented findings, not failures."""
    t0 = time.time()
    rows = cli.candidate_report()
    assert len(rows) == 10
    for row in rows:
        assert math.isfinite(row["oracle"])
        assert math.isfinite(row["candidate"])
        assert row["oracle_err"] >= 0.0

    # Oracle accuracy on the triple-series points: triple_bessel is a
    # finite body plus the closed-form Hankel tail, its estimate the
    # disagreement of two cut-offs (it raises ConvergenceError when that
    # estimate exceeds tol).
    for kind, p in cli._CANDIDATE_POINTS:
        if kind == "triple_series":
            r = matrix_elements.triple_bessel(
                p["k_perp"], p["k_perp_R"], p["k_perp_Rp"],
                p["m"], p["m_R"], p["n"])
            assert r.abs_error_estimate < 1e-6

    code = cli.main(["verify", "--only", "cand"])
    out = capsys.readouterr().out
    assert code == 0
    table = [l for l in out.splitlines() if l.startswith("CANDIDATE")]
    assert len(table) == 10
    assert all("discrepancy=" in l for l in table)
    _report("candidate_vs_oracle_report", 0.0, 1.0, t0)


def test_cli_determinism_and_exit_codes(tmp_path, capsys):
    """Scans are byte-identical across runs; the CLI exit-code contract
    holds on induced error cases."""
    t0 = time.time()
    cfg = {
        "quantity": "icm0",
        "fixed": {"alpha": 1.0},
        "grid": {"k_perp": {"start": 0.4, "stop": 2.4, "count": 6},
                 "m_R_in": {"start": 0, "stop": 1, "count": 2}},
        "output": {"path": str(tmp_path / "scan.csv"), "format": "csv"},
    }
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["scan", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "scan.csv").read_bytes()
    assert cli.main(["scan", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "scan.csv").read_bytes() == first

    # Exit-code contract.
    assert cli.main(["scan", "--nonsense"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(cfg, quantity="nope")))
    assert cli.main(["scan", "--config", str(bad)]) == 3
    assert cli.main(["field", "--kind", "tm", "--m", "1", "--kperp", "-1",
                     "--kz", "1", "--at", "1,0,0"]) == 3
    capsys.readouterr()
    _report("cli_determinism_and_exit_codes", 0.0, 1.0, t0)
