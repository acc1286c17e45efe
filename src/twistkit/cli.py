"""Command-line front door.

Subcommands: ``field`` (A/E/B of a mode at a point), ``channels``
(allowed-channel table), ``amplitude`` (dipole transition amplitudes),
``scan`` (parameter sweeps to CSV/JSON) and ``verify`` (the invariant
batteries plus the candidate-vs-oracle discrepancy report).

Exit codes: 0 success, 1 verification failure, 2 invalid flags (also a
verify --only that selects nothing), 3 domain error (also a scan
parameter that the quantity does not take, or a bad output path or
format, or an output directory that does not exist: a scan checks its
whole config before any point runs).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

from . import expansion, fields, matrix_elements, quadrature, specfun
from .errors import TwistkitError
from .fields import CylPoint, ModeKind, ModeSpec

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# ---------------------------------------------------------------------------
# field / channels / amplitude
# ---------------------------------------------------------------------------

def _parse_fields(text, types, usage, required=None):
    """Convert the comma-separated fields of ``text`` by ``types``; the
    trailing fields past ``required`` (default: all) are optional.  A
    wrong field count or a non-numeric field is a usage error."""
    parts = text.split(",") if text else []
    fewest = len(types) if required is None else required
    if not fewest <= len(parts) <= len(types):
        raise argparse.ArgumentTypeError(usage)
    try:
        return [t(part) for t, part in zip(types, parts)]
    except ValueError:
        raise argparse.ArgumentTypeError(usage) from None


def cmd_field(args) -> int:
    at = _parse_fields(args.at, (float,) * 4, "--at expects RHO,PHI,Z[,T]",
                       required=3)
    flat = _eval_field_point(**dict(zip(("rho", "phi", "z", "t"), at)),
                             kind=args.kind, m=args.m, k_perp=args.kperp,
                             k_z=args.kz)
    out = {f: {c: [flat[f + c + "_re"], flat[f + c + "_im"]] for c in "xyz"}
           for f in "AEB"}
    out["omega"] = math.hypot(args.kperp, args.kz)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _parse_order(text):
    if text is None:
        return None
    return matrix_elements.TermOrder(
        *_parse_fields(text, (int, int, int), "--order expects N,V,S"))


def cmd_channels(args) -> int:
    channels = matrix_elements.symbolic_channels(
        args.m, ModeKind(args.kind), args.interaction,
        max_multipole=args.max_multipole, order=_parse_order(args.order))
    print("delta_m_R,delta_m_r,delta_spin,n,v,s")
    for c in channels:
        o = c.order if c.order is not None else ("", "", "")
        print(f"{c.delta_m_R},{c.delta_m_r},{c.delta_spin_e},"
              f"{o[0]},{o[1]},{o[2]}")
    return EXIT_OK


def _parse_cm(text) -> matrix_elements.CenterOfMassState:
    kind, _, rest = text.partition(":")
    usage = "state must be trapped:M_R,N_BAR,ALPHA or free:M_R,K_PERP_R[,K_Z_R]"
    if kind == "trapped":
        return matrix_elements.CenterOfMassState.trapped(
            *_parse_fields(rest, (int, int, float), usage))
    if kind == "free":
        return matrix_elements.CenterOfMassState.free(
            *_parse_fields(rest, (int, float, float), usage, required=2))
    raise argparse.ArgumentTypeError(usage)


def _parse_internal(text) -> matrix_elements.InternalState:
    name, _, rest = text.partition(":")
    usage = "internal state must be 1s or 2p[:M_R]"
    m_r = _parse_fields(rest, (int,), usage)[0] if rest else 0
    if name == "1s":
        return matrix_elements.hydrogen_state(1, 0, m_r)
    if name == "2p":
        return matrix_elements.hydrogen_state(2, 1, m_r)
    raise argparse.ArgumentTypeError(usage)


def cmd_amplitude(args) -> int:
    mode = ModeSpec(ModeKind(args.kind), args.m, args.kperp, args.kz)
    couplings = matrix_elements.DipoleCouplings(args.qe, args.energy_scale)
    amps = matrix_elements.dipole_amplitude(
        mode, _parse_cm(args.cm_in), _parse_cm(args.cm_out),
        _parse_internal(args.int_in), _parse_internal(args.int_out),
        couplings, direction=args.direction)
    records = []
    for a in amps:
        records.append({
            "delta_m_R": a.channel.delta_m_R,
            "delta_m_r": a.channel.delta_m_r,
            "amplitude": [a.amplitude.real, a.amplitude.imag],
            "cm_integral": [a.cm_integral.real, a.cm_integral.imag],
            "rel_integral": a.rel_integral,
            "coupling": [a.coupling.real, a.coupling.imag],
        })
    print(json.dumps(records, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

_NUMBER = (int, float)


def _require(what, value, kind):
    """value, if it is a kind (a JSON true/false is not a number); else a
    domain error."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TwistkitError(f"scan config: {what} has the wrong type: {value!r}")
    return value


def _scan_value(what, value, kind):
    """value as a kind, an evaluator's annotation: "str", "int" (an integral
    number, returned as an int) or None (a number); else a domain error."""
    if kind == "str":
        return _require(what, value, str)
    _require(what, value, _NUMBER)
    if kind == "int" and isinstance(value, float) and not value.is_integer():
        raise TwistkitError(f"scan config: {what} must be an integer, "
                            f"not {value!r}")
    return int(value) if kind == "int" else value


def _grid_axis(name, spec):
    _require(f"grid axis {name}", spec, dict)
    start, stop, count = (_require(f"grid axis {name}: {key}", spec[key], _NUMBER)
                          for key in ("start", "stop", "count"))
    count = _scan_value(f"grid axis {name}: count", count, "int")
    if count < 1:
        raise TwistkitError(f"grid axis {name}: count must be >= 1")
    if start > stop:
        raise TwistkitError(f"grid axis {name}: start must be <= stop")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


# Each evaluator's parameters are its quantity's parameter list: a default
# makes one optional, an ``int`` or ``str`` annotation gives its type, and
# any other parameter is a number.  cmd_scan reads the list from the
# function's code object and checks the whole config against it before it
# evaluates a point.

def _eval_field_point(m: int, k_perp, k_z, kind: str = "tm", rho=1.0,
                      phi=0.0, z=0.0, t=0.0):
    mode = ModeSpec(ModeKind(kind), m, k_perp, k_z)
    p = CylPoint(rho, phi, z, t)
    out = {}
    for label, fn in (("A", fields.vector_potential),
                      ("E", fields.electric_field),
                      ("B", fields.magnetic_field)):
        s = fn(mode, p)
        for comp in "xyz":
            c = getattr(s, comp)
            out[f"{label}{comp}_re"] = c.real
            out[f"{label}{comp}_im"] = c.imag
    return out


def _eval_expansion_error(k_perp, R, q, m: int = 1, phi_R=0.3, phi_q=1.1,
                          v_max: int = None):
    R = expansion.PlanarVec(R, phi_R)
    q = expansion.PlanarVec(q, phi_q)
    if v_max is None:
        v_max = expansion.default_v_max(k_perp, R, q)
    approx = expansion.psi_shifted(m, k_perp, R, q, v_max).value
    direct = expansion.psi_displaced_direct(m, k_perp, R, q)
    return {"abs_error": abs(approx - direct), "direct_abs": abs(direct)}


def _eval_channel_table(m: int, kind: str = "tm"):
    dip = matrix_elements.symbolic_channels(m, ModeKind(kind), "dipole")
    spin = matrix_elements.symbolic_channels(m, ModeKind(kind), "spin")
    return {"dipole_channels": len(dip), "spin_channels": len(spin)}


def _eval_dipole_amplitude(k_perp, k_z, kind: str = "tm", m: int = 0,
                           alpha=1.0, m_R_in: int = 0, m_R_out: int = 0,
                           m_r_in: int = 0, m_r_out: int = 0):
    mode = ModeSpec(ModeKind(kind), m, k_perp, k_z)
    cm_in = matrix_elements.CenterOfMassState.trapped(m_R_in, 0, alpha)
    cm_out = matrix_elements.CenterOfMassState.trapped(m_R_out, 0, alpha)
    int_in = matrix_elements.hydrogen_state(2, 1, m_r_in)
    int_out = matrix_elements.hydrogen_state(1, 0, m_r_out)
    amps = matrix_elements.dipole_amplitude(mode, cm_in, cm_out, int_in, int_out)
    total = sum((a.amplitude for a in amps), 0j)
    return {"amplitude_re": total.real, "amplitude_im": total.imag,
            "channels": len(amps)}


def _eval_icm0(k_perp, alpha=1.0, m_R_in: int = 0, m_R_out: int = 0,
               n_bar: int = 0, order: int = 0):
    cm_in = matrix_elements.CenterOfMassState.trapped(m_R_in, n_bar, alpha)
    cm_out = matrix_elements.CenterOfMassState.trapped(m_R_out, n_bar, alpha)
    # icm0 ignores its k_z, so the scan takes none.
    v = matrix_elements.icm0(cm_in, cm_out, k_perp, 0.0, order)
    return {"icm0_re": v.real, "icm0_im": v.imag}


def _eval_triple_bessel(k_perp, k_perp_R, k_perp_Rp, m: int = 0,
                        m_R: int = 0, n: int = 0):
    r = matrix_elements.triple_bessel(k_perp, k_perp_R, k_perp_Rp, m, m_R, n)
    return {"value": r.value, "abs_error_estimate": r.abs_error_estimate}


def _eval_suppression(k_perp, alpha=1.0):
    return {"value": matrix_elements.suppression_factor(k_perp, alpha)}


_QUANTITIES = {
    "field": _eval_field_point,
    "expansion_error": _eval_expansion_error,
    "channel_table": _eval_channel_table,
    "dipole_amplitude": _eval_dipole_amplitude,
    "icm0": _eval_icm0,
    "triple_bessel": _eval_triple_bessel,
    "suppression": _eval_suppression,
}


def _write_csv(path, names, rows):
    # RFC 4180: CRLF line endings, header row, no quoting needed for
    # purely numeric content; floats to 17 significant digits.
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        for row in rows:
            cells = []
            for name in names:
                v = row[name]
                cells.append(str(v) if isinstance(v, int) else f"{v:.16e}")
            fh.write(",".join(cells) + "\r\n")


def _finite_number(text):
    """A JSON float literal as a float.  Python's json also reads NaN,
    Infinity and overflowing literals such as 1e400; in a scan config each
    is a domain error, before any point is evaluated or file written."""
    value = float(text)
    if not math.isfinite(value):
        raise TwistkitError(f"scan config: {text} is not a finite number")
    return value


class _Required(dict):
    """A scan config mapping whose missing keys are domain errors."""

    def __missing__(self, key):
        raise TwistkitError(f"scan config: missing {key!r}")


def cmd_scan(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh, object_hook=_Required,
                           parse_float=_finite_number,
                           parse_constant=_finite_number)
    config = _require("the top level", config, dict)
    quantity = _require("quantity", config["quantity"], str)
    if quantity not in _QUANTITIES:
        raise TwistkitError(f"unknown scan quantity {quantity!r}")
    evaluate = _QUANTITIES[quantity]
    takes = evaluate.__code__.co_varnames[:evaluate.__code__.co_argcount]
    fixed = _require("fixed", config.get("fixed", {}), dict)
    grid = _require("grid", config["grid"], dict)

    # The whole config is checked before any point runs: required names,
    # then types (a name the quantity does not take has none), then such
    # names, then the output: its path, format and directory.
    for name in takes[:len(takes) - len(evaluate.__defaults__ or ())]:
        if name not in fixed and name not in grid:
            raise TwistkitError(f"scan config: missing {name!r}")
    kinds = evaluate.__annotations__
    fixed = {name: _scan_value(f"fixed {name}", value, kinds.get(name))
             if name in takes else value for name, value in fixed.items()}
    axes = [(name, [_scan_value(name, v, kinds.get(name))
                    for v in _grid_axis(name, spec)])
            for name, spec in grid.items()]
    unknown = sorted(set(fixed).union(grid) - set(takes))
    if unknown:
        raise TwistkitError(f"scan config: {quantity} takes no {unknown}")
    out_cfg = _require("output", config.get("output", {}), dict)
    path = args.out or out_cfg.get("path")
    fmt = args.format or out_cfg.get("format", "csv")
    if path is None:
        raise TwistkitError("no output path (config output.path or --out)")
    _require("output path", path, str)
    if fmt not in ("csv", "json"):
        raise TwistkitError(f"unknown output format {fmt!r}")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise TwistkitError(f"no directory {folder!r} for the output path")

    # Lexicographic order over grid indices; grid values win over fixed ones.
    points = [{}]
    for name, vals in axes:
        points = [dict(p, **{name: v}) for p in points for v in vals]
    rows = [dict(p, **evaluate(**{**fixed, **p})) for p in points]
    if fmt == "csv":
        _write_csv(path, list(rows[0]), rows)
    else:
        with open(path, "w") as fh:
            json.dump(rows, fh, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: invariant batteries
# ---------------------------------------------------------------------------

_GAUGE_MODES = 12
_EXPANSION_CASES = 40


def _check(results, name, margin, bound):
    """Record one invariant line: passes iff margin < bound."""
    results.append((name, margin < bound, margin, bound))


def _verify_specfun(results, rng):
    _check(results, "specfun.bessel_first_root",
           abs(specfun.bessel_j(0, 2.404825557695773)), 1e-12)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(-2.0, 4.0)
        x = rng.uniform(0.0, 8.0)
        worst = max(worst, abs(specfun.laguerre(1, a, x) - (1.0 + a - x)))
    _check(results, "specfun.laguerre_degree1", worst, 1e-12)
    _check(results, "specfun.laguerre_explicit",
           abs(specfun.laguerre(2, 0.0, 2.0) - (-1.0)), 1e-12)
    # Pythagorean-type closure sum_k J_k(x)^2 = 1 at random arguments.
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0.1, 20.0)
        s = specfun.bessel_j(0, x) ** 2
        s += 2.0 * sum(specfun.bessel_j(k, x) ** 2 for k in range(1, 40))
        worst = max(worst, abs(s - 1.0))
    _check(results, "specfun.bessel_square_closure", worst, 1e-10)
    # Gegenbauer coefficients reproduce J_1(rho)/rho-type expansions.
    R = expansion.PlanarVec(2.0, 0.9)
    q = expansion.PlanarVec(0.7, 0.0)
    r = expansion.gegenbauer_expand(1, 1.0, R, q, 40)
    rho = abs(R.to_complex() - q.to_complex())
    _check(results, "specfun.gegenbauer_expand",
           abs(r.value - specfun.bessel_j(1, rho) / rho), 1e-11)
    # The fitted J_0/J_1 at 2 <= x < 8 against a Miller pass.  The draws
    # come from a generator of their own, seeded from the shared one's
    # state without drawing from it, so every other line keeps its draws.
    local = type(rng)(rng.get_state()[1][:4])
    worst = 0.0
    for x in local.uniform(2.0, 8.0, 200):
        j0, j1 = specfun.bessel_j_run(0, 2, x)
        worst = max(worst, abs(specfun.bessel_j(0, x) - j0),
                    abs(specfun.bessel_j(1, x) - j1))
    _check(results, "specfun.j01_fit_vs_miller", worst, 1e-14)


def _verify_gauge(results, rng):
    worst_div = worst_curl = worst_helm = 0.0
    for _ in range(_GAUGE_MODES):
        kind = ModeKind.TE if rng.randint(2) else ModeKind.TM
        mode = ModeSpec(kind, int(rng.randint(-4, 5)),
                        rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        w = mode.omega()

        def a_field(x, y, z, _m=mode):
            p = CylPoint.from_cartesian(x, y, z)
            s = fields.vector_potential(_m, p)
            return (s.x, s.y, s.z)

        for _ in range(6):
            x, y, z = rng.uniform(-2.0, 2.0, size=3)
            if math.hypot(x, y) < 0.1:
                x += 0.5
            s = fields.vector_potential(mode, CylPoint.from_cartesian(x, y, z))
            scale = max(s.norm(), 1e-3)
            div = quadrature.fd_divergence(a_field, x, y, z, 1e-4)
            worst_div = max(worst_div, abs(div) / (w * scale))
            b = fields.magnetic_field(mode, CylPoint.from_cartesian(x, y, z))
            curl = quadrature.fd_curl(a_field, x, y, z, 1e-4)
            diff = math.sqrt(abs(curl[0] - b.x) ** 2 + abs(curl[1] - b.y) ** 2
                             + abs(curl[2] - b.z) ** 2)
            worst_curl = max(worst_curl, diff / max(b.norm(), 1e-3))
            lap = quadrature.fd_laplacian(a_field, x, y, z, 1e-3)
            resid = math.sqrt(sum(abs(lap[i] + w * w * c) ** 2 for i, c in
                                  enumerate((s.x, s.y, s.z))))
            worst_helm = max(worst_helm, resid / (w * w * scale))
    _check(results, "gauge.coulomb_divergence", worst_div, 1e-6)
    _check(results, "gauge.curl_matches_B", worst_curl, 1e-5)
    _check(results, "gauge.helmholtz_residual", worst_helm, 1e-4)


def _addition_sum(m, k, R, q):
    """psi_m at R - q from the addition theorem's terms v = 0..80, summed
    whole: the reference for psi_shifted's truncation bound."""
    terms = 81
    xr, xq = k * R.r, k * q.r
    dphi = R.phi - q.phi
    jr = specfun.bessel_j_run(m, terms, xr)
    jq = specfun.bessel_j_run(m, terms, xq)
    if m == 0:
        return jr[0] * jq[0] + sum(2.0 * jr[v] * jq[v] * math.cos(v * dphi)
                                   for v in range(1, terms))
    cv = specfun.gegenbauer_run(m, terms, dphi)
    pref = 2.0 ** m * math.factorial(m - 1) / (xr ** m * xq ** m)
    ratio = sum(pref * (m + v) * jr[v] * jq[v] * cv[v] for v in range(terms))
    return ratio * (k * (R.to_complex() - q.to_complex())) ** m


def _verify_expansion(results, rng):
    worst = excess = 0.0
    for _ in range(_EXPANSION_CASES):
        m = int(rng.randint(0, 7))
        k = rng.uniform(0.3, 1.5)
        R = expansion.PlanarVec(rng.uniform(0.3, 3.0), rng.uniform(0, 2 * math.pi))
        q = expansion.PlanarVec(rng.uniform(0.05, 3.0 / k), rng.uniform(0, 2 * math.pi))
        v_max = expansion.default_v_max(k, R, q)
        shifted = expansion.psi_shifted(m, k, R, q, v_max)
        approx = shifted.value
        rho = expansion.PlanarVec.from_complex(R.to_complex() - q.to_complex())
        # A Miller pass, not the scalar series (~4e-14 off near x = 8).
        direct = specfun.bessel_j_run(m, 1, k * rho.r)[0] * cmath.exp(1j * m * rho.phi)
        # Scale floor keeps the ratio meaningful near zeros of the profile.
        worst = max(worst, abs(approx - direct) / max(abs(direct), 1e-6))
        # The series stops at its bound; the sum to v = 80 shows what it
        # dropped, within the estimate and the rounding of two Miller
        # passes of different lengths.
        excess = max(excess, abs(approx - _addition_sum(m, k, R, q))
                     - shifted.truncation_estimate)
    _check(results, "expansion.addition_theorem", worst, 1e-8)
    _check(results, "expansion.truncation_estimate", excess, 1e-15)
    worst = 0.0
    for _ in range(20):
        m = int(rng.randint(1, 6))
        R = expansion.PlanarVec(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
        q = expansion.PlanarVec(rng.uniform(0.01, 0.4), rng.uniform(0, 2 * math.pi))
        k = rng.uniform(0.3, 1.5)
        got = expansion.phase_expand(m, k, R, q)
        rho = expansion.PlanarVec.from_complex(R.to_complex() - q.to_complex())
        worst = max(worst, abs(got - cmath.exp(1j * m * rho.phi)))
    _check(results, "expansion.phase_factorization", worst, 1e-12)
    worst = 0.0
    for kr in (0.02, 0.01, 0.005):
        err = abs(expansion.quadrupole_expand(
            2, 1.0, expansion.PlanarVec(1.7, 0.4),
            expansion.PlanarVec(kr, 0.9), 0.9995, 0.0005)
            - (0.9995 * expansion.psi_displaced_direct(
                2, 1.0, expansion.PlanarVec(1.7, 0.4),
                expansion.PlanarVec(0.9995 * kr, 0.9 + math.pi))
               - 0.0005 * expansion.psi_displaced_direct(
                2, 1.0, expansion.PlanarVec(1.7, 0.4),
                expansion.PlanarVec(0.0005 * kr, 0.9))))
        worst = max(worst, err / kr ** 2)
    _check(results, "expansion.quadrupole_quadratic", worst, 0.2)


def _verify_selection(results, rng):
    mismatches = 0
    conservation = 0
    orders = [matrix_elements.TermOrder(n, v, s)
              for n in range(3) for v in range(3 - n) for s in range(v + 1)]
    for m in range(-2, 3):
        for kind in (ModeKind.TE, ModeKind.TM):
            cases = [("dipole", None), ("spin", None)]
            cases += [("general", o) for o in orders]
            for inter, o in cases:
                sym = matrix_elements.symbolic_channels(m, kind, inter, order=o)
                got = {(c.delta_m_R, c.delta_m_r, c.delta_spin_e) for c in sym}
                tab = matrix_elements.azimuthal_channel_table(m, kind, inter,
                                                              order=o)
                if got != set(tab):
                    mismatches += 1
                conservation += sum(
                    1 for c in sym
                    if c.delta_m_R + c.delta_m_r + c.delta_spin_e != -m)
    _check(results, "selection.oracle_equivalence", float(mismatches), 0.5)
    _check(results, "selection.conservation_sum", float(conservation), 0.5)


def _verify_quadrature(results, rng):
    # Body plus tail, the path of every recoil integral off Graf triples,
    # against exact values at fixed points (no draws from rng).  Each
    # margin is the worse of the error and the estimate.
    tol = quadrature.SEMIINFINITE_TOL
    # Sonine-Gegenbauer: int J_nu(aR) J_nu(bR) J_nu(cR) R^{1-nu} dR =
    # 2^{nu-1} Delta^{2nu-1} / (sqrt(pi) Gamma(nu + 1/2) (abc)^nu) inside
    # the triangle of sides a, b, c and area Delta.
    worst = 0.0
    for a, b, c in ((1.0, 0.7, 1.4), (0.44, 0.95, 1.24), (1.3, 0.9, 0.6)):
        s = 0.5 * (a + b + c)
        area = math.sqrt(s * (s - a) * (s - b) * (s - c))
        for nu in (1, 2):
            exact = (2.0 ** (nu - 1) * area ** (2 * nu - 1)
                     / (math.sqrt(math.pi) * math.gamma(nu + 0.5)
                        * (a * b * c) ** nu))
            r = matrix_elements._triple_bessel_oracle(a, b, c, nu, nu, nu,
                                                      1 - nu)
            worst = max(worst, abs(r.value - exact), r.abs_error_estimate)
    _check(results, "quadrature.body_plus_tail_sonine", worst, tol)
    # Weber-Schafheitlin: triple_bessel at (m, m_R, n) = (0, 1, 2), int
    # J_0(kR) J_1(k^R R) J_{-1}(k^R' R) R^{-1} dR = -k^R / (2 k^R') outside
    # the cone.
    worst = 0.0
    for k, k_R, k_Rp in ((0.7, 0.8, 1.6), (1.0, 0.5, 2.0)):
        r = matrix_elements._triple_bessel_oracle(k, k_R, k_Rp, 0, 1, -1, -1)
        worst = max(worst, abs(r.value + k_R / (2.0 * k_Rp)),
                    r.abs_error_estimate)
    _check(results, "quadrature.body_plus_tail_weber_schafheitlin", worst,
           tol)
    r = quadrature.integrate_finite(math.sin, 0.0, math.pi)
    _check(results, "quadrature.finite_gk", abs(r.value - 2.0), 1e-12)


def _verify_cm(results, rng):
    import numpy as np

    # Vanishing cone (small randomized battery; the acceptance suite runs 50).
    worst = 0.0
    for _ in range(8):
        k1 = rng.uniform(0.4, 1.8)
        k2 = rng.uniform(0.4, 1.8)
        k3 = (k1 + k2) * rng.uniform(1.06, 1.4)
        m = int(rng.randint(0, 3))
        mR = int(rng.randint(0, 3))
        r = matrix_elements.triple_bessel(k1, k2, k3, m, mR, 0)
        worst = max(worst, abs(r.value))
    _check(results, "cm.momentum_cone_vanishing", worst, 1e-6)
    alpha = rng.uniform(0.8, 1.4)
    cm = matrix_elements.CenterOfMassState.trapped(0, 0, alpha)
    ks = np.linspace(0.5 / alpha, 3.0 / alpha, 9)
    logs = [math.log(abs(matrix_elements.icm0(cm, cm, k, 1.0, 0))) for k in ks]
    slope = np.polyfit(ks ** 2, logs, 1)[0]
    _check(results, "cm.gaussian_suppression_slope",
           abs(slope + alpha ** 2 / 4.0) / (alpha ** 2 / 4.0), 1e-2)
    worst = 0.0
    for z in (0.5, 1.0, 2.0):
        al = 1.3
        k = 2.0 * math.sqrt(z) / al
        qv = matrix_elements.ho_vortex_integral(1, al, k, 2, 1).value
        sv = matrix_elements.ho_vortex_series(1, al, k, 2, 1).value
        worst = max(worst, abs(qv - sv) / abs(qv))
    _check(results, "cm.vortex_series_vs_quadrature", worst, 1e-8)
    s1 = matrix_elements.hydrogen_state(1, 0)
    p2 = matrix_elements.hydrogen_state(2, 1)
    _check(results, "cm.hydrogen_radial_dipole",
           abs(matrix_elements.radial_dipole_integral(p2, s1)
               - 1536.0 / (243.0 * math.sqrt(24.0))), 1e-10)
    # Body plus tail against Graf's closed form, which the free recoil
    # integrals take, at signed Graf triples (+-(nu + k), k, nu).
    worst = 0.0
    for _ in range(8):
        ks = rng.uniform(0.4, 1.8, size=3).tolist()
        nu = int(rng.randint(-10, 11))
        k = int(rng.randint(max(-10, -10 - nu), min(10, 10 - nu) + 1))
        orders = ((1 if rng.randint(2) else -1) * (nu + k), k, nu)
        closed = matrix_elements._graf_closed_form(*ks, *orders)
        r = matrix_elements._triple_bessel_oracle(*ks, *orders, 1)
        worst = max(worst, abs(closed.value - r.value))
    _check(results, "cm.closed_form_vs_body_plus_tail", worst, 1e-9)


def _verify_overlap(results, rng):
    import numpy as np

    worst = 0.0
    for kp in np.linspace(0.2, 3.0, 20):
        for kz in np.linspace(0.2, 3.0, 20):
            w2 = kp * kp + kz * kz
            expect = (1.0 - kz * kz / w2) / (1.0 + kz * kz / w2)
            got = fields.lr_cross_overlap(1, kp, kz)
            worst = max(worst, abs(got - expect))
    _check(results, "overlap.lr_cross_value", worst, 1e-14)
    _check(results, "overlap.kz_zero_limit",
           abs(fields.lr_cross_overlap(0, 1.0, 0.0) - 1.0), 1e-14)
    _check(results, "overlap.paraxial_limit",
           abs(fields.lr_cross_overlap(0, 1e-8, 1.0)), 1e-14)


# Fixed 10-point parameter set for the candidate-vs-oracle report.
_CANDIDATE_POINTS = [
    ("triple_series", dict(k_perp=1.0, k_perp_R=0.7, k_perp_Rp=1.4, m=1, m_R=0, n=0)),
    ("triple_series", dict(k_perp=0.9, k_perp_R=1.1, k_perp_Rp=1.3, m=2, m_R=1, n=1)),
    ("triple_series", dict(k_perp=0.5, k_perp_R=0.6, k_perp_Rp=0.8, m=0, m_R=2, n=0)),
    ("ho_gauss_bessel", dict(nu=0, lam=0, eta=0, sigma=0, alpha=1.0, k=0.8)),
    ("ho_gauss_bessel", dict(nu=2, lam=1, eta=1, sigma=1, alpha=1.0, k=0.9)),
    ("ho_gauss_bessel", dict(nu=1, lam=2, eta=0, sigma=0, alpha=1.3, k=1.2)),
    ("ho_vortex", dict(n_bar=0, alpha=1.0, k_perp=1.0, m=1, n=0)),
    ("ho_vortex", dict(n_bar=1, alpha=1.3, k_perp=1.0, m=2, n=1)),
    ("ho_vortex", dict(n_bar=2, alpha=1.0, k_perp=2.0, m=3, n=1)),
    ("ho_vortex", dict(n_bar=0, alpha=1.5, k_perp=1.885618083164127, m=4, n=2)),
]


def candidate_report():
    """Candidate-closed-form vs quadrature-oracle discrepancy table over
    the fixed 10-point parameter set.  Returns a list of row dicts."""
    candidates = {"triple_series": matrix_elements.triple_bessel_candidate,
                  "ho_gauss_bessel": matrix_elements.ho_gauss_bessel_candidate,
                  "ho_vortex": matrix_elements.ho_vortex_candidate}
    rows = []
    for kind, p in _CANDIDATE_POINTS:
        c = candidates[kind](**p)
        rows.append(dict(family=kind, params=p, oracle=c.oracle.real,
                         oracle_err=c.oracle_error,
                         candidate=c.candidate.real,
                         candidate_converged=c.candidate_converged,
                         discrepancy=c.discrepancy))
    return rows


_BATTERIES = {
    "specfun": _verify_specfun,
    "gauge": _verify_gauge,
    "expansion": _verify_expansion,
    "selection": _verify_selection,
    "quadrature": _verify_quadrature,
    "cm": _verify_cm,
    "overlap": _verify_overlap,
}


def cmd_verify(args) -> int:
    batteries = [b for name, b in _BATTERIES.items() if args.only in name]
    if not batteries and args.only not in "candidates":
        raise argparse.ArgumentTypeError(
            f"--only {args.only!r} selects nothing; batteries: "
            f"{', '.join(_BATTERIES)}, candidates")
    # numpy is imported by verify and the channel oracle alone, so that the
    # other subcommands start without it.  RandomState fixes each seed's
    # draws, and with them verify's output bytes.
    import numpy as np

    rng = np.random.RandomState(args.seed)
    results = []
    for battery in batteries:
        battery(results, rng)
    all_ok = True
    for name, ok, margin, bound in results:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{status} {name} margin={margin:.3e} bound={bound:.3e}")
    if args.only in "candidates":
        print("# candidate-vs-oracle discrepancy report "
              "(printed closed forms are documented findings, not failures)")
        for row in candidate_report():
            p = ",".join(f"{k}={v}" for k, v in row["params"].items())
            print(f"CANDIDATE {row['family']} {p} "
                  f"oracle={row['oracle']:.10e} "
                  f"candidate={row['candidate']:.10e} "
                  f"discrepancy={row['discrepancy']:.3e} "
                  f"converged={row['candidate_converged']}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistkit",
        description="Nonparaxial Bessel-mode fields and atom-photon "
                    "transition matrix elements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="evaluate A, E, B of a mode at a point")
    p.add_argument("--kind", required=True, choices=["te", "tm", "l", "r"])
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--kperp", required=True, type=float)
    p.add_argument("--kz", required=True, type=float)
    p.add_argument("--at", required=True, help="RHO,PHI,Z[,T]")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("channels", help="allowed-channel table")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--kind", required=True, choices=["te", "tm"])
    p.add_argument("--interaction", required=True,
                   choices=["dipole", "general", "spin"])
    p.add_argument("--order", help="N,V,S indices for --interaction general")
    p.add_argument("--max-multipole", type=int, default=0)
    p.set_defaults(func=cmd_channels)

    p = sub.add_parser("amplitude", help="dipole transition amplitudes")
    p.add_argument("--kind", required=True, choices=["te", "tm"])
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--kperp", required=True, type=float)
    p.add_argument("--kz", required=True, type=float)
    p.add_argument("--cm-in", required=True)
    p.add_argument("--cm-out", required=True)
    p.add_argument("--int-in", required=True)
    p.add_argument("--int-out", required=True)
    p.add_argument("--qe", type=float, default=1.0)
    p.add_argument("--energy-scale", type=float, default=1.0)
    p.add_argument("--direction", default="emission",
                   choices=["emission", "absorption"])
    p.set_defaults(func=cmd_amplitude)

    p = sub.add_parser("scan", help="evaluate a quantity over a grid")
    p.add_argument("--config", required=True, help="JSON scan configuration")
    p.add_argument("--out", help="output path (overrides config)")
    p.add_argument("--format", choices=["csv", "json"],
                   help="output format (overrides config)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run the invariant batteries")
    p.add_argument("--only", default="",
                   help="run only batteries whose name contains this")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


# Built by the first main() call and reused: parse_args keeps no state
# between calls, and building the tree costs about a millisecond.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TwistkitError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
