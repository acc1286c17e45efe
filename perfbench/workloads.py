"""The benchmark's three workloads.

Each workload turns a seed into an endless stream of operation inputs,
executes one operation through twistkit's public API, and afterwards
checks every result against the independent references in
``reference.py``.  Inputs are drawn in small stratified blocks (a fixed
mix of cases per block, shuffled) so that the case mix, and with it the
run's timing, depends little on the seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import sys
from types import SimpleNamespace

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
MODULES = ("cli", "expansion", "fields", "matrix_elements", "quadrature", "specfun")


class MissingSource(Exception):
    pass


def load_twistkit(root):
    """Import twistkit from ``root``/src, never from an installed copy."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "twistkit", "__init__.py")):
        raise MissingSource(f"no twistkit sources under {src}")
    sys.path.insert(0, src)
    package = importlib.import_module("twistkit")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise MissingSource(f"twistkit imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{name: importlib.import_module("twistkit." + name)
                              for name in MODULES})


class Workload:
    name = ""
    # Layers (tracer names) every traced run of this workload must hit.
    layers = ()
    # Share of a run's operations that may miss their stated bound while
    # staying within their tolerance; beyond it the run fails.
    stated_miss_share = 0.0
    # The latency percentile reported as op_p90_ref_ms.  It is fixed per
    # workload, so that a faster program is compared at the same level: the
    # highest one with at least ten samples beyond it in a run of the
    # commit the benchmark was added to.
    tail_level = 0.9

    def __init__(self, tk, workdir):
        self.tk = tk
        self.workdir = workdir

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        context = self.context(seed)
        block_index = 0
        while True:
            block = self.block(rng, block_index, context)
            rng.shuffle(block)
            yield from block
            block_index += 1

    def context(self, seed):
        """Per-seed state shared by the blocks of one input stream."""
        return None

    def block(self, rng, index, context):
        raise NotImplementedError

    def warmup_input(self):
        raise NotImplementedError

    def execute(self, inp):
        raise NotImplementedError

    def check(self, inp, result):
        """List of (|error|, tolerance, stated bound) triples.  An error
        above its tolerance is a wrong answer; the stated bound is the
        accuracy the package documents; where the tolerance is wider, a
        run may miss the stated bound on at most ``stated_miss_share`` of
        its operations.  A mismatch of discrete outputs is reported as an
        infinite error."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# recoil_scan
# ---------------------------------------------------------------------------

def inside_cone(rng):
    """Three wavenumbers in [0.4, 1.8] strictly inside the momentum
    triangle, kept away from its edges (where the integral has a kink)."""
    while True:
        k1, k2 = rng.uniform(0.4, 1.8), rng.uniform(0.4, 1.8)
        lo, hi = abs(k1 - k2), k1 + k2
        k3 = lo + (hi - lo) * rng.uniform(0.15, 0.85)
        if 0.4 <= k3 <= 1.8:
            return k1, k2, k3


class RecoilScan(Workload):
    """One ``twistkit scan`` of a single triple_bessel point per operation.

    Block of 8: four points outside the momentum cone (k3 > k1 + k2, n = 0,
    reference 0), one Sonine-Gegenbauer point (m = m_R = n = nu, closed
    form) and three general inside-cone points from the stored mpmath pool.
    """

    name = "recoil_scan"
    layers = ("cli.main", "matrix_elements.triple_bessel",
              "quadrature.integrate_bessel_semiinfinite", "specfun.bessel_j")
    # 39-53 operations per run at that commit.
    tail_level = 0.75
    # Tolerances are fixed here; none depends on the error estimate the
    # program reports.  Stated bounds: outside the cone the README's 1e-6;
    # inside, twice the tol=1e-9 the scan path requests.
    CONE_TOL = 1e-6
    INSIDE_TOL = 2e-9
    # At the commit this benchmark was added to, the program missed the
    # stated bound on under 1 % of operations, in several classes of
    # point (README.md here, "Findings").  An operation may miss it by at
    # most these caps, seven to eight times the worst miss measured there,
    # and at most a tenth of a run's operations may miss it at all.
    CONE_CAP = 1e-5
    INSIDE_CAP = 1e-6
    stated_miss_share = 0.1

    def __init__(self, tk, workdir):
        super().__init__(tk, workdir)
        with open(os.path.join(HERE, "recoil_refs.json")) as fh:
            self.pool = json.load(fh)["points"]

    def context(self, seed):
        # The general points come from a per-seed permutation of the
        # pool, cycled, so a point repeats only once the pool is used up.
        order = list(range(len(self.pool)))
        random.Random(f"pool:{seed}").shuffle(order)
        return order

    def block(self, rng, index, order):
        out = []
        for j in range(4):
            k1, k2 = rng.uniform(0.4, 1.8), rng.uniform(0.4, 1.8)
            # k3 / (k1 + k2) is uniform on [1.06, 1.4], one point per quarter:
            # points near the cone edge cost ~1.6x the others, so every
            # block gets the same share of them.
            lo = 1.06 + 0.085 * j
            k3 = (k1 + k2) * rng.uniform(lo, lo + 0.085)
            m, m_R = rng.randrange(4), rng.randrange(4)
            out.append(dict(case="cone", k_perp=k1, k_perp_R=k2, k_perp_Rp=k3,
                            m=m, m_R=m_R, n=0))
        nu = index % 3
        k1, k2, k3 = inside_cone(rng)
        out.append(dict(case="sonine", k_perp=k1, k_perp_R=k2, k_perp_Rp=k3,
                        m=nu, m_R=nu, n=nu))
        for j in range(3):
            i = order[(3 * index + j) % len(order)]
            p = self.pool[i]
            out.append(dict(case="pool", pool_index=i, **{
                k: p[k] for k in ("k_perp", "k_perp_R", "k_perp_Rp", "m", "m_R", "n")}))
        return out

    def warmup_input(self):
        return dict(case="sonine", k_perp=1.0, k_perp_R=0.7, k_perp_Rp=1.4,
                    m=0, m_R=0, n=0)

    def execute(self, inp):
        grid = {k: {"start": inp[k], "stop": inp[k], "count": 1}
                for k in ("k_perp", "k_perp_R", "k_perp_Rp", "m", "m_R", "n")}
        cfg = os.path.join(self.workdir, "scan.json")
        out = os.path.join(self.workdir, "scan.csv")
        with open(cfg, "w") as fh:
            json.dump({"quantity": "triple_bessel", "grid": grid}, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.tk.cli.main(["scan", "--config", cfg, "--out", out])
        if code != 0:
            raise RuntimeError(f"scan exited {code}: {err.getvalue().strip()}")
        with open(out, newline="") as fh:
            header, row = fh.read().split("\r\n")[:2]
        cells = dict(zip(header.split(","), row.split(",")))
        return {"value": float(cells["value"]),
                "abs_error_estimate": float(cells["abs_error_estimate"])}

    def check(self, inp, result):
        if inp["case"] == "cone":
            err = abs(result["value"])
            return [(err, self.CONE_CAP, self.CONE_TOL)]
        if inp["case"] == "sonine":
            want = reference.sonine_gegenbauer(
                inp["m"], inp["k_perp"], inp["k_perp_R"], inp["k_perp_Rp"])
        else:
            want = self.pool[inp["pool_index"]]["value"]
        return [(abs(result["value"] - want), self.INSIDE_CAP, self.INSIDE_TOL)]


# ---------------------------------------------------------------------------
# selection_tables
# ---------------------------------------------------------------------------

class SelectionTables(Workload):
    """Both channel engines on one (m, kind, interaction, order) case.

    Block of 6: one dipole, one spin and four general-order cases with
    n + v <= 3, each with m in -4..4 and a TE or TM mode.
    """

    name = "selection_tables"
    layers = ("matrix_elements.symbolic_channels",
              "matrix_elements.azimuthal_channel_table", "specfun.bessel_j")
    # Oracle Fourier magnitudes vs the mpmath-built coefficients, relative
    # to the largest coefficient of the case.
    COEFF_REL_TOL = 1e-12

    def block(self, rng, index, context):
        cases = [("dipole", None), ("spin", None)]
        for _ in range(4):
            n = rng.randrange(4)
            v = rng.randrange(4 - n)
            cases.append(("general", (n, v, rng.randrange(v + 1))))
        return [dict(m=rng.randrange(-4, 5), kind=rng.choice(("te", "tm")),
                     interaction=inter, order=o) for inter, o in cases]

    def warmup_input(self):
        return dict(m=1, kind="tm", interaction="general", order=(0, 1, 0))

    def execute(self, inp):
        me = self.tk.matrix_elements
        kind = self.tk.fields.ModeKind(inp["kind"])
        order = me.TermOrder(*inp["order"]) if inp["order"] else None
        sym = me.symbolic_channels(inp["m"], kind, inp["interaction"], order=order)
        table = me.azimuthal_channel_table(inp["m"], kind, inp["interaction"],
                                           order=order)
        return {"symbolic": sorted([c.delta_m_R, c.delta_m_r, c.delta_spin_e]
                                   for c in sym),
                "table": sorted([list(k), v] for k, v in table.items())}

    def check(self, inp, result):
        sym = {tuple(c) for c in result["symbolic"]}
        table = {tuple(k): v for k, v in result["table"]}
        errs = []
        if sym != set(table):
            errs.append((math.inf, 1.0, 1.0))
        if any(sum(c) != -inp["m"] for c in sym):
            errs.append((math.inf, 1.0, 1.0))
        coeffs = reference.channel_coefficients(
            inp["m"], inp["kind"], inp["interaction"], inp["order"] or (0, 0, 0))
        peak = max(coeffs.values(), default=0.0)
        if peak < 1e-13:
            expected = {}
        else:
            expected = {k: c for k, c in coeffs.items() if c > 1e-9 * peak}
        if set(expected) != set(table):
            errs.append((math.inf, 1.0, 1.0))
        tol = self.COEFF_REL_TOL * peak
        for key, mag in table.items():
            if key in expected:
                errs.append((abs(mag - expected[key]), tol, tol))
        return errs


# ---------------------------------------------------------------------------
# pointwise_mix
# ---------------------------------------------------------------------------

class PointwiseMix(Workload):
    """Many short scalar calls: A, E and B of the TE, TM, L and R modes at
    one point, the displaced profile by addition theorem and directly,
    and a trapped ground-state recoil overlap.

    Block of 4: the displaced-profile order m cycles through 0..3.
    """

    name = "pointwise_mix"
    layers = ("fields.vector_potential", "fields.magnetic_field",
              "expansion.psi_shifted", "matrix_elements.icm0",
              "quadrature.integrate_finite", "specfun.bessel_j")
    # Each field component combines up to three Bessel values, documented
    # to 12 significant digits; near a zero of the profile only to about
    # 1e-13 absolute (the series branch loses ~4e-14 at x = 8).  So the
    # tolerance is 3e-12 of the sample's norm plus 3e-13 of its natural
    # amplitude, the norm with every Bessel value set to 1.
    FIELD_REL_TOL = 3e-12
    FIELD_ABS_TOL = 3e-13
    PSI_REL_TOL = 1e-8      # verify's addition-theorem bound
    PSI_FLOOR = 1e-6        # verify's floor near zeros of the profile
    DIRECT_TOL = 1e-13      # absolute, one Bessel value of modest order
    ICM0_TOL = 1e-10

    def block(self, rng, index, context):
        out = []
        for m_psi in range(4):
            k = rng.uniform(0.3, 1.5)
            alpha = rng.uniform(0.8, 1.4)
            out.append(dict(
                m=rng.randrange(-4, 5), k_perp=rng.uniform(0.2, 3.0),
                k_z=rng.uniform(0.2, 3.0), rho=rng.uniform(0.05, 4.0),
                phi=rng.uniform(0.0, 2 * math.pi), z=rng.uniform(-2.0, 2.0),
                t=rng.uniform(0.0, 1.0),
                m_psi=m_psi, k_psi=k,
                R=rng.uniform(0.3, 3.0), phi_R=rng.uniform(0.0, 2 * math.pi),
                q=rng.uniform(0.05, 3.0 / k), phi_q=rng.uniform(0.0, 2 * math.pi),
                alpha=alpha, k_cm=rng.uniform(0.5 / alpha, 3.0 / alpha)))
        return out

    def warmup_input(self):
        return dict(m=1, k_perp=0.8, k_z=1.2, rho=1.0, phi=0.5, z=0.2, t=0.0,
                    m_psi=3, k_psi=1.0, R=2.0, phi_R=0.3, q=1.5, phi_q=1.1,
                    alpha=1.0, k_cm=1.0)

    def execute(self, inp):
        tk = self.tk
        fl, ex, me = tk.fields, tk.expansion, tk.matrix_elements
        p = fl.CylPoint(inp["rho"], inp["phi"], inp["z"], inp["t"])
        out = {}
        for kind in ("te", "tm", "l", "r"):
            mode = fl.ModeSpec(fl.ModeKind(kind), inp["m"], inp["k_perp"], inp["k_z"])
            for label, fn in (("A", fl.vector_potential), ("E", fl.electric_field),
                              ("B", fl.magnetic_field)):
                s = fn(mode, p)
                out[kind + label] = [[c.real, c.imag] for c in (s.x, s.y, s.z)]
        R = ex.PlanarVec(inp["R"], inp["phi_R"])
        q = ex.PlanarVec(inp["q"], inp["phi_q"])
        v_max = ex.default_v_max(inp["k_psi"], R, q)
        shifted = ex.psi_shifted(inp["m_psi"], inp["k_psi"], R, q, v_max).value
        direct = ex.psi_displaced_direct(inp["m_psi"], inp["k_psi"], R, q)
        cm = me.CenterOfMassState.trapped(0, 0, inp["alpha"])
        icm = me.icm0(cm, cm, inp["k_cm"], 1.0, 0)
        out["psi_shifted"] = [shifted.real, shifted.imag]
        out["psi_direct"] = [direct.real, direct.imag]
        out["icm0"] = [icm.real, icm.imag]
        return out

    def check(self, inp, result):
        errs = []
        args = (inp["m"], inp["k_perp"], inp["k_z"], inp["rho"], inp["phi"],
                inp["z"], inp["t"])
        for kind in ("te", "tm", "l", "r"):
            want = reference.mode_fields(kind, *args)
            unit = reference.mode_fields(kind, *args, bessel=lambda order, x: 1.0)
            for label, sample, amplitude in zip("AEB", want, unit):
                got = [complex(*c) for c in result[kind + label]]
                err = max(abs(g - w) for g, w in zip(got, sample))
                errs.append((err, self.FIELD_REL_TOL * _norm(sample)
                             + self.FIELD_ABS_TOL * _norm(amplitude)))
        direct = reference.displaced_profile(inp["m_psi"], inp["k_psi"], inp["R"],
                                             inp["phi_R"], inp["q"], inp["phi_q"])
        shifted = complex(*result["psi_shifted"])
        errs.append((abs(shifted - direct),
                     self.PSI_REL_TOL * max(abs(direct), self.PSI_FLOOR)))
        errs.append((abs(complex(*result["psi_direct"]) - direct), self.DIRECT_TOL))
        want = reference.trapped_ground_overlap(inp["k_cm"], inp["alpha"])
        errs.append((abs(complex(*result["icm0"]) - want), self.ICM0_TOL))
        return [(err, tol, tol) for err, tol in errs]


def _norm(sample):
    return math.sqrt(sum(abs(c) ** 2 for c in sample))


WORKLOADS = {w.name: w for w in (RecoilScan, SelectionTables, PointwiseMix)}
