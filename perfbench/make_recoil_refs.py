"""Build recoil_refs.json: mpmath references for the general inside-cone
points of the recoil_scan workload.

Each reference is computed twice, with the mpmath quadrature carried to
two different cut-offs before the asymptotic tail takes over; the two
must agree to 1e-13 and their difference is stored as ``ref_err``.
Run from the repository root (takes a few minutes):

    python3 perfbench/make_recoil_refs.py
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
from workloads import inside_cone  # noqa: E402

POOL_SIZE = 128
POOL_SEED = 20041004
OUT = os.path.join(HERE, "recoil_refs.json")


def pool_point(rng):
    k1, k2, k3 = inside_cone(rng)
    m, m_R = rng.randrange(4), rng.randrange(4)
    n = rng.randrange(m + m_R + 2)
    return dict(k_perp=k1, k_perp_R=k2, k_perp_Rp=k3, m=m, m_R=m_R, n=n)


def main():
    rng = random.Random(POOL_SEED)
    points = []
    for i in range(POOL_SIZE):
        p = pool_point(rng)
        args = (p["k_perp"], p["k_perp_R"], p["k_perp_Rp"], p["m"], p["m_R"], p["n"])
        a = reference.triple_bessel_mp(*args, x_max=60.0)
        b = reference.triple_bessel_mp(*args, x_max=90.0)
        if abs(a - b) > 1e-13:
            raise SystemExit(f"reference not converged at {p}: {a!r} vs {b!r}")
        points.append(dict(p, value=a, ref_err=abs(a - b)))
        print(f"{i + 1}/{POOL_SIZE} {p} value={a:.17g} ref_err={abs(a - b):.1e}",
              flush=True)
    with open(OUT, "w") as fh:
        json.dump({"generator": "perfbench/make_recoil_refs.py",
                   "pool_seed": POOL_SEED, "points": points}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
