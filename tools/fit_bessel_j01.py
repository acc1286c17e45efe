"""Rebuild specfun's J_0/J_1 modulus-phase table from the installed mpmath.

For x >= 8, H_n^(1)(x) = sqrt(2/(pi x)) (P_n + i Q_n) e^{i chi_n} with
chi_n = x - (2n+1) pi/4.  For n = 0 and 1 this fits P_n and q_n = (x/8) Q_n
as degree-12 polynomials in t = 64/x^2 on [0, 1] (mpmath.chebyfit at 40
digits) and prints the table as specfun stores it: 13 rows, highest degree
first, each row (P_0, q_0, P_1, q_1).

    python tools/fit_bessel_j01.py           # print the table and the fits' errors
    python tools/fit_bessel_j01.py --check   # exit 1 if specfun's table is
                                             # more than 1 ulp off the rebuild

Needs nothing but mpmath; no download.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import mpmath

DEGREE = 12
DPS = 40


def modulus_phase(n: int, t):
    """(P_n, q_n) at t = 64/x^2 in (0, 1], from 40-digit Hankel functions."""
    x = 8 / mpmath.sqrt(t)
    chi = x - (2 * n + 1) * mpmath.pi / 4
    pq = mpmath.hankel1(n, x) * mpmath.sqrt(mpmath.pi * x / 2) * mpmath.expj(-chi)
    return pq.real, (x / 8) * pq.imag


def fit():
    """[(coefficients highest first, fit error)] for P_0, q_0, P_1, q_1."""
    out = []
    with mpmath.workdps(DPS):
        for n in (0, 1):
            for part in (0, 1):
                coeffs, err = mpmath.chebyfit(
                    lambda t: modulus_phase(n, t)[part], [0, 1], DEGREE + 1,
                    error=True)
                out.append(([float(c) for c in coeffs], float(err)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with twistkit.specfun's stored table")
    args = parser.parse_args(argv)
    fits = fit()
    rows = tuple(zip(*(coeffs for coeffs, _ in fits)))
    names = ("P_0", "q_0", "P_1", "q_1")
    if not args.check:
        for name, (_, err) in zip(names, fits):
            print(f"# {name}: fit error {err:.2e}")
        print("_J01_FIT = (")
        for row in rows:
            print(f"    ({row[0]!r}, {row[1]!r},\n     {row[2]!r}, {row[3]!r}),")
        print(")")
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from twistkit.specfun import _J01_FIT

    bad = 0
    if len(_J01_FIT) != len(rows):
        print(f"stored table has {len(_J01_FIT)} rows, the fit {len(rows)}")
        return 1
    for degree, (stored, rebuilt) in enumerate(zip(_J01_FIT, rows)):
        for name, a, b in zip(names, stored, rebuilt):
            if abs(a - b) > math.ulp(b):
                bad += 1
                print(f"{name} t^{DEGREE - degree}: stored {a!r}, "
                      f"rebuilt {b!r}")
    print(f"{4 * len(rows) - bad} of {4 * len(rows)} coefficients within 1 ulp")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
