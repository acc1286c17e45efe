"""Rebuild specfun's two J_0/J_1 tables from the installed mpmath.

_J01_FIT, for x >= 8: H_n^(1)(x) = sqrt(2/(pi x)) (P_n + i Q_n) e^{i chi_n}
with chi_n = x - (2n+1) pi/4.  For n = 0 and 1 this fits P_n and
q_n = (x/8) Q_n as degree-12 polynomials in t = 64/x^2 on [0, 1] and prints
the table as specfun stores it: 13 rows, highest degree first, each row
(P_0, q_0, P_1, q_1).

_J01_MID_FIT, for 2 <= x < 8: J_0 and J_1 on the pieces [2, 4), [4, 6) and
[6, 8), each a degree-14 polynomial in u = x - c on [-1, 1], c = 3, 5, 7.
15 rows, highest degree first, each row (J_0 at c = 3, J_1 at c = 3,
J_0 at c = 5, J_1 at c = 5, J_0 at c = 7, J_1 at c = 7).

Both are fitted by mpmath.chebyfit at 40 digits.

    python tools/fit_bessel_j01.py           # print the tables and the fits' errors
    python tools/fit_bessel_j01.py --check   # exit 1 if a stored coefficient is
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
MID_DEGREE = 14
MID_CENTRES = (3, 5, 7)
DPS = 40


def modulus_phase(n: int, t):
    """(P_n, q_n) at t = 64/x^2 in (0, 1], from 40-digit Hankel functions."""
    x = 8 / mpmath.sqrt(t)
    chi = x - (2 * n + 1) * mpmath.pi / 4
    pq = mpmath.hankel1(n, x) * mpmath.sqrt(mpmath.pi * x / 2) * mpmath.expj(-chi)
    return pq.real, (x / 8) * pq.imag


def _chebyfit(f, interval, degree):
    coeffs, err = mpmath.chebyfit(f, interval, degree + 1, error=True)
    return [float(c) for c in coeffs], float(err)


def fit():
    """[(coefficients highest first, fit error)] for P_0, q_0, P_1, q_1."""
    with mpmath.workdps(DPS):
        return [_chebyfit(lambda t, n=n, part=part: modulus_phase(n, t)[part],
                          [0, 1], DEGREE)
                for n in (0, 1) for part in (0, 1)]


def fit_mid():
    """[(coefficients highest first, fit error)] for J_0 and J_1 in
    u = x - c on [-1, 1], for each centre c in MID_CENTRES."""
    with mpmath.workdps(DPS):
        return [_chebyfit(lambda u, n=n, c=c: mpmath.besselj(n, c + u),
                          [-1, 1], MID_DEGREE)
                for c in MID_CENTRES for n in (0, 1)]


def _print_table(name, names, fits):
    for label, (_, err) in zip(names, fits):
        print(f"# {label}: fit error {err:.2e}")
    print(f"{name} = (")
    for row in zip(*(coeffs for coeffs, _ in fits)):
        pairs = [f"{a!r}, {b!r}" for a, b in zip(row[::2], row[1::2])]
        print("    (" + ",\n     ".join(pairs) + "),")
    print(")")


def _check_table(name, names, stored, fits, degree) -> int:
    rows = tuple(zip(*(coeffs for coeffs, _ in fits)))
    if len(stored) != len(rows):
        print(f"{name}: stored table has {len(stored)} rows, the fit "
              f"{len(rows)}")
        return len(names) * len(rows)
    bad = 0
    for power, (got, rebuilt) in enumerate(zip(stored, rows)):
        for label, a, b in zip(names, got, rebuilt):
            if abs(a - b) > math.ulp(b):
                bad += 1
                print(f"{name} {label} t^{degree - power}: stored {a!r}, "
                      f"rebuilt {b!r}")
    total = len(names) * len(rows)
    print(f"{name}: {total - bad} of {total} coefficients within 1 ulp")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with twistkit.specfun's stored tables")
    args = parser.parse_args(argv)
    names = ("P_0", "q_0", "P_1", "q_1")
    mid_names = tuple(f"J_{n}@{c}" for c in MID_CENTRES for n in (0, 1))
    fits, mid_fits = fit(), fit_mid()
    if not args.check:
        _print_table("_J01_FIT", names, fits)
        _print_table("_J01_MID_FIT", mid_names, mid_fits)
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from twistkit.specfun import _J01_FIT, _J01_MID_FIT

    bad = _check_table("_J01_FIT", names, _J01_FIT, fits, DEGREE)
    bad += _check_table("_J01_MID_FIT", mid_names, _J01_MID_FIT, mid_fits,
                        MID_DEGREE)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
