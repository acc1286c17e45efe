"""Self-contained special-function kernel.

Bessel J of every integer order (J_0 and J_1 at 2 <= x < 8 from three
fitted polynomial pieces; the ascending series for other small x; for
x >= 8 and order <= x, J_0 and J_1 from fitted modulus-phase polynomials
and the forward recurrence; else Miller's backward recurrence; runs of
orders >= 0 from one Miller pass),
generalized Laguerre polynomials, Pochhammer symbols, Kummer's function
scaled as e^{-x} 1F1(a; b; x) (the vortex series), the generalized
exponential integral E_p at half-integer p (alone, or as a ladder of
consecutive p from one direct evaluation), and the Gegenbauer
polynomials that drive the cylindrical addition theorem (a run of degrees
by recurrence).

The fits' tables (_J01_FIT and _J01_MID_FIT, rows of one degree) are
taken apart into their columns once, at import, and each column is
evaluated by Horner's rule written out, with no loop.

Every function is a pure function of its arguments.  The module-level
mutable state is two memos, neither of which changes a result: the
ascending series' coefficient rows (_SERIES_ROWS), one row per order m
built in full on the first call at that order, and the Hankel-expansion
ratios (4m^2 - (2k-1)^2) / (8k) (_HANKEL_RATIOS), a list per order m that
grows only as far as a call has read it.  A series row holds, per term
count N, the N coefficients it sums as one tuple, a suffix of the
longest, so a call sums a stored tuple and copies nothing.  The entries
depend on the order and the index alone.
"""

from __future__ import annotations

import bisect
import cmath
import collections
import math
from typing import Dict, List, Optional, Tuple

from .errors import ConvergenceError, InvalidArgumentError

# Hard cap on any series evaluated here; exceeding it raises rather than
# silently truncating.
MAX_TERMS = 10_000

# Relative truncation of hyp1f1_scaled's series.
SERIES_REL_TOL = 1e-12

# Crossover between the ascending power series (or, for J_0 and J_1 from
# x = 2, the polynomial pieces) and the large-x branches (the J_0/J_1 fit
# with the forward recurrence, or Miller's backward recurrence).  The
# series loses ~x/2.3 decimal digits to cancellation at low order, so the
# crossover sits at 8 rather than higher: at x = 8 the largest series term
# is ~4e2, keeping the absolute error near 4e-14.
# The fit holds from x = 8 (t = 64/x^2 = 1) on.
_SERIES_X_MAX = 8.0

# bessel_j_run's Miller pass takes ~x/2 steps; beyond this x its run is
# scalar bessel_j calls (the fit and the forward recurrence for orders up
# to x).  Miller stays within ~1e-15 absolute up to x = 3000.
_RUN_X_MAX = 2000.0

# The largest m whose 1/m! is a normal float (1/171! is subnormal).
_FACT_MAX = 170


class SeriesResult(collections.namedtuple(
        "SeriesResult", "value terms_used truncation_estimate")):
    """Value of a truncated series plus bookkeeping.

    ``truncation_estimate`` is an absolute estimate of the error: the
    dropped tail, from the first omitted term (see each producer).
    """

    __slots__ = ()

    def __new__(cls, value: complex, terms_used: int,
                truncation_estimate: float):
        if terms_used < 1:
            raise InvalidArgumentError("terms_used must be >= 1")
        if not (truncation_estimate >= 0.0):
            raise InvalidArgumentError("truncation_estimate must be >= 0")
        v = complex(value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise InvalidArgumentError("series value is not finite")
        return tuple.__new__(cls, (value, terms_used, truncation_estimate))


def _require_integer(name: str, value, least: int):
    # np.int64 passes, as int does; a float, even 2.0, does not.  The class
    # test spares an int the hasattr.
    if ((value.__class__ is not int and not hasattr(value, "__index__"))
            or value < least):
        raise InvalidArgumentError(
            f"{name} must be an integer >= {least}, got {value!r}")


# The ascending series J_m(x) = (x/2)^m / m! * S, S = sum_t c_t h^t with
# h = (x/2)^2 and c_t = (-1)^t m! / (t! (m+t)!).  Keeping N terms drops
# the alternating tail from c_N h^N on.  Its first term is at most
# _SERIES_TAIL for h <= L_N = (_SERIES_TAIL / |c_N|)^(1/N).  As
# 1/|c_N| = N! (m+N)! / m! <= N^N (m+N)^N and _SERIES_TAIL < 1,
# L_N < N (m+N), so at those h the terms fall from c_N on (their ratio is
# h / ((t+1)(m+t+1))) and the whole tail is below its first term.
# _SERIES_TAIL = 2^-56 keeps it under the rounding S already carries:
#   - where x^2 < 4(m+1) the terms fall from c_0 = 1, so S lies above 1/8
#     (its least there is 0.224, J_0(2) at m = 0), and its last step,
#     adding c_0, rounds to half an ulp of S, at least 2^-56;
#   - at x < 8 the terms cancel: S's partial sums reach its largest term,
#     at least c_0 = 1, and carry their rounding, at least 2^-53 absolute
#     (the largest term reaches ~1e2 at x = 8, hence the ~4e-14 there).
_SERIES_TAIL = 2.0 ** -56

# Per order m >= 0: (L_1, L_2, ...), the largest h for each term count
# (increasing); per term count N, the coefficients it sums, highest first,
# (c_{N-1}, ..., c_1, c_0): each a suffix of the longest, so the sum reads
# its tuple whole and copies no slice a call; and 1/m!, correctly rounded
# from the exact integer, for m <= _FACT_MAX (None above, where the
# prefactor is taken in log space).  Filled by _series_row up to the count
# whose L_N reaches max(16, m + 1), the largest h the series branch takes.
_SERIES_ROWS: Dict[int, Tuple[List[float], List[Tuple[float, ...]],
                              Optional[float]]] = {}


def _series_row(order: int) -> Tuple[List[float], List[Tuple[float, ...]],
                                     Optional[float]]:
    top = max(16.0, order + 1.0)
    coeffs = [1.0]
    limits = []
    denom = 1  # N! (m+N)! / m!, exact, so each c_N is correctly rounded
    t = 0
    while not limits or limits[-1] < top:
        t += 1
        denom *= t * (order + t)
        c = 1 / denom
        limits.append((_SERIES_TAIL / c) ** (1.0 / t) if c else math.inf)
        coeffs.append(-c if t % 2 else c)
    coeffs.pop()  # c_N of the last count is dropped, not summed
    sums = [tuple(coeffs[n - 1::-1]) for n in range(1, len(coeffs) + 1)]
    inv_fact = 1 / math.factorial(order) if order <= _FACT_MAX else None
    row = (limits, sums, inv_fact)
    _SERIES_ROWS[order] = row
    return row


def _bessel_j_series(order: int, x: float) -> float:
    # The term count is read from the row before the loop, so the loop is
    # Horner's rule alone, with no division, abs() or convergence test.
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    limits, sums, inv_fact = _SERIES_ROWS.get(order) or _series_row(order)
    half = 0.5 * x
    if inv_fact is not None:
        # (x/2)^m / m! to a few ulps (a log-space exp loses ~1e-13 at
        # m ~ 170).  The branch takes half < max(4, sqrt(m + 1)), so the
        # power cannot overflow; where it underflows, so does J_m.
        t0 = half ** order * inv_fact
    else:
        # In log space, which neither overflows nor underflows.
        log_t0 = order * math.log(half) - math.lgamma(order + 1)
        if log_t0 < -745.0:  # underflows to zero anyway
            return 0.0
        t0 = math.exp(log_t0)
    h2 = half * half
    total = 0.0
    for c in sums[bisect.bisect_left(limits, h2)]:
        total = total * h2 + c
    return t0 * total


def _miller_start(top: int, x: float) -> int:
    start = math.ceil(max(top, x) + 10.0 * x ** (1.0 / 3.0) + 8.0)
    return start + start % 2


def _miller_pass(order: int, n: int, x: float,
                 start: int) -> Tuple[List[float], float]:
    # [J_order(x), ..., J_{order+n-1}(x)] times a common factor, and that
    # factor, by the backward recurrence
    # J_{k-1} = (2k/x) J_k - J_{k+1} from an arbitrary start, normalized by
    # the closure sum J_0 + 2*sum J_{2k} = 1.  The start's error decays only
    # above the turning point max(order + n - 1, x), across a transition
    # layer ~x^(1/3) wide, so the margin is counted in that unit: with
    # 10 x^(1/3) + 8 what remains is the rounding of the ~x steps (at most
    # ~1e-15 up to x = 3000; a fixed margin of 30 loses 2e-4 there).  The
    # caller passes start = _miller_start(order + n - 1, x), which
    # bessel_j_run's overflow guard reads too.  Each pass takes an odd then
    # an even index.  The coefficient 2k/x is formed
    # at each step: k times a hoisted 2/x loses 3e-15 at x ~ 2000.
    # The pass at even k sets J_{k-1} (index k - 1 - order of the run) and
    # J_{k-2}, so the even k in [order + 1, order + n + 1] keep values;
    # k_keep is the next of them, -1 once the run is complete.
    lo = order + 1
    k_keep = order + n + 1
    k_keep -= k_keep % 2
    out = [0.0] * n
    odd = 0.0
    even = 1e-300
    closure = 0.0
    for k in range(start, 0, -2):
        odd = (2.0 * k / x) * even - odd
        even = (2.0 * (k - 1) / x) * odd - even
        closure += even
        if k == k_keep:
            i = k - lo
            if i < n:
                out[i] = odd
            if i > 0:
                out[i - 1] = even
            k_keep = k - 2 if k - 2 >= lo else -1
        # Two compares cost less than an abs() call a step.
        if even > 1e250 or even < -1e250:
            odd *= 1e-250
            even *= 1e-250
            closure *= 1e-250
            out = [v * 1e-250 for v in out]
    # closure holds J_0 + sum_{k>=1} J_{2k}; the sum counts twice.
    return out, 2.0 * closure - even


def _bessel_j_miller(order: int, x: float) -> float:
    out, norm = _miller_pass(order, 1, x, _miller_start(order, x))
    return out[0] / norm


def bessel_j_run(order: int, n: int, x: float) -> List[float]:
    """[J_order(x), J_{order+1}(x), ..., J_{order+n-1}(x)] for integers
    order >= 0 and n >= 1, x >= 0.

    One Miller backward pass, the one of bessel_j's Miller branch, started
    above the run's top order, max(order + n - 1, x) + 10 x^(1/3) + 8, and
    keeping every order of the run on the way down; the values already
    kept are rescaled with the pass.  Exact at x = 0.  Beyond
    x = _RUN_X_MAX the pass would take ~x/2 steps, and at an x so small
    that one pass step could overflow it cannot start; there the run is
    n bessel_j calls.
    """
    _require_integer("order", order, 0)
    _require_integer("n", n, 1)
    if not math.isfinite(x) or x < 0.0:
        raise InvalidArgumentError(f"x must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return [1.0 if order + i == 0 else 0.0 for i in range(n)]
    # A pass multiplies |even| by up to (2 start / x)^2 between rescales,
    # which must stay under 1e58 to keep 1e250 from overflowing.
    start = _miller_start(order + n - 1, x)
    if x > _RUN_X_MAX or 2.0 * start > 1e28 * x:
        return [bessel_j(order + i, x) for i in range(n)]
    out, norm = _miller_pass(order, n, x, start)
    return [v / norm for v in out]


# Per order m >= 0, the ratios a_k = (4m^2 - (2k-1)^2) / (8k), k = 1, 2, ...,
# of Hankel's expansion (A&S 9.2.5-9.2.10), filled by hankel_ratios.
_HANKEL_RATIOS: Dict[int, List[float]] = {}


def hankel_ratios(order: int, n: int) -> List[float]:
    """The memoized ratios a_1, a_2, ... of order |order|, at least n of
    them: a_k = (4 order^2 - (2k-1)^2) / (8k), so that the k-th term of
    Hankel's expansion of J_order(x) or H_order(x) is the (k-1)-th times
    a_k / x.  The returned list is the memo itself; do not modify it."""
    ratios = _HANKEL_RATIOS.setdefault(abs(order), [])
    mu = 4.0 * order * order
    for k in range(len(ratios) + 1, n + 1):
        ratios.append((mu - (2 * k - 1) ** 2) / (8.0 * k))
    return ratios


# For x >= 8, H_n^(1)(x) = sqrt(2/(pi x)) (P_n + i Q_n) e^{i chi_n},
# chi_n = x - (2n+1) pi/4.  Rows of the degree-12 polynomials in
# t = 64/x^2 on [0, 1], highest degree first: (P_0, q_0, P_1, q_1), with
# q_n = (x/8) Q_n.  Fitted by mpmath.chebyfit at 40 digits, each within
# ~5e-18 of the function; tools/fit_bessel_j01.py rebuilds the table and,
# with --check, compares it with this one.
_J01_FIT = (
    (1.3219700423350835e-10, -1.3477937580357612e-10,
     -1.4038395089577798e-10, 1.4280722112309597e-10),
    (-1.0029066979633945e-09, 1.011031238186147e-09,
     1.0657770307911482e-09, -1.071914270433146e-09),
    (3.589369421372812e-09, -3.555524278992273e-09,
     -3.818735305533677e-09, 3.773309315230924e-09),
    (-8.31251965044764e-09, 8.000995612956512e-09,
     8.860855361799285e-09, -8.504914198988601e-09),
    (1.4845549354895297e-08, -1.3609419519258223e-08,
     -1.5879522872690333e-08, 1.4507979244604333e-08),
    (-2.4185615179408813e-08, 2.0428537127580895e-08,
     2.6030250382020736e-08, -2.1888377038312212e-08),
    (4.339314718568921e-08, -3.228985891642277e-08,
     -4.719167778074151e-08, 3.489697880824557e-08),
    (-1.0229475399421496e-07, 6.399781418673288e-08,
     1.1307073738668152e-07, -7.010042468690825e-08),
    (3.620184781129259e-07, -1.8162398074592788e-07,
     -4.102893385438351e-07, 2.0299308556246271e-07),
    (-2.183917728558513e-06, 8.238425985656106e-07,
     2.5809939131965017e-06, -9.5058781859599e-07),
    (2.738088361130017e-05, -6.9307860941428686e-06,
     -3.520399323335166e-05, 8.470960796899506e-06),
    (-0.0010986328124985556, 0.00014305114745934768,
     0.001831054687498473, -0.00020027160644363478),
    (1.0, -0.015624999999999995,
     1.0, 0.04687499999999999),
)


# The table's columns, each highest degree first.
_FIT_P0, _FIT_Q0, _FIT_P1, _FIT_Q1 = zip(*_J01_FIT)


def _bessel_j_fit(order: int, x: float) -> float:
    # J_0 and J_1 from the fit, then J_{k+1} = (2k/x) J_k - J_{k-1} up to
    # order <= x, where the recurrence is stable.  The coefficient 2k/x is
    # formed at each step, as in the Miller pass.  cos and sin of
    # chi_n expand into those of x (cos/sin of (2n+1) pi/4 are +-1/sqrt(2)),
    # which keeps x unrounded: x - phase would lose ~x 1e-16.  Each column
    # is Horner's rule written out: a loop over the table's rows costs
    # more a call, for the same bits.  Order 0 needs only P_0 and q_0.
    t = 64.0 / (x * x)
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = _FIT_P0
    p0 = ((((((((((((c0 * t + c1) * t + c2) * t + c3) * t + c4) * t + c5)
                * t + c6) * t + c7) * t + c8) * t + c9) * t + c10) * t + c11)
          * t + c12)
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = _FIT_Q0
    q0 = ((((((((((((c0 * t + c1) * t + c2) * t + c3) * t + c4) * t + c5)
                * t + c6) * t + c7) * t + c8) * t + c9) * t + c10) * t + c11)
          * t + c12)
    cos_x = math.cos(x)
    sin_x = math.sin(x)
    r = 8.0 / x
    scale = math.sqrt(math.pi * x)
    j0 = (p0 * (cos_x + sin_x) - r * q0 * (sin_x - cos_x)) / scale
    if order == 0:
        return j0
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = _FIT_P1
    p1 = ((((((((((((c0 * t + c1) * t + c2) * t + c3) * t + c4) * t + c5)
                * t + c6) * t + c7) * t + c8) * t + c9) * t + c10) * t + c11)
          * t + c12)
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = _FIT_Q1
    q1 = ((((((((((((c0 * t + c1) * t + c2) * t + c3) * t + c4) * t + c5)
                * t + c6) * t + c7) * t + c8) * t + c9) * t + c10) * t + c11)
          * t + c12)
    j1 = (p1 * (sin_x - cos_x) + r * q1 * (sin_x + cos_x)) / scale
    for k in range(1, order):
        j0, j1 = j1, (2.0 * k / x) * j1 - j0
    return j1


# For 2 <= x < 8, J_0 and J_1 on the pieces [2, 4), [4, 6) and [6, 8), each
# a degree-14 polynomial in u = x - c on [-1, 1], c = 3, 5, 7.  Rows of one
# degree, highest first: (J_0, J_1) at c = 3, then at 5, then at 7.  Fitted
# by mpmath.chebyfit at 40 digits, each within 9.1e-18 of the function;
# tools/fit_bessel_j01.py rebuilds this table too.  Below x = 2 the series
# stays: its terms fall from the first there, so it keeps relative digits
# near 0, which a fit does not (one from 0 gave J_1(1e-8) 5e-9 off).
_J01_MID_FIT = (
    (2.2806012210242385e-12, -5.251558187805116e-13,
     -2.9473004594794765e-13, 2.22149198790266e-12,
     -1.9884326917613213e-12, -1.0757375884611599e-12),
    (-8.262167031146628e-12, -3.186125293549988e-11,
     3.315015219195541e-11, 4.116333853926274e-12,
     -1.5177999748494732e-11, 2.777999826202868e-11),
    (-4.507625831107302e-10, 1.0911514612868576e-10,
     4.800218033490853e-11, -4.381727915078021e-10,
     3.9650467361728056e-10, 2.008106310588391e-10),
    (1.5072115153171936e-09, 5.408949491835083e-09,
     -5.663361994639403e-09, -5.759965015477189e-10,
     2.4051223569033863e-09, -4.757881893975826e-09),
    (6.432338098867778e-08, -1.6581493536638193e-08,
     -4.885717062571271e-09, 6.230614824679297e-08,
     -5.7071444079138035e-08, -2.646078468328331e-08),
    (-1.968446060853497e-07, -6.432335789774369e-07,
     6.781096621183096e-07, 4.885713663461611e-08,
     -2.5797893098118467e-07, 5.707142411842042e-07),
    (-6.339252735902997e-06, 1.7716028092995793e-06,
     2.1333006566399454e-07, -6.102992689060589e-06,
     5.660746153281901e-06, 2.3218131535869834e-06),
    (1.7594860214649042e-05, 5.071402176126188e-05,
     -5.379500918192993e-05, -1.7066405067694935e-06,
     1.722612595797642e-05, -4.528596911736867e-05),
    (0.00039544606278280715, -0.00012316402193362176,
     1.1202214685360808e-05, 0.0003765650660970928,
     -0.0003528491002345345, -0.00012058288258891549),
    (-0.0009834918796017143, -0.002372676376663774,
     0.0025202119701862686, -6.721328811703284e-05,
     -0.0005931489738820095, 0.0021170946013786213),
    (-0.013502535016274445, 0.00491745939807325,
     -0.0017073875968509598, -0.012601059851204953,
     0.011790129357102835, 0.002965744869542547),
    (0.02950475638843871, 0.05401014006509411,
     -0.05614869347449754, 0.00682955038740438,
     0.006396129897843241, -0.04716051742840816),
    (0.18653580387195612, -0.08851426916531971,
     0.05604047189802263, 0.16844608042350784,
     -0.15037412265137393, -0.01918838969353709),
    (-0.3390589585259364, -0.3730716077439121,
     0.32757913759146506, -0.11208094379604527,
     0.0046828234823458985, 0.30074824530274774),
    (-0.26005195490193345, 0.3390589585259365,
     -0.1775967713143383, -0.32757913759146523,
     0.3000792705195556, -0.004682823482345833),
)


# Its columns by order, then by int(x) - 2, each highest degree first: the
# piece [2p + 2, 2p + 4) serves int(x) - 2 = 2p and 2p + 1.
_MID_COLUMNS = tuple(
    tuple(columns[2 * (i // 2) + order] for i in range(6))
    for columns in [tuple(zip(*_J01_MID_FIT))] for order in (0, 1))

# The least x the table serves.
_MID_X_MIN = 2.0


def _bessel_j_mid(order: int, x: float) -> float:
    # J_order(x), order 0 or 1, 2 <= x < 8, from its piece's column by
    # Horner's rule written out, as _bessel_j_fit's.  x - c is exact
    # (Sterbenz: c/2 <= x <= 2c), and int(x) | 1 is the centre c.
    i = int(x)
    u = x - (i | 1)
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14 = (
        _MID_COLUMNS[order][i - 2])
    return ((((((((((((((c0 * u + c1) * u + c2) * u + c3) * u + c4) * u
                      + c5) * u + c6) * u + c7) * u + c8) * u + c9) * u
                 + c10) * u + c11) * u + c12) * u + c13) * u + c14)


def bessel_j(order: int, x: float) -> float:
    """Cylindrical Bessel function J_order(x) for every integer order, x >= 0.

    Four branches, chosen from (order, x) alone: for orders 0 and 1 at
    2 <= x < 8, a degree-14 polynomial piece in x - c, c = 3, 5, 7; the
    ascending series for other x < 8 or x^2 < 4(order+1); for x >= 8 and
    order <= x, J_0 and J_1 from fitted modulus-phase polynomials in
    64/x^2, then the forward recurrence up to the order (O(order) steps,
    never O(x)); else, for x < order <= x^2/4 - 1, Miller's backward
    recurrence.  Absolute errors, as the tests pin them: the pieces within
    3e-16; the series within ~4e-14 up to x = 8 (its terms cancel; far
    less at small x) and within 1e-15 relative where its terms fall and
    order <= 170, J_0 and J_1 below x = 2 included; the fit within 3e-16
    at orders 0..12 and 1e-15 at every order <= x up to x = 3000; Miller
    within ~1.5e-15 up to x = 3000.  Near a zero no double-precision value
    keeps its relative digits.  A negative order is J_{-m} = (-1)^m J_m: a
    sign on the one evaluation.  A non-integral order (a float, even 2.0)
    raises InvalidArgumentError.
    """
    # The class test spares an int the hasattr: ~0.02 us a call, not ~0.06.
    # An np.int64 order becomes an int: it would make a series row's exact
    # denominator an np.int64, which wraps past 2^63 (at N ~ 12 for m = 5),
    # and the series' power and the value returned numpy scalars.
    if order.__class__ is not int:
        if not hasattr(order, "__index__"):
            raise InvalidArgumentError(
                f"order must be an integer, got {order!r}")
        order = order.__index__()
    if not math.isfinite(x) or x < 0.0:
        raise InvalidArgumentError(f"x must be finite and >= 0, got {x!r}")
    sign = -1.0 if order < 0 and order % 2 else 1.0
    order = abs(order)
    # The ascending series is cancellation-free while its terms decrease
    # from the start, i.e. (x/2)^2 < order + 1; beyond that it is kept
    # only up to the fixed crossover where the digit loss stays small.
    if x < _SERIES_X_MAX:
        if order < 2 and x >= _MID_X_MIN:
            return sign * _bessel_j_mid(order, x)
        return sign * _bessel_j_series(order, x)
    if x * x < 4.0 * (order + 1.0):
        return sign * _bessel_j_series(order, x)
    if order <= x:
        return sign * _bessel_j_fit(order, x)
    return sign * _bessel_j_miller(order, x)


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^alpha(x), three-term recurrence."""
    _require_integer("n", n, 0)
    if not (math.isfinite(alpha) and math.isfinite(x)):
        raise InvalidArgumentError("alpha and x must be finite")
    return _laguerre(n, alpha, x)


def _laguerre(n: int, alpha: float, x: float) -> float:  # laguerre, unchecked
    if n == 0:
        return 1.0
    lm, lc = 1.0, 1.0 + alpha - x
    for k in range(1, n):
        lm, lc = lc, ((2 * k + 1 + alpha - x) * lc - (k + alpha) * lm) / (k + 1)
    return lc


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); 1 for n = 0."""
    _require_integer("n", n, 0)
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def hyp1f1_scaled(a: float, b: float, x: float) -> SeriesResult:
    """e^{-x} 1F1(a; b; x) for a >= 0, b > 0 and x >= 0, by direct
    summation of positive terms.

    Each term is carried as log t_k - x, so past x ~ 709, where e^{-x}
    underflows and the terms of 1F1 overflow, their products stay finite.
    Terms are added until, past the largest one, a term is <=
    SERIES_REL_TOL of the partial sum.  Raises ConvergenceError (carrying
    the partial sum) past MAX_TERMS.

    The estimate bounds the dropped tail plus the rounding, to first order
    in u = 2^-53.  Past the stop a term ratio is at most the last for a >= 1
    (it falls with k), below x / (b + k + 1) for a < 1, and 0 for a = 0.
    ``drift``, log_t's absolute error over u, gains per step 5 (ratio's five
    roundings), 2|log ratio| (log, under one ulp) and |log_t| (the sum); a
    term is then off by (drift + 2) u relative (exp), and the k + 1 terms'
    sum adds k u of the total.
    """
    if not (0.0 <= a < math.inf and 0.0 < b < math.inf
            and 0.0 <= x < math.inf):
        raise InvalidArgumentError("need finite a >= 0, b > 0 and x >= 0")
    log_t = -x
    total = math.exp(log_t)
    drift = 0.0
    for k in range(MAX_TERMS):
        ratio = (a + k) * x / ((b + k) * (k + 1))
        nxt = 0.0
        if ratio != 0.0:
            step = math.log(ratio)
            log_t += step
            drift += 5.0 + 2.0 * abs(step) + abs(log_t)
            nxt = math.exp(log_t)
        if ratio < 1.0 and nxt <= SERIES_REL_TOL * total:
            rho = ratio if a >= 1.0 or a == 0.0 else x / (b + k + 1)
            tail = nxt / (1.0 - rho) if rho < 1.0 else math.inf
            rounding = (drift + 2.0 + k) * 2.0 ** -53 * total
            return SeriesResult(value=total, terms_used=k + 1,
                                truncation_estimate=tail + rounding)
        total += nxt
    raise ConvergenceError("hyp1f1_scaled exceeded the term cap", partial=total)


def expint_e(p: float, z: complex) -> complex:
    """Generalized exponential integral E_p(z) = int_1^inf e^{-z t} t^{-p} dt
    (analytically continued, principal branch) for half-integer p > 0.

    z = 0: 1/(p-1) for p > 1; InvalidArgumentError for p < 1, where the
    integral diverges.  |z| < 2: DLMF 8.19.10,
    Gamma(1-p) z^{p-1} - sum_k (-z)^k / (k! (1-p+k)).  Otherwise the
    continued fraction of Numerical Recipes 6.3 by modified Lentz.  Both
    stop at a 1e-16 relative step; ConvergenceError past MAX_TERMS.
    """
    if not (p > 0.0 and (2.0 * p) % 2.0 == 1.0):
        raise InvalidArgumentError(f"p must be a positive half-integer, got {p!r}")
    if z == 0:
        if p < 1.0:
            raise InvalidArgumentError(f"E_{p}(0) diverges")
        return complex(1.0 / (p - 1.0))
    if abs(z) < 2.0:
        total = 0j
        term = 1.0 + 0j
        for k in range(MAX_TERMS):
            if k:
                term *= -z / k
            add = term / (1.0 - p + k)
            total += add
            if k and abs(add) <= 1e-16 * abs(total):
                return math.gamma(1.0 - p) * z ** (p - 1.0) - total
    else:
        b = z + p
        c = 1e300
        d = 1.0 / b
        h = d
        for i in range(1, MAX_TERMS):
            an = -i * (p - 1.0 + i)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            step = c * d
            h *= step
            if abs(step - 1.0) <= 1e-16:
                return h * cmath.exp(-z)
    raise ConvergenceError("expint_e exceeded the term cap")


def expint_e_ladder(p0: float, n: int, z: complex) -> List[complex]:
    """[E_p0(z), E_{p0+1}(z), ..., E_{p0+n-1}(z)] for half-integer p0 > 0.

    One direct expint_e at the rung p nearest |z|, then the recurrence
    p E_{p+1}(z) + z E_p(z) = e^{-z} (DLMF 8.19.12): downward below that
    rung, E_p = (e^{-z} - p E_{p+1}) / z, and upward above it, E_{p+1} =
    (e^{-z} - z E_p) / p.  An error is multiplied by p / |z| a step going
    down and by |z| / p going up, so by at most ~1 either way.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n!r}")
    r = min(n - 1, max(0, round(abs(z) - p0)))
    out = [0j] * n
    out[r] = expint_e(p0 + r, z)
    ez = cmath.exp(-z)
    for i in range(r - 1, -1, -1):
        out[i] = (ez - (p0 + i) * out[i + 1]) / z
    for i in range(r + 1, n):
        out[i] = (ez - z * out[i - 1]) / (p0 + i - 1)
    return out


def gegenbauer_run(l: int, n: int, delta_phi: float) -> List[float]:
    """[C_0^l(t), C_1^l(t), ..., C_{n-1}^l(t)], t = cos delta_phi, by the
    three-term recurrence v C_v^l = 2 t (v + l - 1) C_{v-1}^l
    - (v + 2l - 2) C_{v-2}^l (DLMF 18.9.1, Table 18.9.1), O(n) in all."""
    if l < 1:
        raise InvalidArgumentError("l must be >= 1")
    _require_integer("n", n, 1)
    t2 = 2.0 * math.cos(delta_phi)
    out = [1.0, t2 * l]
    for v in range(2, n):
        out.append((t2 * (v + l - 1) * out[-1] - (v + 2 * l - 2) * out[-2]) / v)
    return out[:n]
