"""Independent numerical oracles.

One Gauss-Kronrod rule, G10/K21, for every panel: integrate_finite on
finite intervals; semi-infinite oscillatory Bessel-product integrals by
integrate_bessel_semiinfinite, a finite body plus a caller's closed-form
tail from caller-chosen cut-offs (ConvergenceError on a miss); and
Richardson-extrapolated finite-difference operators used to verify the
closed-form fields.
"""

from __future__ import annotations

import collections
import math
from typing import Callable, Tuple

from .errors import ConvergenceError, InvalidArgumentError

# Absolute tolerances of integrate_finite and integrate_bessel_semiinfinite:
# each binds what its caller returns, any weight folded into the integrand.
FINITE_TOL = 1e-12
SEMIINFINITE_TOL = 1e-9

# integrate_finite evaluations; the farthest cut-off of body plus tail,
# in half-periods pi/scale of the fastest oscillation.
_FINITE_MAX_EVALS = 200_000
_MAX_HALF_PERIODS = 1152

# Floor of the body-plus-tail error estimate, relative to the summed
# magnitudes of its cells and tail: the rounding of that sum and the
# tail's truncation scale with them, not with the value, which cancels to
# ~0 outside the momentum cone.  Against Graf's closed form at 3000
# random Graf triples with orders up to |10|, the error stayed below 0.41
# of the estimate (1e-13 let it reach 1.5x).
_TAIL_REL_FLOOR = 1e-12

# G10/K21 on [-1, 1] (QUADPACK qk21, Piessens et al. 1983), the one rule
# every panel applies, as (nodes, Kronrod weights, Gauss weights): the
# positive nodes, largest first, then the centre; the Gauss rule takes
# every second node from the second (G10 has no centre node: weight 0).
_GK21 = (
    (0.995657163025808080735527280689003,
     0.973906528517171720077964012084452,
     0.930157491355708226001207180059508,
     0.865063366688984510732096688423493,
     0.780817726586416897063717578345042,
     0.679409568299024406234327365114874,
     0.562757134668604683339000099272694,
     0.433395394129247190799265943165784,
     0.294392862701460198131126603103866,
     0.148874338981631210884826001129720,
     0.0),
    (0.011694638867371874278064396062192,
     0.032558162307964727478818972459390,
     0.054755896574351996031381300244580,
     0.075039674810919952767043140916190,
     0.093125454583697605535065465083366,
     0.109387158802297641899210590325805,
     0.123491976262065851077958109831074,
     0.134709217311473325928054001771707,
     0.142775938577060080797094273138717,
     0.147739104901338491374841515972068,
     0.149445554002916905664936468389821),
    (0.066671344308688137593568809893332,
     0.149451349150580593145776339657697,
     0.219086362515982043995534934228163,
     0.269266719309996355091226921569469,
     0.295524224714752870173892994651338,
     0.0),
)
_GK_NODES = 2 * len(_GK21[0]) - 1


class QuadResult(collections.namedtuple(
        "QuadResult", "value abs_error_estimate evaluations converged")):
    __slots__ = ()

    def __new__(cls, value: float, abs_error_estimate: float,
                evaluations: int, converged: bool):
        if not (abs_error_estimate >= 0.0):
            raise InvalidArgumentError("abs_error_estimate must be >= 0")
        return tuple.__new__(
            cls, (value, abs_error_estimate, evaluations, converged))

    def scaled(self, factor: float) -> "QuadResult":
        """This result times factor, value and estimate alike."""
        return QuadResult(factor * self.value,
                          abs(factor) * self.abs_error_estimate,
                          self.evaluations, self.converged)


def _gauss_kronrod(f, a, b):
    """One G10/K21 panel; returns (kronrod, error_estimate)."""
    xgk, wgk, wg = _GK21
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = wgk[-1] * fc
    gauss = wg[-1] * fc
    for i in range(len(xgk) - 1):
        x = h * xgk[i]
        fsum = f(c - x) + f(c + x)
        kron += wgk[i] * fsum
        if i % 2 == 1:
            gauss += wg[i // 2] * fsum
    kron *= h
    gauss *= h
    err = abs(kron - gauss)
    # QUADPACK's sharpening (200 err / resasc)^1.5 with resasc, the
    # integrand's spread over the panel, fixed at 1: on integrands much
    # smaller than 1 it under-reports the error.
    if err != 0.0:
        err = min(err, (200.0 * err) ** 1.5) if err < 1.0 else err
    return kron, err


def integrate_finite(f: Callable[[float], float], a: float, b: float,
                     cells: int = 1) -> QuadResult:
    """Adaptive bisection on full-precision G10/K21 panels (QUADPACK
    qk21), from ``cells`` equal ones: the panel with the largest estimate
    is halved until the summed estimates are <= FINITE_TOL (absolute),
    21 (cells + 2 j) evaluations after j halvings.  ConvergenceError (the
    partial QuadResult) past _FINITE_MAX_EVALS, before any evaluation if
    the cells alone would pass it."""
    if not (a < b and cells >= 1):
        raise InvalidArgumentError("need a < b and cells >= 1")
    if _GK_NODES * cells > _FINITE_MAX_EVALS:
        raise ConvergenceError(
            f"integrate_finite: {cells} cells exceed {_FINITE_MAX_EVALS} "
            "evaluations", partial=QuadResult(math.nan, math.inf, 0, False))
    def panels(edges):  # (estimate, lo, hi, value) of each cell
        return [(e, lo, hi, v) for lo, hi in zip(edges, edges[1:])
                for v, e in [_gauss_kronrod(f, lo, hi)]]

    intervals = panels([a + (b - a) * j / cells for j in range(cells + 1)])
    evals = _GK_NODES * cells
    while ((total_err := sum(it[0] for it in intervals)) > FINITE_TOL
           and evals < _FINITE_MAX_EVALS):
        intervals.sort(key=lambda it: it[0])
        _, wa, wb, _ = intervals.pop()
        intervals += panels([wa, 0.5 * (wa + wb), wb])
        evals += 2 * _GK_NODES
    total = sum(it[3] for it in intervals)
    if total_err > FINITE_TOL:
        raise ConvergenceError(
            f"integrate_finite exceeded {_FINITE_MAX_EVALS} evaluations "
            f"(err={total_err:.3e} > tol={FINITE_TOL:.3e})",
            partial=QuadResult(total, total_err, evals, False))
    return QuadResult(total, total_err, evals, True)


def integrate_bessel_semiinfinite(f: Callable[[float], float],
                                  oscillation_scale: float,
                                  cuts: Tuple[float, float],
                                  tail: Callable[[float], float]) -> QuadResult:
    """Semi-infinite integral of an oscillatory Bessel-type integrand as a
    finite body plus its closed-form tail.

    ``oscillation_scale`` is the largest wavenumber present (the slowest
    zero spacing is pi/scale).  ``tail(x0)`` is the closed-form integral
    of f from x0 to infinity, valid from the cut-off x_a of ``cuts =
    (x_a, x_b)`` on (the caller owns the expansion behind it, so it knows
    where it holds).

    Cells three half-periods wide (3 pi/scale), one G10/K21 panel each,
    run up to the cut-offs x_a < x_b, and the tail is added at each.  The
    estimate is |v(x_a) - v(x_b)| + the summed cell estimates + a floor
    relative to the summed magnitudes of the cells and the tail; v(x_b) is
    returned.

    At least one cell lies between the cut-offs: with none, the gap would
    be 0 whatever the tail.  ConvergenceError (the partial QuadResult,
    value nan until the body is integrated) before any cell when x_b lies
    beyond _MAX_HALF_PERIODS half-periods, after only the cells between the
    cut-offs when those alone miss SEMIINFINITE_TOL (the tail does not hold
    at x_a), and after the body when the whole estimate does."""
    if oscillation_scale <= 0.0:
        raise InvalidArgumentError("oscillation_scale must be > 0")
    width = 3.0 * math.pi / oscillation_scale
    n_a, n_b = (math.ceil(cut / width) for cut in cuts)
    n_b = max(n_b, n_a + 1)
    if 3 * n_b > _MAX_HALF_PERIODS:
        raise ConvergenceError(
            f"body plus tail: cut-off x = {cuts[1]:.3e} lies beyond "
            f"{_MAX_HALF_PERIODS} half-periods",
            partial=QuadResult(math.nan, math.inf, 0, False))
    # v(x_a) - v(x_b) = T(x_a) - T(x_b) - int_{x_a}^{x_b} f.
    shell = err = mass = 0.0
    for j in range(n_a, n_b):
        v, e = _gauss_kronrod(f, j * width, (j + 1) * width)
        shell += v
        err += e
        mass += abs(v)
    t_b = tail(n_b * width)
    gap = abs(tail(n_a * width) - t_b - shell)
    if gap + err > SEMIINFINITE_TOL:
        raise ConvergenceError(
            f"body plus tail: the cut-offs disagree by {gap + err:.3e} > "
            f"tol {SEMIINFINITE_TOL:.3e}",
            partial=QuadResult(math.nan, gap + err, _GK_NODES * (n_b - n_a), False))
    body = 0.0
    for j in range(n_a):
        v, e = _gauss_kronrod(f, j * width, (j + 1) * width)
        body += v
        err += e
        mass += abs(v)
    value = body + shell + t_b
    est = gap + err + _TAIL_REL_FLOOR * (mass + abs(t_b))
    if est > SEMIINFINITE_TOL:
        raise ConvergenceError(
            f"body plus tail: estimate {est:.3e} > tol {SEMIINFINITE_TOL:.3e}",
            partial=QuadResult(value, est, _GK_NODES * n_b, False))
    return QuadResult(value, est, _GK_NODES * n_b, True)


# ---------------------------------------------------------------------------
# Finite-difference operators on Cartesian stencils.
# ---------------------------------------------------------------------------

def _stencil(field, p, axis, h):
    """F at p shifted along axis by h, -h, 2h, -2h (4 field calls)."""
    return [field(*(c + step if i == axis else c for i, c in enumerate(p)))
            for step in (h, -h, 2.0 * h, -2.0 * h)]


def _richardson_first(field, p, axis, h):
    """d/d(axis) of every component of F at p: central differences at
    h and 2h, Richardson-combined."""
    fp, fm, fp2, fm2 = _stencil(field, p, axis, h)
    return [(4.0 * ((a - b) / (2.0 * h)) - (c - d) / (2.0 * (2.0 * h))) / 3.0
            for a, b, c, d in zip(fp, fm, fp2, fm2)]


def _richardson_second(field, p, f0, axis, h):
    """d^2/d(axis)^2 of every component of F at p, given f0 = F(p):
    second differences at h and 2h, Richardson-combined."""
    h2 = 2.0 * h
    fp, fm, fp2, fm2 = _stencil(field, p, axis, h)
    return [(4.0 * ((a - 2.0 * c0 + b) / (h * h))
             - (c - 2.0 * c0 + d) / (h2 * h2)) / 3.0
            for a, b, c, d, c0 in zip(fp, fm, fp2, fm2, f0)]


def fd_divergence(field, x, y, z, h):
    """div F at the Cartesian point (x, y, z); field returns (Fx, Fy, Fz).
    Richardson-combined central differences at h and 2h along each axis:
    12 field calls."""
    dx, dy, dz = (_richardson_first(field, (x, y, z), i, h) for i in range(3))
    return dx[0] + dy[1] + dz[2]


def fd_curl(field, x, y, z, h):
    """curl F at (x, y, z) as a 3-tuple, from the same stencil as
    fd_divergence: 12 field calls."""
    dx, dy, dz = (_richardson_first(field, (x, y, z), i, h) for i in range(3))
    return (dy[2] - dz[1], dz[0] - dx[2], dx[1] - dy[0])


def fd_laplacian(field, x, y, z, h):
    """Componentwise Laplacian of F at (x, y, z) as a 3-tuple.
    Richardson-combined second differences at h and 2h along each axis,
    sharing the centre value: 13 field calls."""
    p = (x, y, z)
    f0 = field(x, y, z)
    dxx, dyy, dzz = (_richardson_second(field, p, f0, i, h) for i in range(3))
    return tuple(a + b + c for a, b, c in zip(dxx, dyy, dzz))
