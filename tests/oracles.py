"""Reference evaluations of the deconvolution kernel, coded apart from the program.

``bandlimited_kernel_closed_form`` is the exact contaminated-direction kernel
(the deconvolution kernel of one error-free observation), and
``deconv_kernel`` sums the complex Fourier series of one observation's
kernel over all M quadrature nodes, the form the program reduces to a real
cosine sum over the nodes v >= 0.  ``stacked_kernel_grid`` is that cosine
sum as a product of operands stacked by ``np.hstack``/``np.vstack``.
``ratio_grid`` evaluates one estimator at one (h, b) pair from its kernel
matrices, and ``ase`` scores one such (X, T) slice against the truth: the
per-slice reference for the sweep's group scoring, raising
``AllPointsExcluded`` where the sweep records a status instead.
``whole_stack_ratio_grid`` is the stacked contraction with its numerator
operand formed for all h at once, the reference for the program's
budget-bounded runs of h.  Both sum their products over blocks of rows
when given a block size, in block order, as the program does.
``trapezoid_grid`` is the only grid with nodes at v = +-1.
``polynomial_cosine_kernel`` is the kernel of an error-free or a
homoscedastic Laplace ensemble in closed form, and
``longdouble_gauss_legendre`` the Gauss-Legendre rule in long double, both
the references of the kernel's budget against its exact value.
"""

from math import factorial

import numpy as np

from hetdeconv import DeconvWeights, HetdeconvError, QuadratureGrid, bandlimited_kernel_ft
from hetdeconv.estimators import floored_ratio

TWO_PI = 2.0 * np.pi

# Moments of the kernel transform: c_k = int_{-1}^{1} v^{2k} (1-v^2)^3 dv.
_SERIES_TERMS = 18
_SERIES_COEF = np.array(
    [
        (-1.0) ** k
        / factorial(2 * k)
        * 2.0
        * (1.0 / (2 * k + 1) - 3.0 / (2 * k + 3) + 3.0 / (2 * k + 5) - 1.0 / (2 * k + 7))
        for k in range(_SERIES_TERMS)
    ]
)


def bandlimited_kernel_closed_form(u):
    """Exact antiderivative evaluation of the contaminated-direction kernel.

    The sin/cos closed form cancels catastrophically near 0, so |u| < 2
    switches to the Taylor series of the integral.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.empty_like(u)

    small = np.abs(u) < 2.0
    if small.any():
        powers = np.power.outer(u[small] ** 2, np.arange(_SERIES_TERMS))
        out[small] = powers @ _SERIES_COEF / TWO_PI
    if (~small).any():
        x = u[~small]
        s, c = np.sin(x), np.cos(x)
        integral = (
            96.0 * c / x**4
            - 576.0 * s / x**5
            - 1440.0 * c / x**6
            + 1440.0 * s / x**7
        )
        out[~small] = integral / TWO_PI
    return float(out[0]) if scalar else out


_LD_PI = 4 * np.arctan(np.longdouble(1))


def polynomial_cosine_kernel(e, c):
    """(1/pi) int_0^1 q(v) cos(e v) dv, q(v) = (1 - v^2)^3 (1 + c v^2), in long double.

    That is K(e) - c K''(e) for the contaminated-direction kernel K, so it is
    K(e) at c = 0 and n L_j(e) for a homoscedastic Laplace ensemble of
    variance s at c = s / (2 b^2) (Fan 1991, Ann. Statist. 19, 1257-1272).
    For |e| < 2 it sums the Taylor series of cos against the exact moments
    int_0^1 q(v) v^(2k) dv; otherwise it integrates by parts, where the terms
    at v = 0 vanish (q is even) and so do q, q', q'' at v = 1:
    sum_{k=3}^{8} (-1)^k q^(k)(1) cos(e - (k+1) pi/2) / e^(k+1).  Returns the
    value and the sum of the |terms|, which scales its rounding error.
    """
    e, c = np.asarray(e, dtype=np.longdouble), np.longdouble(c)
    q = np.zeros(9, dtype=np.longdouble)
    q[0::2] = [1, c - 3, 3 - 3 * c, 3 * c - 1, -c]
    value, size = np.zeros_like(e), np.zeros_like(e)
    small = np.abs(e) < 2
    es = e[small]
    for k in range(_SERIES_TERMS + 2):
        moment = sum(q[i] / (2 * k + i + 1) for i in range(0, 9, 2))
        term = (-1) ** k * es ** (2 * k) / np.longdouble(factorial(2 * k)) * moment
        value[small] += term
        size[small] += np.abs(term)
    el = e[~small]
    trig = (np.cos(el), np.sin(el), -np.cos(el), -np.sin(el))   # cos(e - m pi/2), m mod 4
    poly = np.polynomial.polynomial
    for k in range(3, 9):
        derivative = poly.polyval(np.longdouble(1), poly.polyder(q, k))
        term = (-1) ** k * derivative * trig[(k + 1) % 4] / el ** (k + 1)
        value[~small] += term
        size[~small] += np.abs(term)
    return value / _LD_PI, size / _LD_PI


def longdouble_gauss_legendre(m):
    """The nodes and weights of the m-point Gauss-Legendre rule in long double, ascending.

    Newton's method on the three-term recurrence of P_m, started from the
    float64 nodes; weights 2 / ((1 - x^2) P_m'(x)^2), with 1 - x^2 formed as
    (1 - x)(1 + x), which does not cancel near the ends.
    """
    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, m * (p0 - x * p1) / ((1 - x) * (1 + x))

    x = np.polynomial.legendre.leggauss(m)[0].astype(np.longdouble)
    for _ in range(4):
        p, dp = legendre(x)
        x = x - p / dp
    dp = legendre(x)[1]
    return x, 2 / ((1 - x) * (1 + x) * dp * dp)


def trapezoid_grid(m: int = 129) -> QuadratureGrid:
    """The trapezoid rule on m equally spaced nodes of [-1, 1], endpoints included."""
    nodes = np.linspace(-1.0, 1.0, m)
    # Symmetrize as the program's Gauss-Legendre grid does; a no-op whenever
    # 2 / (m - 1) is exact.
    nodes = 0.5 * (nodes - nodes[::-1])
    h = 2.0 / (m - 1)
    weights = np.full(m, h)
    weights[0] = weights[-1] = h / 2.0
    return QuadratureGrid(nodes, weights)


def full_weights(weights: DeconvWeights) -> np.ndarray:
    """kernel_ft(v) cf_j(-v/b) / S(v/b) on all M nodes of ``weights.quad``, shape (n, M)."""
    quad = weights.quad
    cf = weights.ensemble.cf_matrix(quad.nodes / weights.bandwidth)
    denom = (np.abs(cf) ** 2).sum(axis=0)
    return bandlimited_kernel_ft(quad.nodes)[None, :] * (np.conj(cf) / denom)


def deconv_kernel(weights: DeconvWeights, j: int, arg: float) -> float:
    """Deconvolution kernel of observation j at arg = (t - W_j) / b, by the complex sum."""
    if not 0 <= j < weights.n:
        raise IndexError(f"observation index {j} outside 0..{weights.n - 1}")
    phases = np.exp(-1j * float(arg) * weights.quad.nodes)
    total = (weights.quad.weights * phases) @ full_weights(weights)[j] / TWO_PI
    return float(total.real)


def stacked_kernel_grid(weights: DeconvWeights, obs_args, eval_args) -> np.ndarray:
    """``deconv_kernel_grid`` as [c cos(v o), c sin(v o)] @ [cos(v e); sin(v e)], stacked."""
    coef, v = weights.values, weights.nodes
    obs_phase = np.outer(np.atleast_1d(obs_args), v)
    eval_phase = np.outer(v, np.atleast_1d(eval_args))
    left = np.hstack([coef * np.cos(obs_phase), coef * np.sin(obs_phase)])
    return left @ np.vstack([np.cos(eval_phase), np.sin(eval_phase)])


def block_sum(product, n, rows=None):
    """product(block) summed over the blocks of ``rows`` of the n observations, in block order.

    The first block's product is the total, to which each later one is
    added; rows=None makes one block of all n.
    """
    blocks = [slice(lo, lo + rows) for lo in range(0, n, rows)] if rows else [slice(None)]
    total = product(blocks[0])
    for block in blocks[1:]:
        total += product(block)
    return total


def ratio_grid(kx, kt, y, scale, floor, rows=None):
    """The ratio estimator on a tensor grid for one h: (values, flags, density).

    density = kx.T @ kt / scale and values = (kx * y).T @ kt / scale / density,
    with |density| <= floor ridge-floored.  kx (n, X) smooths the exact
    direction and kt (n, T) the contaminated one, each product summed over
    blocks of ``rows`` observations (``block_sum``); kx=None smooths the
    contaminated direction alone, in one block, and returns arrays of shape
    (T,).  The per-pair reference for the program's stacked contraction.
    """
    if kx is None:
        num = y @ kt / scale
        den = kt.sum(axis=0) / scale
    else:
        num = block_sum(lambda r: (kx[r] * y[r, None]).T @ kt[r], y.size, rows) / scale
        den = block_sum(lambda r: kx[r].T @ kt[r], y.size, rows) / scale
    values, flags = floored_ratio(num, den, floor)
    return values, flags, den


def longdouble_ratio_sums(kx, y, left, right):
    """Both sums of the ratio estimator through lt = left @ right, in long double.

    Returns (num, den, num_abs, den_abs) as float64 arrays (X, T): num =
    (kx y).T @ lt and den = kx.T @ lt summed in np.longdouble from the
    float64 operands kx (n, X), y (n), left (n, M') and right (M', T), and
    the sums of the |terms| kx_j y_j left_jv right_vt and kx_j left_jv
    right_vt, which scale the rounding error of any float64 order.
    """
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        raise RuntimeError("np.longdouble is no wider than float64 on this platform")
    kx, y, left, right = (np.asarray(a, dtype=np.longdouble) for a in (kx, y, left, right))
    ky = kx * y[:, None]
    sums = (ky.T @ left @ right, kx.T @ left @ right,
            np.abs(ky).T @ np.abs(left) @ np.abs(right), np.abs(kx).T @ np.abs(left) @ np.abs(right))
    return tuple(a.astype(float) for a in sums)


def whole_stack_ratio_grid(stack, y, kt, scale, floor, rows=None):
    """``estimators.stacked_ratio_grid`` with kx * y formed for all h of a block in one copy.

    Each product is summed over blocks of ``rows`` observations (``block_sum``).
    """
    scale = np.asarray(scale, dtype=float)[:, :, None, None]
    kt = kt[:, None]
    num = block_sum(lambda r: np.matmul((stack[:, r] * y[r, None]).transpose(0, 2, 1),
                                        kt[:, :, r]), y.size, rows)
    num /= scale
    den = block_sum(lambda r: np.matmul(stack[:, r].transpose(0, 2, 1), kt[:, :, r]),
                    y.size, rows)
    den /= scale
    values, flags = floored_ratio(num, den, np.asarray(floor, dtype=float)[:, :, None, None])
    return values, flags, den


class AllPointsExcluded(HetdeconvError, RuntimeError):
    """Every evaluation-grid point was ridge-floored; no ASE can be formed."""


def ase(values, flags, truth) -> tuple[float, int]:
    """Average squared error of ``values`` against ``truth`` over unflagged points.

    Returns (ase, excluded_count); raises AllPointsExcluded if every point
    was ridge-floored.
    """
    ok = ~np.asarray(flags, dtype=bool)
    excluded = int(ok.size - ok.sum())
    if not ok.any():
        raise AllPointsExcluded(f"all {ok.size} grid points were ridge-floored")
    diff = values[ok] - truth[ok]
    with np.errstate(over="ignore"):
        value = float(np.mean(diff * diff))
    return value, excluded
