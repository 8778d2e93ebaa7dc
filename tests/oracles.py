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
budget-bounded runs of h.
``trapezoid_grid`` is the only grid with nodes at v = +-1.
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


def ratio_grid(kx, kt, y, scale, floor):
    """The ratio estimator on a tensor grid for one h: (values, flags, density).

    density = kx.T @ kt / scale and values = (kx * y).T @ kt / scale / density,
    with |density| <= floor ridge-floored.  kx (n, X) smooths the exact
    direction and kt (n, T) the contaminated one; kx=None smooths the
    contaminated direction alone and returns arrays of shape (T,).  The
    per-pair reference for the program's stacked contraction.
    """
    if kx is None:
        num = y @ kt / scale
        den = kt.sum(axis=0) / scale
    else:
        num = (kx * y[:, None]).T @ kt / scale
        den = kx.T @ kt / scale
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


def whole_stack_ratio_grid(stack, y, kt, scale, floor):
    """``estimators.stacked_ratio_grid`` with kx * y formed as one (H, n, X) copy of the stack."""
    scale = np.asarray(scale, dtype=float)[:, :, None, None]
    kt = kt[:, None]
    num = np.matmul((stack * y[:, None]).transpose(0, 2, 1), kt)
    num /= scale
    den = np.matmul(stack.transpose(0, 2, 1), kt)
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
