"""Invariants of the three estimators under exact symmetries of the data.

Each property holds in exact arithmetic, and each tolerance is the
floating-point budget of the operations that differ between its two sides,
to first order in the unit roundoff u (second-order terms are below 1e-28
relative at n <= 30).  The budgets use two standard facts:

- a sum of k terms computed in any order is within gamma_k sum |terms| of
  the exact sum, so two orders differ by at most 2 gamma_k sum |terms|
  (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3);
- each rounding after an input has changed may round the other way, adding
  at most u of the result's magnitude on each side.

Permuting the observations moves the elements of the kernel matrices to
other positions of their arrays, where ``np.exp``, ``np.cos`` and ``np.sin``
may run another code path (a SIMD body or its scalar tail).  Each path is
taken to be within 4 ulp of the true value, so a value moved to another
position may change by up to 8 ulp, ``MOVED`` relative.  The affine map
leaves every kernel matrix and the density bit for bit unchanged.

Shifting w and the t-grid by c, or x and the x-grid, leaves every kernel
argument unchanged in exact arithmetic, but each kernel is formed from its
two arguments apart: a phase v w_j / b beside v t / b, or a difference
x - x_j.  Its budget is the error of each side's kernel against the exact
kernel, the shifted inputs' own roundings included, summed over both sides.

Error-free and homoscedastic Laplace laws have their kernel in closed form,
so the last class compares the program with it, not with itself: the budget
adds the coefficients' rounding and the quadrature rule's error.
"""

from math import comb, factorial, lgamma, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import longdouble_gauss_legendre, polynomial_cosine_kernel

from hetdeconv import ErrorEnsemble, KernelCache, QuadratureGrid, Sample, linear_slope
from hetdeconv.estimators import RIDGE_SCALE, floored_ratio
from hetdeconv.kernels import SMALLEST_NORMAL

U = np.finfo(float).eps / 2
MOVED = 16 * U
LD = np.longdouble
# The closed-form kernel sums at most 20 terms in long double: 32 of its ulps
# of the sum of their magnitudes bound its rounding (it measures within 5).
CLOSED_FORM = 32 * np.finfo(LD).eps


def gamma(k):
    """gamma_k = k u / (1 - k u), the relative error bound of k roundings in a row."""
    return k * U / (1 - k * U)


def _problem(seed, n, n_x, n_t, n_h, n_b, m):
    """A heteroscedastic sample with its laws' (families, variances), its grids and a cache."""
    rng = np.random.default_rng(seed)
    families = [str(f) for f in rng.choice(["gaussian", "laplace"], n)]
    variances = rng.uniform(0.05, 0.5, n)
    ensemble = ErrorEnsemble.from_arrays(families, variances)
    x, t = rng.uniform(-2, 2, (2, n))
    y = x * x * np.exp(-t * t / 2) + rng.normal(0, 0.25, n)
    sample = Sample(x, t + ensemble.draw(rng), y, ensemble)
    hs, bs = np.sort(rng.uniform(0.05, 1.0, n_h)), np.sort(rng.uniform(0.2, 0.5, n_b))
    grids = np.linspace(-2, 2, n_x), np.linspace(-2, 2, n_t), QuadratureGrid.gauss_legendre(m)
    return sample, (families, variances), hs, bs, grids


def _sums(kx, kernel, z, scale):
    """sum_j kx_hj(x) kernel_bj(t) z_j / scale_bh, (B, H, X, T); ``kernel`` (B, n, T) or (B, n)."""
    if kernel.ndim == 2:
        kernel = kernel[:, :, None]
    return np.einsum("hjx,bjt,j->bhxt", kx, kernel, z) / scale[:, :, None, None]


def _assert_ratio_within(got, want, num_tol, den_tol, floor, ratio=None, rest=0.0):
    """(values, flags, density) of two ratio estimates whose sums differ by the given budgets.

    The densities differ by at most ``den_tol``; the flags agree wherever the
    density is further than that from the floor; the values of points clean
    on both sides differ by at most (num_tol + |r| den_tol) / (|den| - den_tol)
    plus the two roundings of the division, r the ratio (the values unless
    given), plus ``rest``, the budget of what the values add to the ratio.
    """
    (values, flags, den), (v2, f2, d2) = want, got
    ratio = np.abs(values) if ratio is None else ratio
    assert np.all(np.abs(d2 - den) <= den_tol)
    settled = np.abs(np.abs(den) - floor) > den_tol
    assert np.array_equal(flags[settled], f2[settled])
    clean = ~flags & ~f2 & (np.abs(den) > den_tol)
    bound = (num_tol + ratio * den_tol) / np.where(clean, np.abs(den) - den_tol, 1)
    bound += 2 * U * ratio + rest
    assert np.all((np.abs(v2 - values) <= bound)[clean])


def _slope_terms(sample):
    """(dx, dy, sxx, slope) as ``linear_slope`` forms them."""
    dx, dy = sample.x - sample.x.mean(), sample.y - sample.y.mean()
    return dx, dy, dx @ dx, linear_slope(sample)


GRIDS = dict(n=st.integers(2, 30), n_x=st.integers(1, 10), n_t=st.integers(1, 10),
             n_h=st.integers(1, 3), n_b=st.integers(1, 2), m=st.sampled_from([16, 33]),
             seed=st.integers(0, 2 ** 32 - 1))


class TestPermutation:
    """Permuting the observations together with their error laws changes no estimate."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**GRIDS)
    def test_within_the_budget_of_the_reordered_sums(self, n, n_x, n_t, n_h, n_b, m, seed):
        sample, (families, variances), hs, bs, (xg, tg, quad) = _problem(
            seed, n, n_x, n_t, n_h, n_b, m)
        perm = np.random.default_rng(seed + 1).permutation(n)
        moved = Sample(sample.x[perm], sample.w[perm], sample.y[perm],
                       ErrorEnsemble.from_arrays([families[j] for j in perm], variances[perm]))
        cache, other = KernelCache(sample, xg, tg, quad), KernelCache(moved, xg, tg, quad)
        kx, ay, ones = cache.kx_stack(hs), np.abs(sample.y), np.ones(n)
        hb = hs * bs[:, None]
        g = gamma(n + 2)          # n products summed, then divided by the scale
        half = quad.size - quad.size // 2

        # S(v/b) = sum_j cf_j^2 reordered (2 g) of moved cf_j (2 MOVED); the
        # weight cf_j / S times two constants, four roundings; the kernel
        # L_j(t) sums 2 ceil(M/2) terms c_jv trig(v o_j) trig(v t), a moved
        # trig(v o_j) and one more rounding each; its terms sum to at most
        # C_j = sum_v |c_jv|, and |L_j| <= C_j.  kx_j is moved, and the
        # products over j are summed in another order.
        coef = MOVED + (2 * MOVED + 2 * g) + 8 * U
        kernel = coef + MOVED + 2 * U + 2 * gamma(2 * half + 1)
        rel = 2 * g + MOVED + kernel
        c = np.stack([np.abs(cache.deconv_weights(b).values).sum(axis=1) for b in bs])
        floor = RIDGE_SCALE / hb[:, :, None, None]
        _assert_ratio_within(other.deconv(hs, bs), cache.deconv(hs, bs),
                             rel * _sums(kx, c, ay, hb), rel * _sums(kx, c, ones, hb), floor)

        # kx_j and kt_j are both moved; every term is positive
        kt, scale = cache.kt(bs), n * hb
        rel = 2 * g + 2 * MOVED
        _assert_ratio_within(other.naive(hs, bs), cache.naive(hs, bs),
                             rel * _sums(kx, kt, ay, scale), rel * _sums(kx, kt, ones, scale),
                             floor)

        # partial-linear: the means, sxx and sxy are reordered sums; the
        # residuals y_j - x_j s carry the slope's change
        dx, dy, sxx, s = _slope_terms(sample)
        d_mx, d_my = 2 * g * np.abs(sample.x).mean(), 2 * g * ay.mean()
        d_dx, d_dy = d_mx + 2 * U * np.abs(dx), d_my + 2 * U * np.abs(dy)
        d_sxx = 2 * g * sxx + 2 * np.abs(dx) @ d_dx
        d_sxy = 2 * g * np.abs(dx) @ np.abs(dy) + np.abs(dx) @ d_dy + np.abs(dy) @ d_dx
        d_s = (d_sxy + abs(s) * d_sxx) / sxx + 2 * U * abs(s)
        resid = sample.y - sample.x * s
        d_r = np.abs(sample.x) * d_s + 2 * U * (np.abs(sample.x * s) + np.abs(resid))
        rel = 2 * g + kernel
        for k, b in enumerate(bs):
            want = tuple(a[0, 0] for a in cache.partial_linear([b], s))
            x_s = np.abs(xg * s)[:, None]
            _assert_ratio_within(tuple(a[0, 0] for a in
                                       other.partial_linear([b], linear_slope(moved))), want,
                                 (rel * np.abs(resid) @ c[k] + d_r @ c[k]) / b,
                                 rel * c[k].sum() / b, RIDGE_SCALE / b,
                                 ratio=np.abs(want[0] - xg[:, None] * s),
                                 rest=np.abs(xg)[:, None] * d_s + 2 * U * (x_s + np.abs(want[0])))


class TestAffineResponse:
    """y -> a y + c maps every unflagged estimate r to a r + c, flags and density unchanged."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(a=st.one_of(st.floats(-10, -1e-3), st.floats(1e-3, 10)), c=st.floats(-10, 10),
           **GRIDS)
    def test_within_the_budget_of_the_numerator(self, a, c, n, n_x, n_t, n_h, n_b, m, seed):
        sample, _, hs, bs, (xg, tg, quad) = _problem(seed, n, n_x, n_t, n_h, n_b, m)
        y2 = a * sample.y + c
        shifted = Sample(sample.x, sample.w, y2, sample.ensemble)
        cache, other = KernelCache(sample, xg, tg, quad), KernelCache(shifted, xg, tg, quad)
        kx, ay, ay2, ones = cache.kx_stack(hs), np.abs(sample.y), np.abs(y2), np.ones(n)
        hb = hs * bs[:, None]
        # rounding y2 = fl(fl(a y) + c) adds u (|a y| + |y2|) per term, and the
        # numerators of y2, of y and the density are each within gamma_{n+2}
        # of their exact sums: a num + c den is exact for the exact sums
        g = gamma(n + 3)

        for kernel, scale, got, want in (
                (np.abs(cache.lt(bs)), hb, other.deconv(hs, bs), cache.deconv(hs, bs)),
                (cache.kt(bs), n * hb, other.naive(hs, bs), cache.naive(hs, bs))):
            (values, flags, den), (v2, f2, d2) = want, got
            assert np.array_equal(flags, f2) and d2.tobytes() == den.tobytes()
            num_tol = g * (_sums(kx, kernel, ay2, scale) + 2 * abs(a) * _sums(kx, kernel, ay, scale)
                           + abs(c) * _sums(kx, kernel, ones, scale))
            expected = a * values + c
            bound = (num_tol / np.where(flags, 1, np.abs(den))
                     + 2 * U * (np.abs(v2) + np.abs(a * values) + np.abs(expected)))
            assert np.all((np.abs(v2 - expected) <= bound)[~flags])

        # partial-linear, through its slope: s2 = a s, and the residuals of
        # y2 are a r + c
        dx, dy, sxx, s = _slope_terms(sample)
        s2 = linear_slope(shifted)
        inputs = U * (np.abs(a * sample.y) + ay2)
        d_my = g * (ay2.mean() + abs(a) * ay.mean()) + inputs.mean()
        dy2 = y2 - y2.mean()
        d_dy = inputs + d_my + U * (np.abs(dy2) + np.abs(a * dy))
        d_sxy = np.abs(dx) @ d_dy + g * np.abs(dx) @ (np.abs(dy2) + abs(a) * np.abs(dy))
        d_s = d_sxy / sxx + U * abs(s2) + 2 * U * abs(a * s)
        assert abs(s2 - a * s) <= d_s
        resid, resid2 = sample.y - sample.x * s, y2 - sample.x * s2
        ax = np.abs(sample.x)
        d_r = (inputs + ax * d_s + U * (ax * abs(s2) + np.abs(resid2))
               + abs(a) * U * (ax * abs(s) + np.abs(resid)))
        for b in bs:
            lt = np.abs(cache.lt([b])[0])
            (values, flags, den), (v2, f2, d2) = (
                tuple(a[0, 0] for a in cache.partial_linear([b], s)),
                tuple(a[0, 0] for a in other.partial_linear([b], s2)))
            assert np.array_equal(flags, f2) and d2.tobytes() == den.tobytes()
            num_tol = (d_r @ lt + g * ((np.abs(resid2) + abs(a) * np.abs(resid)) @ lt
                                       + abs(c) * lt.sum(axis=0))) / b
            ratio, ratio2 = values - xg[:, None] * s, v2 - xg[:, None] * s2
            expected = a * values + c
            bound = (np.abs(xg)[:, None] * d_s + num_tol / np.where(flags, 1, np.abs(den))
                     + U * (np.abs(ratio2) + abs(a) * np.abs(ratio))
                     + U * (np.abs(xg * s2)[:, None] + np.abs(v2))
                     + abs(a) * U * (np.abs(xg * s)[:, None] + np.abs(values))
                     + U * (np.abs(a * values) + np.abs(expected)))
            assert np.all((np.abs(v2 - expected) <= bound)[~flags])


def _normal_kernel_error(grid, obs, widths):
    """Bound on |computed - exact| of phi((grid - obs_j) / w) for each w, (W, n, G).

    The inputs may be rounded shifts (u |grid| + u |obs_j| of the argument's
    numerator); the difference and the division round once each, so the
    argument is off by du <= u (|grid| + |obs_j|) / w + 2 u |arg|, and
    phi(arg) by |arg| du phi.  Its square rounds (u arg^2 / 2 of the
    exponent), exp is within 4 ulp (8 u), the division by sqrt(2 pi) and
    that constant round once each (2 u), and a value below the smallest
    normal double is flushed to 0.
    """
    widths = np.asarray(widths, dtype=float)[:, None, None]
    arg = (grid - obs[:, None]) / widths
    du = U * (np.abs(grid) + np.abs(obs)[:, None]) / widths + 2 * U * np.abs(arg)
    phi = np.exp(-arg * arg / 2) / np.sqrt(2 * np.pi)
    return phi * (np.abs(arg) * du + U * arg * arg / 2 + 10 * U) + SMALLEST_NORMAL


def _deconv_kernel_error(cache, bs, obs, grid):
    """Bound on |computed - exact| of L_j(t) for each b, (B, n, T), and the C_j, (B, n).

    Each argument o = w_j / b and e = t / b (of rounded shifts) is off by
    2 u |o|, and its phase v o (v <= 1) by u |o| more.  A trig value is
    within 4 ulp (8 u) plus the phase error, and c_jv times it rounds once,
    so the factors of a node are off by 9 u + 3 u |o| and 8 u + 3 u |e|
    (times |c_jv| on the left).  As |cos| + |sin| <= sqrt(2), the node's
    two products are off by at most sqrt(2) times the sum of the two; as
    |cos a cos b| + |sin a sin b| <= 1, the 2 ceil(M/2) terms of L_j total
    at most C_j = sum_v |c_jv| in magnitude, and their sum adds gamma of
    that many terms.
    """
    half = cache.quad.size - cache.quad.size // 2
    c = np.stack([np.abs(cache.deconv_weights(b).values).sum(axis=1) for b in bs])
    bs = np.asarray(bs, dtype=float)[:, None, None]
    phases = 3 * U * (np.abs(obs)[:, None] + np.abs(grid)) / bs
    return c[:, :, None] * (np.sqrt(2) * (17 * U + phases) + gamma(2 * half + 1)), c


def _rule_kernel_error(quad, n, c, e):
    """Bound on |exact sum of the computed coefficients - exact kernel|, per argument e.

    The kernel is n L(e) = (1/pi) int_0^1 q(v) cos(e v) dv with
    q(v) = (1 - v^2)^3 (1 + c v^2): c = 0 for error-free laws and
    c = s / (2 b^2) for homoscedastic Laplace laws of variance s.  Over the
    M nodes of ``quad``, each part over 2 pi n:

    - the coefficients: 1 - v^2 is off by u, so (1 - v^2)^3 by
      u (3 (1 - v^2)^2 + 2 (1 - v^2)^3); cf_j / S by (n + 20) u (cf_j by 6 u,
      S sums n squares), and its product with the weight over pi by 4 u;
    - the rule: ``quad``'s nodes and weights are off the exact
      Gauss-Legendre rule (``longdouble_gauss_legendre``, whose weights are
      good to u of each) by dv and dw, which move a node's term by
      |dw q| + W (|q'| + |e q|) |dv|;
    - the Gauss-Legendre remainder 2^(2M+1) (M!)^4 / ((2M+1) ((2M)!)^3)
      max |f^(2M)|, f = q cos(e .), with max |f^(2M)| <= sum_k C(2M, k)
      max |q^(k)| |e|^(2M-k) and max |q^(k)| <= sum_i |a_i| i! / (i-k)!
      over the coefficients a_i of q.
    """
    v, w, m = quad.nodes, quad.weights, quad.size
    nodes, weights = longdouble_gauss_legendre(m)
    base, lift = 1 - v * v, 1 + c * v * v
    q = base ** 3 * lift
    dq = np.abs(-6 * v * base ** 2 * lift + 2 * c * v * base ** 3)
    dv = np.abs(v - nodes).astype(float)
    dw = (np.abs(w - weights) + U * weights).astype(float)
    fixed = (w * U * (lift * (3 * base ** 2 + 2 * base ** 3) + (n + 24) * q)
             + dw * q + w * dq * dv).sum()
    per_e = (w * q * dv).sum()
    a = np.abs([1, 0, c - 3, 0, 3 - 3 * c, 0, 3 * c - 1, 0, -c])
    e = np.abs(np.asarray(e, dtype=float))
    lead = ((2 * m + 1) * log(2) + 4 * lgamma(m + 1) - log(2 * m + 1) - 3 * lgamma(2 * m + 1))
    with np.errstate(divide="ignore"):
        log_e = np.log(e)
    remainder = np.zeros_like(e)
    for k in range(9):
        top = sum(a[i] * factorial(i) / factorial(i - k) for i in range(k, 9))
        if top:
            remainder += np.exp(lead + log(comb(2 * m, k) * top) + (2 * m - k) * log_e)
    return (fixed + per_e * e + remainder) / (2 * np.pi * n)


class TestShift:
    """Shifting w and the t-grid, or x and the x-grid, by c changes no estimate."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(c=st.floats(-8, 8), along=st.sampled_from(["t", "x"]), **GRIDS)
    def test_within_the_budget_of_the_kernels(self, c, along, n, n_x, n_t, n_h, n_b, m, seed):
        sample, _, hs, bs, (xg, tg, quad) = _problem(seed, n, n_x, n_t, n_h, n_b, m)
        if along == "t":
            moved = Sample(sample.x, sample.w + c, sample.y, sample.ensemble)
            other = KernelCache(moved, xg, tg + c, quad)
        else:
            moved = Sample(sample.x + c, sample.w, sample.y, sample.ensemble)
            other = KernelCache(moved, xg + c, tg, quad)
        cache = KernelCache(sample, xg, tg, quad)
        sides = (cache, other)
        kx, kt = cache.kx_stack(hs), cache.kt(bs)
        ay, ones, hb = np.abs(sample.y), np.ones(n), hs * bs[:, None]
        g = gamma(n + 2)          # n products summed, then divided by the scale
        floor = RIDGE_SCALE / hb[:, :, None, None]

        # the side that is not shifted builds the same kernel bit for bit
        if along == "t":
            errs = [_deconv_kernel_error(s, bs, s.sample.w, s.t_values) for s in sides]
            lt_err, c_j = errs[0][0] + errs[1][0], errs[0][1]
            kt_err = sum(_normal_kernel_error(s.t_values, s.sample.w, bs) for s in sides)
            kx_err = np.zeros_like(kx)
        else:
            c_j = _deconv_kernel_error(cache, bs, sample.w, tg)[1]
            lt_err, kt_err = np.zeros(kt.shape), np.zeros(kt.shape)
            kx_err = sum(_normal_kernel_error(s.x_values, s.sample.x, hs) for s in sides)

        def budgets(kernel, kernel_err, scale):
            return [2 * g * _sums(kx, kernel, z, scale) + _sums(kx, kernel_err, z, scale)
                    + _sums(kx_err, kernel, z, scale) for z in (ay, ones)]

        _assert_ratio_within(other.deconv(hs, bs), cache.deconv(hs, bs),
                             *budgets(c_j[:, :, None], lt_err, hb), floor)
        _assert_ratio_within(other.naive(hs, bs), cache.naive(hs, bs),
                             *budgets(kt, kt_err, n * hb), floor)


class TestConstantResponse:
    """y = c everywhere gives the estimate c at every unflagged point."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(c=st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)),
           **{**GRIDS, "n_h": st.integers(2, 3), "n_b": st.integers(2, 3)})
    def test_within_the_budget_of_the_two_products(self, c, n, n_x, n_t, n_h, n_b, m, seed):
        sample, _, hs, bs, (xg, tg, quad) = _problem(seed, n, n_x, n_t, n_h, n_b, m)
        sample = Sample(sample.x, sample.w, np.full(n, c), sample.ensemble)
        cache = KernelCache(sample, xg, tg, quad)
        kx, lt, ones, hb = cache.kx_stack(hs), cache.lt(bs), np.ones(n), hs * bs[:, None]

        # The numerator sums the n terms (kx_j c) k_j, one rounding more than
        # the density's terms kx_j k_j, and each is divided by the scale, so
        # num - c den is within (gamma_{n+2} + gamma_{n+1}) |c| S, S the sum
        # of |kx_j k_j| / scale; the ratio rounds once more (u |c|, and u
        # again for |values| against |c|).  |c| is 0 or at least 1e-6, so no
        # term kx_j c underflows at a point whose density clears the floor.
        g = gamma(n + 2)
        for (values, flags, den), kernel, scale in ((cache.deconv(hs, bs), np.abs(lt), hb),
                                                    (cache.naive(hs, bs), cache.kt(bs), n * hb)):
            assert values.shape == (n_b, n_h, n_x, n_t)
            bound = (2 * g * abs(c) * _sums(kx, kernel, ones, scale) / np.where(flags, 1, np.abs(den))
                     + 2 * U * abs(c))
            assert np.all((np.abs(values - c) <= bound)[~flags])

        # partial-linear: the slope s is 0 in exact arithmetic, and the
        # computed s leaves the residuals c - x_j s, so the exact estimate is
        # c + s (x - sum_j x_j L_j / sum_j L_j).  The residuals round twice
        # (u |x_j s| + u |r_j|), their sum over j adds gamma_n and the sum of
        # the L_j gamma_{n-1}; the two divisions by b, the ratio and x s each
        # round once, and so does the final sum (u |values|).
        s = linear_slope(sample)
        values, flags, den = cache.partial_linear(bs, s)
        assert values.shape == (n_b, 1, n_x, n_t)
        resid, al = sample.y - sample.x * s, np.abs(lt)
        weighted = (np.abs(sample.x) @ al)[:, None, None]
        lt_sum = np.where(flags, 1, np.abs(den) * bs[:, None, None, None])
        ratio = np.abs(values - xg[:, None] * s)
        xs = np.abs(xg * s)[:, None]
        bound = (abs(s) * (np.abs(xg)[:, None] + weighted / lt_sum)
                 + (gamma(n + 1) * (np.abs(resid) @ al)[:, None, None] + U * abs(s) * weighted
                    + gamma(n) * ratio * al.sum(axis=1)[:, None, None]) / lt_sum
                 + 3 * U * ratio + U * xs + U * np.abs(values))
        assert np.all((np.abs(values - c) <= bound)[~flags])


class TestClosedForms:
    """Error-free and homoscedastic Laplace laws against their kernels in closed form.

    The exact kernel comes from ``polynomial_cosine_kernel`` in long double;
    the computed one is within ``_deconv_kernel_error`` (its trig and sums)
    plus ``_rule_kernel_error`` (its coefficients and the quadrature rule)
    of it, plus the closed form's own rounding, CLOSED_FORM of its terms.
    """

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**{**GRIDS, "m": st.sampled_from([64, 65])})
    def test_error_free_laws_give_nadaraya_watson_with_the_bandlimited_kernel(
            self, n, n_x, n_t, n_h, n_b, m, seed):
        # L_j = K((t - w_j) / b) / n.  With b >= 0.2 every |e| <= 20, where
        # the remainder of 64 nodes is below 1e-80.  The reference sums run
        # in long double and are rounded once to float64; the program's sums
        # of n products, divided by the scale, add gamma_{n+2}, and 2 gamma
        # covers both.
        rng = np.random.default_rng(seed)
        x, w = rng.uniform(-2, 2, (2, n))
        y = x * x * np.exp(-w * w / 2) + rng.normal(0, 0.25, n)
        sample = Sample(x, w, y, ErrorEnsemble.from_arrays(["degenerate"] * n, np.zeros(n)))
        hs, bs = np.sort(rng.uniform(0.05, 1.0, n_h)), np.sort(rng.uniform(0.2, 1.0, n_b))
        xg, tg = np.linspace(-2, 2, n_x), np.linspace(-2, 2, n_t)
        cache = KernelCache(sample, xg, tg, QuadratureGrid.gauss_legendre(m))
        kx, hb = cache.kx_stack(hs), hs * bs[:, None]

        e = (tg.astype(LD) - w.astype(LD)[:, None]) / bs.astype(LD)[:, None, None]
        exact, size = polynomial_cosine_kernel(e, 0)
        err, c = _deconv_kernel_error(cache, bs, w, tg)
        err = err + np.stack([_rule_kernel_error(cache.quad, n, 0.0, e_b) for e_b in e])
        err += (CLOSED_FORM * size / n).astype(float)
        scale = hb.astype(LD)[:, :, None, None]
        sums = [np.einsum("hjx,bjt,j->bhxt", kx.astype(LD), exact / n, z.astype(LD)) / scale
                for z in (y, np.ones(n))]
        num, den = (a.astype(float) for a in sums)
        floor = RIDGE_SCALE / hb[:, :, None, None]
        want = (*floored_ratio(num, den, floor), den)
        g = gamma(n + 2)
        ay, ones = np.abs(y), np.ones(n)
        _assert_ratio_within(cache.deconv(hs, bs), want,
                             *[2 * g * _sums(kx, c, z, hb) + _sums(kx, err, z, hb)
                               for z in (ay, ones)], floor)

    @pytest.mark.parametrize("m", [64, 128])
    @pytest.mark.parametrize("s", [4 / 15, 8 / 15])
    def test_homoscedastic_laplace_kernel_on_the_ladder(self, s, m):
        # L_j(e) = (K(e) - s / (2 b^2) K''(e)) / n (Fan 1991), on criterion
        # 3's ladder of b and its arguments e in [-4, 4]
        n = 100
        rng = np.random.default_rng(m)
        ensemble = ErrorEnsemble.from_arrays(["laplace"] * n, np.full(n, s))
        quad = QuadratureGrid.gauss_legendre(m)
        worst, room = 0.0, np.inf
        for b in np.linspace(0.02, 0.2, 10):
            w, tg = 2 * b * rng.uniform(-1, 1, n), 2 * b * np.linspace(-1, 1, 9)
            cache = KernelCache(Sample(np.zeros(n), w, np.zeros(n), ensemble), [0.0], tg, quad)
            e = (tg.astype(LD) - w.astype(LD)[:, None]) / LD(b)
            exact, size = polynomial_cosine_kernel(e, LD(s) / (2 * LD(b) ** 2))
            bound = (_deconv_kernel_error(cache, [b], w, tg)[0][0]
                     + _rule_kernel_error(quad, n, s / (2 * b * b), e)
                     + (CLOSED_FORM * size / n).astype(float))
            diff = np.abs(cache.lt([b])[0] - exact / n).astype(float)
            assert np.all(diff <= bound), f"b={b}"
            worst = max(worst, diff.max())
            room = min(room, (bound / np.maximum(diff, 1e-300)).min())
        print(f"homoscedastic laplace s={s:.4f} M={m}: max |L - exact| = {worst:.3e}, "
              f"bound at least {room:.1f} times the error")
