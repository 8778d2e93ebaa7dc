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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hetdeconv import ErrorEnsemble, KernelCache, QuadratureGrid, Sample, linear_slope
from hetdeconv.estimators import RIDGE_SCALE

U = np.finfo(float).eps / 2
MOVED = 16 * U


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
            want = cache.partial_linear(b, s)
            x_s = np.abs(xg * s)[:, None]
            _assert_ratio_within(other.partial_linear(b, linear_slope(moved)), want,
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
            (values, flags, den), (v2, f2, d2) = (cache.partial_linear(b, s),
                                                  other.partial_linear(b, s2))
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
