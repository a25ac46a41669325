"""Prediction models fitted on the preliminary split.

Built-ins are deliberately dependency-free and deterministic.  The k-NN
mean and quantile models are views of one `NeighborSearch`, which owns
the training rows, k and the metric weights; the propensity is an
L2-penalized logistic regression (full-batch gradient ascent on the
design [z, 1] of standardized features and an intercept column, one
fused update per step).  The ascent has a leading batch axis:
`fit_propensities` fits many same-shaped training sets in one ascent,
`fit_propensity` is a batch of one, and `drop_one_propensities` runs the
p + 1 leave-one-covariate-out fits of `msm.calibrate_gamma` as one masked
ascent of a batch of one.  An item's fit is bit for bit the same in any
batch.  Any object with the same ``predict`` surface can be substituted.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NeighborSearch",
    "KNNMean",
    "KNNQuantile",
    "KNNSingleQuantile",
    "LogisticPropensity",
    "relevance_weights",
    "metric_weights",
    "fit_mean",
    "fit_propensity",
    "fit_propensities",
    "drop_one_propensities",
    "marginal_treatment_prob",
]


def _covariates(x, p=None):
    """`x` as a finite (rows, covariates) float array: training rows (at
    least one), or query rows of a model fitted on p covariates."""
    x = np.asarray(x, dtype=float)
    if p is not None and (x.ndim != 2 or x.shape[1] != p):
        has = (f"{x.shape[1]} covariates" if x.ndim == 2
               else f"shape {x.shape}, not (rows, covariates)")
        raise ValueError(f"query has {has}, model expects {p}")
    if x.ndim != 2:
        raise ValueError(f"training covariates have shape {x.shape}, "
                         "not (rows, covariates)")
    if p is None and x.shape[0] == 0:
        raise ValueError("empty training set")
    if not np.isfinite(x).all():
        raise ValueError("non-finite covariate value")
    return x


def relevance_weights(train_x, train_y):
    """Per-feature metric weights from absolute outcome correlation.

    Scaling the k-NN metric by these weights focuses neighbor search on
    covariates that carry signal, which matters when most dimensions are
    noise.  Weights are normalized to max 1 with a floor of 1e-3 so no
    coordinate is discarded entirely.
    """
    x = _covariates(train_x)
    y = np.asarray(train_y, dtype=float)
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    sx = x.std(axis=0)
    sy = y.std()
    denom = sx * sy
    denom[denom == 0.0] = np.inf
    corr = np.abs(xc.T @ yc) / (x.shape[0] * denom)
    top = corr.max()
    if top <= 0.0 or sy == 0.0:
        return np.ones(x.shape[1])
    return np.maximum(corr / top, 1e-3)


# query rows per block: bounds the block x train approximations and the
# candidates x p differences of the exact distances
_BLOCK = 128
# query sets a search remembers: the calibration rows and the targets
_MEMO = 2

# Why the prefilter is exact.  Write u = eps / 2 and gamma_m = m u / (1 - m u),
# the inner-product error bound (Higham, Accuracy and Stability of Numerical
# Algorithms, sec. 3.1), which holds in any summation order, with or without
# fused multiply-adds.  Let qc = q - c and tc = t - c as computed, and S the
# block's largest ||qc||^2 plus the train's largest ||tc||^2.
#  - The entry ||tc||^2 - 2 qc.tc is ||qc - tc||^2 - ||qc||^2 to within
#    (2 gamma_p + 2u) S: gamma_p S from each of the norm and the product, 2u S
#    from the final addition.  ||qc||^2 is the same along a row, so it moves
#    no row's candidates and is left out of the matrix.
#  - ||qc - tc||^2 is ||q - t||^2 to within about 4u S: each centred
#    coordinate carries a relative error of at most u.
#  - ((q - t) ** 2).sum() is ||q - t||^2 to within gamma_{p+2} 2S: a rounded
#    difference, a rounded square and p - 1 additions of non-negative terms,
#    with ||q - t||^2 <= 2S.
# So an entry plus its row's constant is the computed d2 to within
# (4p + 10) u S.  delta = 8(p + 4) eps S is at least four times that, which
# also covers the rounding of the threshold.  Gradual underflow adds at most
# half the smallest subnormal per product or square and leaves subnormal sums
# exact, hence delta's absolute term.
# At least k entries of a row are at most its k-th smallest a_k, so the row's
# k-th computed d2 is at most a_k + delta (plus the row constant).  A column
# at or below that distance has an entry at most a_k + 2 delta and is a
# candidate; a column outside is strictly farther than the k-th neighbour, so
# the lists and their ties are unchanged.  Entries, thresholds and candidate
# distances stay below 4S in magnitude; where 4S overflows, every column is a
# candidate.
_TINY = np.finfo(float).smallest_subnormal
_EPS = np.finfo(float).eps


def _candidates(query_x, c, tc2, tn, k, work):
    """Per query row, in ascending order, the training columns whose
    approximate distance is within 2 delta of the row's k-th smallest,
    padded with column n; all n columns where the bound does not apply.
    `work` is a (2, rows, n) buffer for the approximations and their
    partitioned copy."""
    n, p = tc2.shape
    m = query_x.shape[0]
    every = np.broadcast_to(np.arange(n), (m, n))
    if k == n or m == 0:
        return every
    approx, part = work[0, :m], work[1, :m]
    with np.errstate(over="ignore", invalid="ignore"):
        qc = query_x - c
        s = (qc ** 2).sum(axis=1).max() + tn.max()
        if not np.isfinite(4.0 * s):
            return every
        np.matmul(qc, tc2.T, out=approx)
    approx += tn
    delta = 8 * (p + 4) * (_EPS * s + _TINY)
    part[...] = approx
    part.partition(k - 1, axis=1)
    keep = approx <= part[:, k - 1:k] + 2 * delta
    count = keep.sum(axis=1)
    cols = np.full((m, count.max()), n)
    cols[np.arange(cols.shape[1]) < count[:, None]] = np.flatnonzero(keep) % n
    return cols


def _select(query_x, padded, cols, k):
    """The first k of `cols` per row in a stable argsort of the exact
    squared distances.  Each row's `cols` ascend, so equal distances stay
    in column order and the padding column n, at +inf, sorts last."""
    # ((q - t) ** 2).sum(), in place on the gathered candidates
    diff = padded[cols]
    np.subtract(query_x[:, None, :], diff, out=diff)
    d2 = np.square(diff, out=diff).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cols, order, axis=1)


def _neighbor_idx(train_x, query_x, k):
    """The first min(k, n) columns of a stable argsort of the squared
    distances (equidistant rows resolve by training index), found
    `_BLOCK` query rows at a time; zero query rows still give one (empty)
    block.  Per block, one matrix product of train-centred coordinates
    picks a few candidate columns per row, and the exact per-element
    distances of those columns alone decide the list.  The blocks share
    one work buffer, so its pages are faulted in once per search."""
    n, p = train_x.shape
    k = min(k, n)
    work = np.empty((2, min(_BLOCK, query_x.shape[0]), n))
    # column n pads rows with fewer candidates than the widest, at +inf
    padded = np.vstack([train_x, np.full((1, p), np.inf)])
    with np.errstate(over="ignore", invalid="ignore"):
        c = train_x.mean(axis=0)
        tc = train_x - c
        tc2, tn = -2.0 * tc, (tc ** 2).sum(axis=1)
    blocks = (query_x[start:start + _BLOCK]
              for start in range(0, max(query_x.shape[0], 1), _BLOCK))
    return np.concatenate([
        _select(q, padded, _candidates(q, c, tc2, tn, k, work), k)
        for q in blocks])


class NeighborSearch:
    """Exact k-NN search over one training set under one metric
    weighting; k defaults to ceil(sqrt(n)).  It remembers the neighbours
    of its latest `_MEMO` query sets, compared by value, so the models
    built over it search a set once."""

    def __init__(self, train_x, k=None, feature_weights=None):
        self.x = _covariates(train_x)
        self.k = int(np.ceil(np.sqrt(self.x.shape[0])) if k is None else k)
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        self.weights = feature_weights
        self._train = (self.x if feature_weights is None
                       else _covariates(self.x * feature_weights))
        self._memo = []

    def __call__(self, query_x):
        """Per query row, its k nearest training rows, nearest first."""
        query_x = _covariates(query_x, self.x.shape[1])
        for query, idx in self._memo:
            if np.array_equal(query, query_x):
                return idx
        weighted = query_x if self.weights is None else query_x * self.weights
        idx = _neighbor_idx(self._train, weighted, self.k)
        idx.flags.writeable = False
        self._memo = [(query_x.copy(), idx)] + self._memo[:_MEMO - 1]
        return idx


def _empirical_quantile(sorted_vals, tau):
    # inf{y: F_hat(y) >= tau} over k points: order statistic ceil(tau*k)
    k = sorted_vals.shape[-1]
    return sorted_vals[..., int(np.ceil(tau * k)) - 1]


class _KNN:
    """A k-NN model over `search`, with one outcome per training row."""

    x = property(lambda self: self._search.x)
    k = property(lambda self: self._search.k)

    def __init__(self, search, train_y):
        self._search = search
        self.y = np.asarray(train_y, dtype=float)
        if self.y.shape != search.x.shape[:1]:
            raise ValueError(f"outcomes of shape {self.y.shape} for "
                             f"{search.x.shape[0]} training rows")

    def _neighbors(self, x):
        """The outcomes of each query row's k nearest training rows."""
        return self.y[self._search(x)]


class KNNMean(_KNN):
    """Conditional-mean regressor by k-nearest-neighbor averaging."""

    def __init__(self, search, train_y):
        super().__init__(search, train_y)
        if self.y.shape[0] < 2:
            raise ValueError("need at least 2 training pairs")

    def predict(self, x):
        return self._neighbors(x).mean(axis=1)


class KNNQuantile(_KNN):
    """Conditional-quantile pair (lo, hi) from the k-NN empirical
    distribution; lo < hi, so lower <= upper on every row."""

    def __init__(self, search, train_y, levels):
        super().__init__(search, train_y)
        lo, hi = float(levels[0]), float(levels[1])
        if not 0.0 < lo < hi < 1.0:
            raise ValueError("quantile levels must satisfy 0 < lo < hi < 1, "
                             f"got ({lo}, {hi})")
        min_n = int(np.ceil(1.0 / min(lo, 1.0 - hi)))
        if self.y.shape[0] < min_n:
            raise ValueError(
                f"need at least {min_n} training pairs for levels {levels}")
        self.levels = (lo, hi)

    def predict(self, x):
        """Return (q_lo, q_hi) arrays for the query points."""
        neigh = np.sort(self._neighbors(x), axis=1)
        return tuple(_empirical_quantile(neigh, tau) for tau in self.levels)


class KNNSingleQuantile(_KNN):
    """Single-level k-NN empirical quantile regressor (outcomes may be
    infinite; the empirical quantile then propagates them)."""

    def __init__(self, search, train_y, level):
        super().__init__(search, train_y)
        if not (0.0 < level < 1.0):
            raise ValueError("quantile level must lie in (0, 1)")
        self.level = float(level)

    def predict(self, x):
        neigh = np.sort(self._neighbors(x), axis=1)
        return _empirical_quantile(neigh, self.level)


# the propensity clip, and the L2 penalty, step and steps of the logistic fit
CLIP = 0.01
PENALTY = 1e-4
STEP = 0.1
N_ITER = 500
_NORMAL = np.finfo(float).tiny  # the smallest standard deviation fitted


def _standardize(train_x, train_t):
    """Checked fit inputs (z, t, mean, sd).  A constant column gives z = 0;
    a column whose sd float64 cannot hold is refused by 0-based index."""
    x = _covariates(train_x)
    t = np.asarray(train_t, dtype=float)
    if t.shape != x.shape[:1]:
        raise ValueError(f"treatment of shape {t.shape} for "
                         f"{x.shape[0]} training rows")
    if len(np.unique(t)) < 2:
        raise ValueError("both treatment values must be present")
    with np.errstate(all="ignore"):
        mean, sd = x.mean(axis=0), x.std(axis=0)
    const = (x == x[0]).all(axis=0)  # its rounded mean may miss the value
    mean[const], sd[const] = x[0, const], 1.0
    for j in np.flatnonzero(~(np.isfinite(sd) & (sd >= _NORMAL))):
        raise ValueError(f"covariate column {j} varies on a scale float64 "
                         f"cannot standardize (standard deviation {sd[j]:g})")
    z = x - mean
    z /= sd
    return z, t, mean, sd


def _logistic(z, beta, intercept):
    """1 / (1 + exp(-(z @ beta + intercept))), clipped to [CLIP, 1 - CLIP]."""
    e = z @ beta
    e += intercept
    np.exp(np.negative(e, out=e), out=e)
    np.divide(1.0, np.add(e, 1.0, out=e), out=e)
    return np.clip(e, CLIP, 1.0 - CLIP, out=e)


def _ascend(z, t, mask=None):
    """Gradient ascent of the L2-penalized logistic likelihood of t on z,
    for a stacked (B, n, p) design z and (B, n) outcomes t: (beta,
    intercept) of B independent models, shapes (B, p) and (B,), or, with a
    (p, m) 0/1 mask, of m models per item at once, shapes (B, p, m) and
    (B, m), model k holding coefficient j at 0 where mask[j, k] is 0.  The
    design is [z, 1] and the loop holds nb = -(beta, intercept), so z1 @ nb
    is the negated logit and a step is nb <- nb * decay - gain * z1.T @
    (t - 1 / (1 + exp(z1 @ nb))), with STEP, PENALTY, 1 / n and the mask
    folded into decay and gain (the intercept unpenalized).  The stacked
    products run the same BLAS kernel per item as a 2-D product, and the
    other steps are elementwise, so an item's fit does not depend on the
    batch it is in, bit for bit."""
    b, n, p = z.shape
    free = np.ones((p, 1)) if mask is None else mask
    m = free.shape[1]
    # each item column-major, so both products stream down contiguous columns
    z1 = np.ones((b, p + 1, n)).transpose(0, 2, 1)
    z1[..., :p] = z
    z1t = z1.transpose(0, 2, 1)
    gain = np.vstack([free, np.ones(m)]) * (STEP / n)
    decay = np.full((p + 1, 1), 1.0 - 2.0 * STEP * PENALTY)
    decay[p] = 1.0
    nb = np.zeros((b,) + gain.shape)
    t = np.repeat(t[..., None], m, axis=-1)
    resid, grad = np.empty((b, n, m)), np.empty(nb.shape)
    for _ in range(N_ITER):
        np.exp(np.matmul(z1, nb, out=resid), out=resid)
        resid += 1.0
        np.subtract(t, np.reciprocal(resid, out=resid), out=resid)
        np.matmul(z1t, resid, out=grad)
        grad *= gain
        nb *= decay
        nb -= grad
    if mask is None:
        nb = nb[..., 0]
    return -nb[:, :p], -nb[:, p]


class LogisticPropensity:
    """A fitted logistic-regression treatment model with clipped outputs,
    as `fit_propensities` returns it.

    Standardization statistics are stored in the fitted model so query
    features are transformed exactly as the training features were.
    Predictions are clipped to [CLIP, 1 - CLIP].
    """

    def __init__(self, mean, sd, beta, intercept):
        self.mean_, self.sd_, self.beta_, self.intercept_ = (mean, sd, beta,
                                                             intercept)

    def predict(self, x):
        x = _covariates(x, self.mean_.shape[0])
        return _logistic((x - self.mean_) / self.sd_, self.beta_,
                         self.intercept_)


def fit_propensities(xs, ts):
    """One `LogisticPropensity` per training set (xs[i], ts[i]), all fitted
    in one batched ascent, each bit for bit the model of its own fit.  The
    sets must share one (rows, covariates) shape, and each passes
    `_standardize`'s checks.  The stacked design of B sets of shape (n, p)
    takes 8 B n (p + 1) bytes."""
    sets = [_standardize(x, t) for x, t in zip(xs, ts)]
    shapes = [z.shape for z, _, _, _ in sets]
    if not sets or shapes.count(shapes[0]) != len(shapes):
        raise ValueError("need one or more training sets of one shape, "
                         f"got shapes {shapes}")
    zs, ts, means, sds = zip(*sets)
    beta, intercept = _ascend(np.stack(zs), np.stack(ts))
    return list(map(LogisticPropensity, means, sds, beta, intercept))


def fit_propensity(train_x, train_t) -> LogisticPropensity:
    """`fit_propensities` for a batch of one."""
    (model,) = fit_propensities([train_x], [train_t])
    return model


def drop_one_propensities(train_x, train_t):
    """(n, p + 1) clipped propensities at the training rows: column j of
    the fit without covariate j, the last column of the full fit.  One
    masked ascent, a batch of one, runs the p + 1 fits, with
    `_standardize`'s checks."""
    z, t, _, _ = _standardize(train_x, train_t)
    p = z.shape[1]
    (beta,), (intercept,) = _ascend(z[None], t[None], 1.0 - np.eye(p, p + 1))
    return _logistic(z, beta, intercept)


def metric_weights(scale, train_x, train_y):
    """The k-NN metric weights of `scale`: None, or `relevance_weights`
    for "relevance"."""
    if scale not in (None, "relevance"):
        raise ValueError(f"unknown metric scaling {scale!r}")
    return None if scale is None else relevance_weights(train_x, train_y)


def fit_mean(train_x, train_y, scale=None) -> KNNMean:
    weights = metric_weights(scale, train_x, train_y)
    return KNNMean(NeighborSearch(train_x, feature_weights=weights), train_y)


def marginal_treatment_prob(treatment, t) -> float:
    """Empirical fraction of units in arm t; both arms must be present."""
    treatment = np.asarray(treatment)
    if treatment.size == 0:
        raise ValueError("empty dataset")
    frac = float(np.mean(treatment == t))
    if frac == 0.0 or frac == 1.0:
        raise ValueError(f"treatment arm {1 - t} is absent")
    return frac
