"""Pluggable prediction models fitted on the preliminary split.

Built-ins are deliberately dependency-free and deterministic: k-nearest
neighbor averaging for the conditional mean, k-NN empirical quantiles for
conditional quantiles, and an L2-penalized logistic regression (full-batch
gradient ascent on standardized features) for the propensity.  Any object
with the same ``predict`` surface can be substituted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KNNMean",
    "KNNQuantile",
    "LogisticPropensity",
    "relevance_weights",
    "fit_mean",
    "fit_quantile",
    "fit_propensity",
    "marginal_treatment_prob",
]


def _finite(x):
    if not np.isfinite(x).all():
        raise ValueError("non-finite covariate value")
    return x


def relevance_weights(train_x, train_y, floor=1e-3):
    """Per-feature metric weights from absolute outcome correlation.

    Scaling the k-NN metric by these weights focuses neighbor search on
    covariates that carry signal, which matters when most dimensions are
    noise.  Weights are normalized to max 1 with a small floor so no
    coordinate is discarded entirely.
    """
    x = _finite(np.asarray(train_x, dtype=float))
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
    return np.maximum(corr / top, floor)


def _as_2d(x, p):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1) if x.shape[0] == p else x.reshape(-1, 1)
    if x.shape[1] != p:
        raise ValueError(f"query has {x.shape[1]} covariates, model expects {p}")
    return _finite(x)


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


def _candidates(query_x, c, tc2, tn, k):
    """Per query row, in ascending order, the training columns whose
    approximate distance is within 2 delta of the row's k-th smallest,
    padded with column n; all n columns where the bound does not apply."""
    n, p = tc2.shape
    every = np.broadcast_to(np.arange(n), (query_x.shape[0], n))
    if k == n or query_x.shape[0] == 0:
        return every
    with np.errstate(over="ignore", invalid="ignore"):
        qc = query_x - c
        s = (qc ** 2).sum(axis=1).max() + tn.max()
        if not np.isfinite(4.0 * s):
            return every
        approx = qc @ tc2.T
    approx += tn
    delta = 8 * (p + 4) * (_EPS * s + _TINY)
    kth = np.partition(approx, k - 1, axis=1)[:, k - 1:k]
    keep = approx <= kth + 2 * delta
    count = keep.sum(axis=1)
    cols = np.full((query_x.shape[0], count.max()), n)
    cols[np.arange(cols.shape[1]) < count[:, None]] = np.flatnonzero(keep) % n
    return cols


def _select(query_x, padded, cols, k):
    """The first k of `cols` per row in a stable argsort of the exact
    squared distances (equal distances in column order)."""
    # ((q - t) ** 2).sum(), in place on the gathered candidates
    diff = padded[cols]
    np.subtract(query_x[:, None, :], diff, out=diff)
    d2 = np.square(diff, out=diff).sum(axis=2)
    # every column below the k-th distance, then the lowest-index ties at
    # it, stable-sorted by distance
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    below, tie = d2 < kth, d2 == kth
    room = k - below.sum(axis=1, keepdims=True)
    keep = below | (tie & (np.cumsum(tie, axis=1) <= room))
    pos = np.nonzero(keep)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(d2, pos, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(cols, np.take_along_axis(pos, order, axis=1),
                              axis=1)


def _neighbor_idx(train_x, query_x, k):
    """The first min(k, n) columns of a stable argsort of the squared
    distances (equidistant rows resolve by training index), found
    `_BLOCK` query rows at a time; zero query rows still give one (empty)
    block.  Per block, one matrix product of train-centred coordinates
    picks a few candidate columns per row, and the exact per-element
    distances of those columns alone decide the list."""
    n, p = train_x.shape
    k = min(k, n)
    # column n pads rows with fewer candidates than the widest, at +inf
    padded = np.vstack([train_x, np.full((1, p), np.inf)])
    with np.errstate(over="ignore", invalid="ignore"):
        c = train_x.mean(axis=0)
        tc = train_x - c
        tc2, tn = -2.0 * tc, (tc ** 2).sum(axis=1)
    blocks = (query_x[start:start + _BLOCK]
              for start in range(0, max(query_x.shape[0], 1), _BLOCK))
    return np.concatenate([_select(q, padded, _candidates(q, c, tc2, tn, k), k)
                           for q in blocks])


class _Search:
    """Exact k-NN search over one training set under one metric
    weighting.  It remembers the neighbours of its latest `_MEMO` query
    sets, compared by value, so models sharing it search a set once."""

    def __init__(self, train_x, k, feature_weights=None):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if len(train_x) == 0:
            raise ValueError("empty training set")
        self.weights = feature_weights
        self.train = _finite(train_x if feature_weights is None
                             else train_x * feature_weights)
        self.k = k
        self._memo = []

    def __call__(self, query_x):
        for query, idx in self._memo:
            if np.array_equal(query, query_x):
                return idx
        weighted = query_x if self.weights is None else query_x * self.weights
        idx = _neighbor_idx(self.train, weighted, self.k)
        idx.flags.writeable = False
        self._memo = [(query_x.copy(), idx)] + self._memo[:_MEMO - 1]
        return idx


def _empirical_quantile(sorted_vals, tau):
    # inf{y: F_hat(y) >= tau} over k points: order statistic ceil(tau*k)
    k = sorted_vals.shape[-1]
    j = int(np.ceil(tau * k)) - 1
    return sorted_vals[..., max(j, 0)]


class KNNMean:
    """Conditional-mean regressor by k-nearest-neighbor averaging.

    An optional per-feature weight vector rescales the metric (see
    `relevance_weights`); by default all features count equally.
    """

    def __init__(self, train_x, train_y, k, feature_weights=None):
        self.x = np.asarray(train_x, dtype=float)
        self.y = np.asarray(train_y, dtype=float)
        self.k = int(k)
        self.feature_weights = (None if feature_weights is None
                                else np.asarray(feature_weights, dtype=float))
        self.search = _Search(self.x, self.k, self.feature_weights)

    def predict(self, x):
        x = _as_2d(x, self.x.shape[1])
        return self.y[self.search(x)].mean(axis=1)


class KNNQuantile:
    """Conditional-quantile pair from the k-NN empirical distribution.

    The two predictions are sorted before returning, which enforces
    lower <= upper regardless of the underlying estimates.
    """

    def __init__(self, train_x, train_y, levels, k, feature_weights=None):
        lo, hi = float(levels[0]), float(levels[1])
        if not (0.0 < lo < 1.0) or not (0.0 < hi < 1.0):
            raise ValueError("quantile levels must lie in (0, 1)")
        if not lo < hi:
            raise ValueError(f"levels must satisfy lo < hi, got ({lo}, {hi})")
        self.x = np.asarray(train_x, dtype=float)
        self.y = np.asarray(train_y, dtype=float)
        self.levels = (lo, hi)
        self.k = int(k)
        self.feature_weights = (None if feature_weights is None
                                else np.asarray(feature_weights, dtype=float))
        self.search = _Search(self.x, self.k, self.feature_weights)

    def predict(self, x):
        """Return (q_lo, q_hi) arrays for the query points."""
        x = _as_2d(x, self.x.shape[1])
        neigh = np.sort(self.y[self.search(x)], axis=1)
        q_lo = _empirical_quantile(neigh, self.levels[0])
        q_hi = _empirical_quantile(neigh, self.levels[1])
        stacked = np.sort(np.stack([q_lo, q_hi]), axis=0)
        return stacked[0], stacked[1]


class LogisticPropensity:
    """Logistic-regression treatment model with clipped outputs.

    Standardization statistics are stored in the fitted model so query
    features are transformed exactly as the training features were.
    Predictions are clipped to [eta, 1 - eta].
    """

    def __init__(self, train_x, train_t, eta=0.01, penalty=1e-4,
                 step_size=0.1, n_iter=500):
        if not (0.0 < eta < 0.5):
            raise ValueError("eta must lie in (0, 0.5)")
        x = _finite(np.asarray(train_x, dtype=float))
        t = np.asarray(train_t, dtype=float)
        if len(np.unique(t)) < 2:
            raise ValueError("both treatment values must be present")
        self.eta = float(eta)
        self.mean_ = x.mean(axis=0)
        sd = x.std(axis=0)
        sd[sd == 0.0] = 1.0
        self.sd_ = sd
        z = (x - self.mean_) / self.sd_
        n, p = z.shape
        beta = np.zeros(p)
        intercept = 0.0
        for _ in range(n_iter):
            s = 1.0 / (1.0 + np.exp(-(z @ beta + intercept)))
            resid = t - s
            beta += step_size * (z.T @ resid / n - 2.0 * penalty * beta)
            intercept += step_size * resid.mean()
        self.beta_ = beta
        self.intercept_ = intercept

    def predict(self, x):
        x = _as_2d(x, self.mean_.shape[0])
        z = (x - self.mean_) / self.sd_
        e = 1.0 / (1.0 + np.exp(-(z @ self.beta_ + self.intercept_)))
        return np.clip(e, self.eta, 1.0 - self.eta)


def _default_k(n):
    return int(np.ceil(np.sqrt(n)))


def _metric_weights(scale, train_x, train_y):
    if scale is None:
        return None
    if scale == "relevance":
        return relevance_weights(train_x, train_y)
    raise ValueError(f"unknown metric scaling {scale!r}")


def fit_mean(train_x, train_y, k=None, scale=None) -> KNNMean:
    train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
    if train_x.shape[0] == 1 and np.asarray(train_y).size > 1:
        train_x = train_x.T
    n = train_x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 training pairs")
    return KNNMean(train_x, train_y, k or _default_k(n),
                   feature_weights=_metric_weights(scale, train_x, train_y))


def fit_quantile(train_x, train_y, levels, k=None, scale=None) -> KNNQuantile:
    train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
    if train_x.shape[0] == 1 and np.asarray(train_y).size > 1:
        train_x = train_x.T
    n = train_x.shape[0]
    lo, hi = float(levels[0]), float(levels[1])
    if 0.0 < lo < hi < 1.0:
        min_n = int(np.ceil(1.0 / min(lo, 1.0 - hi)))
        if n < min_n:
            raise ValueError(f"need at least {min_n} training pairs for levels {levels}")
    return KNNQuantile(train_x, train_y, levels, k or _default_k(n),
                       feature_weights=_metric_weights(scale, train_x, train_y))


def fit_propensity(train_x, train_t, eta=0.01, penalty=1e-4, step_size=0.1,
                   n_iter=500) -> LogisticPropensity:
    train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
    if train_x.shape[0] == 1 and np.asarray(train_t).size > 1:
        train_x = train_x.T
    return LogisticPropensity(train_x, train_t, eta=eta, penalty=penalty,
                              step_size=step_size, n_iter=n_iter)


def marginal_treatment_prob(treatment, t) -> float:
    """Empirical fraction of units in arm t; both arms must be present."""
    treatment = np.asarray(treatment)
    if treatment.size == 0:
        raise ValueError("empty dataset")
    frac = float(np.mean(treatment == t))
    if frac == 0.0 or frac == 1.0:
        raise ValueError(f"treatment arm {1 - t} is absent")
    return frac
