import re
import warnings

import numpy as np
import pytest

from confsens import cssa
from confsens.cssa import (
    FractionalProgram,
    balance_constraints,
    balance_rhs,
    cssa_interval,
    cssa_threshold,
    cssa_threshold_batch,
    solve_fractional,
)
from confsens.csa import csa_interval, greedy_max_quantile
from confsens.msm import SensitivitySpec, min_miscoverage, weight_bounds_same_arm
from confsens.predictors import fit_mean, fit_propensity


def grid_oracle_fractional(tail_index, lo, hi, resolution=1e-3):
    """Brute-force reference for the unconstrained fractional program:
    scan each weight over a grid of its box, one value of the first
    weight at a time.  Exponential, tiny n (>= 2) only."""
    grids = [np.arange(lo[i], hi[i] + resolution / 2, resolution)
             for i in range(lo.shape[0])]
    mesh = np.meshgrid(*grids[1:], indexing="ij")
    rest = np.stack([m.ravel() for m in mesh], axis=1)
    best = -np.inf
    for first in grids[0]:
        w = np.column_stack([np.full(rest.shape[0], first), rest])
        vals = w[:, tail_index:].sum(axis=1) / w.sum(axis=1)
        best = max(best, float(vals.max()))
    return best


def sentinel_program(j, h, lo, hi, A, b, slack_rel):
    """A probe's fractional program from 1-based position j, with the
    sentinel as one more fixed weight (lo = hi = h) that no row covers."""
    return FractionalProgram(j - 1, np.append(lo, h), np.append(hi, h),
                             A_eq=np.column_stack([A, np.zeros(len(A))]),
                             b_eq=b, slack_rel=slack_rel)


def probe_one(j, lo, hi, A, b, level, slack_rel):
    """The probe pass with one row at position j: (tail, total), or None
    when the balance rows are infeasible."""
    tail, total = cssa._probe(np.array([j]), lo[None, :], hi[None, :], A, b,
                              level, slack_rel,
                              np.argsort(-A[0], kind="stable"))[:, 0]
    return None if np.isnan(tail) else (tail, total)


class TestBalanceRhs:
    def test_hand_value(self):
        # units: (t=1, e=0.5, g=2) and (t=0, e=0.5, g=7)
        got = balance_rhs(np.array([1, 0]), np.array([0.5, 0.5]),
                          np.array([2.0, 7.0]), t=1)
        assert got == pytest.approx(2.0)  # (2/0.5 + 0) / 2

    def test_control_arm(self):
        got = balance_rhs(np.array([1, 0]), np.array([0.5, 0.75]),
                          np.array([2.0, 1.0]), t=0)
        assert got == pytest.approx(2.0)  # (0 + 1/0.25) / 2


class TestBalanceConstraints:
    def test_rows_are_one_array_pair(self):
        # one row per covariate ("identity") or one propensity row, each
        # the arm's values over n_arm with the inverse-propensity mean as
        # its rhs, bit for bit
        x, t, _ = _arm_instance(seed=2)
        e = fit_propensity(x, t).predict(x)
        arm = t == 1
        cal_x, n_arm = x[arm], int(arm.sum())
        A, b = balance_constraints("identity", cal_x, x, t, e[arm], e, 1)
        assert np.array_equal(A, cal_x.T / n_arm)
        assert np.array_equal(b, [balance_rhs(t, e, x[:, j], 1)
                                  for j in range(x.shape[1])])
        A, b = balance_constraints("propensity", cal_x, x, t, e[arm], e, 1)
        assert np.array_equal(A, e[arm][None, :] / n_arm)
        assert np.array_equal(b, [balance_rhs(t, e, e, 1)])


class TestSolveFractional:
    @pytest.mark.parametrize("tail_index, lo, hi, match", [
        (0, [0.5, 2.0], [1.0, 1.0], "lo <= hi"),
        (0, [0.5, 0.5], [1.0], "lo <= hi"),
        (2, [0.5, 0.5], [1.0, 1.0], "tail_index out of range"),
        (-1, [0.5, 0.5], [1.0, 1.0], "tail_index out of range"),
    ])
    def test_program_refused(self, tail_index, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            FractionalProgram(tail_index=tail_index, lo=np.array(lo),
                              hi=np.array(hi))

    def test_constraint_width_refused(self):
        fp = FractionalProgram(tail_index=0, lo=np.array([0.5, 0.5]),
                               hi=np.array([1.0, 2.0]),
                               A_eq=np.ones((1, 3)), b_eq=np.ones(1))
        with pytest.raises(ValueError, match="number of variables"):
            solve_fractional(fp)

    def test_whole_range_tail_is_one(self):
        fp = FractionalProgram(tail_index=0, lo=np.array([0.5, 0.5]),
                               hi=np.array([1.0, 2.0]))
        res = solve_fractional(fp)
        assert res.feasible and res.value == pytest.approx(1.0)

    def test_top_atom_matches_min_miscoverage(self):
        # unconstrained max of the normalized sentinel mass equals the
        # minimum achievable miscoverage of the sensitivity model
        e_cal = np.array([0.3, 0.4, 0.45])
        e_t, gamma, p_t = 0.35, 2.0, 0.4
        lo_c, hi_c = weight_bounds_same_arm(e_cal, gamma, 1, p_t)
        lo_t, hi_t = weight_bounds_same_arm(np.array([e_t]), gamma, 1, p_t)
        fp = FractionalProgram(tail_index=3,
                               lo=np.append(lo_c, lo_t),
                               hi=np.append(hi_c, hi_t))
        res = solve_fractional(fp)
        want = min_miscoverage(e_cal, e_t, gamma, 1, p_t)
        assert res.value == pytest.approx(want)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 3
            lo = np.round(rng.uniform(0.1, 0.5, size=n), 2)
            hi = lo + np.round(rng.uniform(0.05, 0.3, size=n), 2)
            tail = int(rng.integers(0, n))
            res = solve_fractional(FractionalProgram(tail, lo, hi))
            want = grid_oracle_fractional(tail, lo, hi)
            assert res.value == pytest.approx(want, abs=2e-3)

    def test_weights_respect_box_and_constraint(self):
        lo = np.array([0.2, 0.2, 0.2])
        hi = np.array([1.0, 1.0, 1.0])
        A = np.array([[1.0, 1.0, 0.0]])
        b = np.array([1.0])
        res = solve_fractional(FractionalProgram(2, lo, hi, A_eq=A, b_eq=b))
        assert res.feasible
        w = res.weights
        assert np.all(w >= lo - 1e-9) and np.all(w <= hi + 1e-9)
        assert w[0] + w[1] == pytest.approx(1.0, abs=1e-5)

    def test_constraint_can_only_shrink_value(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 5
            lo = rng.uniform(0.1, 0.5, size=n)
            hi = lo + rng.uniform(0.05, 0.5, size=n)
            tail = int(rng.integers(0, n))
            a = rng.uniform(0.5, 1.5, size=n)
            mid = a @ ((lo + hi) / 2)
            free = solve_fractional(FractionalProgram(tail, lo, hi))
            tied = solve_fractional(FractionalProgram(
                tail, lo, hi, A_eq=a.reshape(1, -1), b_eq=np.array([mid])))
            assert tied.feasible
            assert tied.value <= free.value + 1e-9

    def test_infeasible_constraint(self):
        lo = np.array([0.2, 0.2])
        hi = np.array([0.4, 0.4])
        res = solve_fractional(FractionalProgram(
            0, lo, hi, A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([5.0])))
        assert not res.feasible


class TestBreakpointWalk:
    def test_single_constraint_probe_matches_lp_probe(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            lo = rng.uniform(0.1, 0.5, size=n)
            hi = lo + rng.uniform(0.05, 0.5, size=n)
            a = rng.uniform(0.2, 2.0, size=n)
            b = float(a @ ((lo + hi) / 2))
            h = rng.uniform(0.2, 1.0)
            j = int(rng.integers(1, n + 2))
            A, rhs = a.reshape(1, -1), np.array([b])
            got = probe_one(j, lo, hi, A, rhs, 0.2, 1e-6)
            lp = solve_fractional(sentinel_program(j, h, lo, hi, A, rhs,
                                                   1e-6))
            assert (got is not None) == lp.feasible
            if got is not None:
                tail, total = got
                assert (tail + h) / (total + h) == pytest.approx(lp.value,
                                                                 abs=1e-7)


class TestThreshold:
    def _instance(self, seed=0, n=20):
        rng = np.random.default_rng(seed)
        scores = np.sort(rng.normal(size=n))
        e = rng.uniform(0.25, 0.5, size=n)
        lo_c, hi_c = weight_bounds_same_arm(e, 2.0, 1, 0.4)
        lo_t, hi_t = weight_bounds_same_arm(np.array([0.35]), 2.0, 1, 0.4)
        v = np.append(scores, np.inf)
        lo = np.append(lo_c, lo_t)
        hi = np.append(hi_c, hi_t)
        g = rng.uniform(0.25, 0.5, size=n)
        return v, lo, hi, g, e

    def test_no_constraints_is_greedy(self):
        v, lo, hi, _, _ = self._instance()
        got = cssa_threshold(v, lo, hi, None, 0.2)
        assert got == greedy_max_quantile(v, lo, hi, 0.2).threshold

    def test_never_exceeds_greedy(self):
        for seed in range(5):
            v, lo, hi, g, _ = self._instance(seed=seed)
            mid = float(g @ ((lo[:-1] + hi[:-1]) / 2))
            got = cssa_threshold(v, lo, hi, (g[None, :], np.array([mid])),
                                 0.2)
            assert got <= greedy_max_quantile(v, lo, hi, 0.2).threshold

    def test_loose_constraint_recovers_greedy(self):
        v, lo, hi, g, _ = self._instance(seed=7)
        # a constraint satisfied across the whole box changes nothing
        wide = (np.zeros((1, g.size)), np.zeros(1))
        got = cssa_threshold(v, lo, hi, wide, 0.2)
        assert got == greedy_max_quantile(v, lo, hi, 0.2).threshold

    def test_infeasible_falls_back_with_warning(self):
        v, lo, hi, g, _ = self._instance(seed=8)
        with pytest.warns(UserWarning, match="infeasible"):
            got = cssa_threshold(v, lo, hi, (g[None, :], np.array([1e6])),
                                 0.2)
        assert got == greedy_max_quantile(v, lo, hi, 0.2).threshold

    def test_needs_sentinel(self):
        v, lo, hi, _, _ = self._instance()
        with pytest.raises(ValueError, match="sentinel"):
            cssa_threshold(v[:-1], lo[:-1], hi[:-1], None, 0.2)

    def test_misaligned_constraint_error(self):
        v, lo, hi, g, _ = self._instance()
        with pytest.raises(ValueError, match="cover the calibration"):
            cssa_threshold(v, lo, hi, (g[None, :-2], np.array([1.0])), 0.2)

    def test_rhs_count_must_match_rows(self):
        v, lo, hi, g, _ = self._instance()
        with pytest.raises(ValueError, match="one rhs per row"):
            cssa_threshold(v, lo, hi, (np.vstack([g, g]), np.array([1.0])),
                           0.2)

    @pytest.mark.parametrize("entry", ["coefficient", "rhs"])
    def test_non_finite_rows_refused_at_gamma_one(self, entry):
        # checked before the point box returns the greedy thresholds
        v, _, _, g, e = self._instance()
        w, _ = weight_bounds_same_arm(e, 1.0, 1, 0.4)
        A, b = g[None, :].copy(), np.array([1.0])
        (A[:, 3] if entry == "coefficient" else b)[:] = np.inf
        with pytest.raises(ValueError, match="finite"):
            cssa_threshold_batch(v[:-1], w, w, (A, b), 0.2, [1.0])

    def test_increasing_probe_values_raise(self, monkeypatch):
        v, lo, hi, g, _ = self._instance()
        con = g[None, :], np.array([1.0])
        # tail fractions that grow with the position break the search
        monkeypatch.setattr(cssa, "_probe", lambda j, *args: (
            0.001 * j, np.ones(j.size)))
        with pytest.raises(RuntimeError, match="probe"):
            cssa_threshold(v, lo, hi, con, 0.2)


class TestThresholdBatch:
    def test_matches_scalar(self):
        # per target, the threshold sits at the largest position whose
        # maximal tail fraction exceeds alpha: scan every position with
        # the fractional program (one row takes the greedy probe, two
        # rows the LP)
        for n_rows in (1, 2):
            self._check_against_scan(n_rows, n=25, alpha=0.2)

    def test_answers_on_every_position(self):
        # one target's answer on each position 1..n + 1, so a bisection
        # that skips a candidate position gets one of them wrong
        for n_rows in (1, 2):
            answers = self._check_against_scan(n_rows, n=16, alpha=0.98,
                                               spread=True)
            assert answers == set(range(1, 18))

    def _check_against_scan(self, n_rows, n, alpha, spread=False):
        """Check every target's batch threshold against its scan; return
        the set of 1-based answer positions."""
        rng = np.random.default_rng(4)
        scores = rng.normal(size=n)
        e = rng.uniform(0.25, 0.5, size=n)
        lo_c, hi_c = weight_bounds_same_arm(e, 2.0, 1, 0.4)
        g = rng.uniform(0.25, 0.5, size=(n_rows, n))
        mid = g @ ((lo_c + hi_c) / 2)
        order = np.argsort(scores, kind="stable")
        if spread:
            # position j passes for sentinels h above (alpha * total - tail)
            # / (1 - alpha) of its probe; one h between each two cut-offs
            cuts = np.array([
                (alpha * total - tail) / (1.0 - alpha)
                for tail, total in (probe_one(
                    j, lo_c[order], hi_c[order], g[:, order], mid, alpha,
                    1e-6) for j in range(1, n + 2))])
            hi_t = (np.maximum(cuts, 0.0)
                    + np.append(cuts[1:], 2.0 * cuts[-1] + 1.0)) / 2.0
        else:
            e_t = rng.uniform(0.25, 0.5, size=8)
            _, hi_t = weight_bounds_same_arm(e_t, 2.0, 1, 0.4)
        batch = cssa_threshold_batch(scores, lo_c, hi_c, (g, mid), alpha,
                                     hi_t)
        v = np.append(scores[order], np.inf)
        answers = set()
        for jt, h in enumerate(hi_t):
            probes = [solve_fractional(sentinel_program(
                j, h, lo_c[order], hi_c[order], g[:, order], mid, 1e-6))
                for j in range(1, n + 2)]
            assert all(p.feasible for p in probes)
            above = [j for j, p in enumerate(probes, start=1)
                     if p.value > alpha + 1e-12]
            assert above == list(range(1, len(above) + 1))
            assert batch[jt] == v[above[-1] - 1]
            answers.add(above[-1])
        return answers

    def test_empty_constraints_delegates_to_greedy(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=15)
        lo_c = rng.uniform(0.3, 0.6, size=15)
        hi_c = lo_c + 0.5
        h = rng.uniform(0.3, 1.0, size=4)
        got = cssa_threshold_batch(scores, lo_c, hi_c, None, 0.2, h)
        order = np.argsort(scores)
        from confsens.csa import greedy_threshold_batch
        want = greedy_threshold_batch(scores[order], lo_c[order],
                                      hi_c[order], h, 0.2)
        assert np.array_equal(got, want)

    def test_infeasible_warns_and_falls_back(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=10)
        lo_c = rng.uniform(0.3, 0.6, size=10)
        hi_c = lo_c + 0.2
        con = np.ones((1, 10)), np.array([1e6])
        with pytest.warns(UserWarning, match="infeasible"):
            got = cssa_threshold_batch(scores, lo_c, hi_c, con, 0.2,
                                       np.array([0.5, 0.8]))
        order = np.argsort(scores)
        from confsens.csa import greedy_threshold_batch
        want = greedy_threshold_batch(scores[order], lo_c[order],
                                      hi_c[order], np.array([0.5, 0.8]), 0.2)
        assert np.array_equal(got, want)


def _arm_instance(seed=0, n=300):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3))
    e = 0.25 + 0.25 * x[:, 0]
    t = (rng.uniform(size=n) < e).astype(int)
    y = x[:, 0] + rng.normal(size=n)
    return x, t, y


class TestInterval:
    def test_no_wider_than_unconstrained(self):
        x, t, y = _arm_instance()
        idx1 = np.flatnonzero(t == 1)
        fit_n = len(idx1) // 2
        mu = fit_mean(x[idx1[:fit_n]], y[idx1[:fit_n]])
        prop = fit_propensity(x, t)
        cal_x, cal_y = x[idx1[fit_n:]], y[idx1[fit_n:]]
        p_t = t.mean()
        x0 = np.array([0.5, 0.5, 0.5])
        for gamma in (1.5, 2.0, 3.0):
            spec = SensitivitySpec(gamma=gamma, alpha=0.2, t=1)
            plain = csa_interval(mu, prop, cal_x, cal_y, x0, spec, p_t)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no silent fallback
                sharp = cssa_interval(mu, prop, cal_x, cal_y, x0, spec,
                                      p_t, x, t)
            assert sharp.upper - sharp.lower \
                <= plain.upper - plain.lower + 1e-9

    def test_one_target_row_only(self):
        # a (1, p) row answers bit for bit as its (p,) row; a (2, p) block
        # or a (p, 1) column is refused, not read as one row
        x, t, y = _arm_instance()
        idx1 = np.flatnonzero(t == 1)
        fit_n = len(idx1) // 2
        mu = fit_mean(x[idx1[:fit_n]], y[idx1[:fit_n]])
        fit = (mu, fit_propensity(x, t), x[idx1[fit_n:]], y[idx1[fit_n:]])
        spec = SensitivitySpec(gamma=2.0, alpha=0.2, t=1)
        row = np.array([0.5, 0.5, 0.5])
        for per_target in (
                lambda x0: csa_interval(*fit, x0, spec, t.mean()),
                lambda x0: cssa_interval(*fit, x0, spec, t.mean(), x, t)):
            assert per_target(row[None, :]) == per_target(row)
            for bad in (x[:2], x[:3, :1]):
                with pytest.raises(ValueError, match="one target row.*"
                                   + re.escape(str(bad.shape))):
                    per_target(bad)

    def test_unknown_g_kind(self):
        x, t, y = _arm_instance(seed=1)
        idx1 = np.flatnonzero(t == 1)
        mu = fit_mean(x[idx1[:50]], y[idx1[:50]])
        prop = fit_propensity(x, t)
        spec = SensitivitySpec(gamma=2.0, alpha=0.2, t=1)
        with pytest.raises(ValueError, match="balancing"):
            cssa_interval(mu, prop, x[idx1[50:]], y[idx1[50:]],
                          x[0], spec, 0.35, x, t, g_kind="nope")
