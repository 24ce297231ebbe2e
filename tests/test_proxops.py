import logging

import numpy as np
import pytest

from qupel.proxops import (
    ProxParams,
    _strictly_increasing,
    exact_prox_c_objective,
    prox_c,
    prox_x,
    regularizer,
)
from qupel.quantizer import CenterVector, hard_quantize, quantize_assignments
from qupel.diagnostics import prox_oracle_1d
from qupel.rng import Rng

from helpers import centers


class TestRegularizer:
    def test_zero_on_centers(self):
        assert regularizer(np.array([0.0, 1.0, 1.0]), centers(0.0, 1.0)) == 0.0

    def test_half_l1_to_nearest(self):
        # brute-force min over center assignments: 0.5 * (0.2 + 0.1)
        got = regularizer(np.array([0.2, 0.9]), centers(0.0, 1.0))
        assert got == pytest.approx(0.15, abs=1e-15)

    def test_far_point(self):
        assert regularizer(np.array([5.0]), centers(0.0, 1.0)) == pytest.approx(2.0, abs=1e-15)

    def test_nonnegative_random(self):
        rng = Rng(4)
        c = centers(-1.0, 0.3, 1.2)
        for _ in range(100):
            x = rng.uniform(-4, 4, 10)
            brute = 0.5 * sum(min(abs(v - cj) for cj in c.values) for v in x)
            assert regularizer(x, c) == pytest.approx(brute, abs=1e-12)


class TestProxX:
    def test_identity_at_zero_lambda(self):
        rng = Rng(8)
        c = centers(0.0, 1.0)
        y = rng.uniform(-2, 2, 50)
        out = prox_x(y, c, ProxParams(eta=0.7, lam=0.0))
        assert np.array_equal(out, y)

    def test_shrink_branch(self):
        out = prox_x(np.array([0.3]), centers(0.0, 1.0), ProxParams(eta=1.0, lam=0.2))
        assert out[0] == pytest.approx(0.2, abs=1e-15)

    def test_snap_branch(self):
        out = prox_x(np.array([0.05]), centers(0.0), ProxParams(eta=1.0, lam=0.2))
        assert out[0] == 0.0

    def test_oracle_equivalence_1d(self):
        rng = Rng(99)
        for _ in range(200):
            m = 1 + rng.randint(4)
            vals = np.sort(rng.uniform(-2, 2, m))
            for j in range(1, m):
                vals[j] = max(vals[j], vals[j - 1] + 0.2)
            c = CenterVector(vals)
            y = float(rng.uniform(-3, 3))
            el = float(rng.uniform(0, 1.5))
            got = prox_x(np.array([y]), c, ProxParams(eta=1.0, lam=el))[0]
            want = prox_oracle_1d(y, c, el, grid_step=1e-4)
            assert abs(got - want) < 2e-4

    def test_large_lambda_collapse_exact(self):
        rng = Rng(12)
        c = centers(-0.4, 0.9)
        for _ in range(100):
            y = rng.uniform(-3, 3, 6)
            gap = np.max(np.abs(y - hard_quantize(y, c)))
            p = ProxParams(eta=1.0, lam=2.0 * gap + 0.1)
            assert np.array_equal(prox_x(y, c, p), hard_quantize(y, c))

    def test_nonexpansive_within_branch(self):
        c = centers(0.0, 1.0)
        p = ProxParams(eta=1.0, lam=0.1)
        # both points on the upper shrink branch of the same cell
        a, b = np.array([0.30]), np.array([0.40])
        assert abs(prox_x(a, c, p)[0] - prox_x(b, c, p)[0]) <= abs(a[0] - b[0])

    def test_never_increases_regularizer(self):
        rng = Rng(31)
        c = centers(-1.0, 0.2, 1.4)
        for _ in range(200):
            y = rng.uniform(-3, 3, 8)
            p = ProxParams(eta=float(0.01 + rng.random()), lam=float(rng.random()))
            assert regularizer(prox_x(y, c, p), c) <= regularizer(y, c) + 1e-12


class TestProxC:
    def test_unassigned_center_keeps_mu(self):
        # all weights sit by the first center; second center gets no pull
        out = prox_c(np.array([0.0, 5.0]), np.array([0.1, -0.1]), centers(0.0, 5.0),
                     ProxParams(eta=1.0, lam=0.4))
        assert out.values[1] == 5.0

    def test_median_pull_direction(self):
        # both weights assigned to c_1 sit above it: c_1 is pulled up;
        # the single weight under c_2 sits below it: c_2 is pulled down.
        out = prox_c(np.array([0.1, 0.95]), np.array([0.2, 0.3, 0.9]), centers(0.0, 1.0),
                     ProxParams(eta=1.0, lam=0.1))
        np.testing.assert_allclose(out.values, [0.2, 0.9], atol=1e-15)

    def test_zero_lambda_identity(self):
        mu = np.array([-0.3, 0.8])
        out = prox_c(mu, np.array([0.5, -0.5]), centers(-0.4, 0.9), ProxParams(eta=1.0, lam=0.0))
        np.testing.assert_allclose(out.values, mu, atol=0)

    def test_median_fixed_point(self):
        # equal counts above and below leave mu untouched
        out = prox_c(np.array([0.0]), np.array([-0.5, 0.5, -0.2, 0.2]), centers(0.0),
                     ProxParams(eta=1.0, lam=0.8))
        assert out.values[0] == 0.0

    def test_on_center_coordinates_count_in_neither_set(self):
        out = prox_c(np.array([0.0]), np.array([0.0, 0.0, 0.7]), centers(0.0),
                     ProxParams(eta=1.0, lam=0.4))
        # only the strictly-above weight pulls
        assert out.values[0] == pytest.approx(0.2, abs=1e-15)

    def test_clips_to_c_max(self):
        out = prox_c(np.array([2.9]), np.array([2.0]), centers(2.0, c_max=3.0),
                     ProxParams(eta=1.0, lam=2.0))
        assert out.values[0] <= 3.0

    def test_center_crossing_warns_and_sorts(self, caplog, monkeypatch):
        import qupel.proxops as proxops_mod

        # the warning is emitted once per process
        monkeypatch.setattr(proxops_mod, "_crossing_logged", False)
        with caplog.at_level(logging.WARNING, logger="qupel.proxops"):
            out = prox_c(np.array([1.0, 0.0]), np.array([5.0]), centers(0.0, 1.0),
                         ProxParams(eta=1.0, lam=0.0))
        assert np.all(np.diff(out.values) > 0)
        assert any("center crossing" in r.message for r in caplog.records)

    def test_bitwise_equal_to_two_counts_and_argsort(self):
        # reference: separate above / below counts, and an argsort whenever it permutes
        rng = Rng(21)
        for _ in range(300):
            c = CenterVector(np.sort(rng.uniform(-2, 2, 4)), c_max=2.0)
            x = np.concatenate([rng.uniform(-3, 3, 12), c.values[[0, 2, 2]]])  # some on centers
            mu = c.values + rng.uniform(-1.5, 1.5, 4)  # often crosses
            p = ProxParams(eta=float(rng.uniform(0.1, 2.0)), lam=float(rng.uniform(0.0, 2.0)))
            assign = quantize_assignments(x, c)
            above = np.bincount(assign[x > c.values[assign]], minlength=4).astype(np.float64)
            below = np.bincount(assign[x < c.values[assign]], minlength=4).astype(np.float64)
            want = np.clip(mu + p.threshold * (above - below), -2.0, 2.0)
            want = _strictly_increasing(want[np.argsort(want, kind="stable")], 2.0)
            got = prox_c(mu, x, c, p).values
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_exact_objective_monitoring(self):
        mu = np.array([0.1, 0.95])
        p = ProxParams(eta=1.0, lam=0.1)
        val = exact_prox_c_objective(mu, mu, np.array([0.2, 0.3, 0.9]), p)
        # at c = mu the quadratic part vanishes; only the weighted l1 term remains
        assert val == pytest.approx((0.1 / 2) * (0.1 + 0.2 + 0.05), abs=1e-12)


@pytest.mark.parametrize("eta, lam, message", [
    (0.0, 0.1, "^eta must be a positive finite real$"),
    (-1.0, 0.1, "^eta must be a positive finite real$"),
    (np.inf, 0.1, "^eta must be a positive finite real$"),
    (np.nan, 0.1, "^eta must be a positive finite real$"),
    (1.0, -0.1, "^lambda must be a nonnegative finite real$"),
    (1.0, np.inf, "^lambda must be a nonnegative finite real$"),
    (1.0, np.nan, "^lambda must be a nonnegative finite real$"),
], ids=["eta-zero", "eta-negative", "eta-inf", "eta-nan", "lam-negative", "lam-inf", "lam-nan"])
def test_prox_params_refuse_out_of_range(eta, lam, message):
    with pytest.raises(ValueError, match=message):
        ProxParams(eta=eta, lam=lam)


@pytest.mark.parametrize("mu", [np.zeros(3), np.zeros(1), np.zeros((2, 1))],
                         ids=["long", "short", "column"])
def test_prox_c_refuses_misshaped_mu(mu):
    with pytest.raises(ValueError, match="^mu must have one entry per center$"):
        prox_c(mu, np.array([0.2, 0.8]), centers(0.0, 1.0), ProxParams(eta=1.0, lam=0.1))
