import numpy as np
import pytest

from qupel.quantizer import (
    CenterVector,
    QuantConfig,
    grad_soft_quantize_c,
    grad_soft_quantize_x,
    hard_grad_c,
    hard_quantize,
    quantize_assignments,
    sigmoid,
    soft_quantize,
)
from qupel.rng import Rng

from helpers import reference_sigmoid


def fd_jacobian_x(x, c, cfg, h=1e-6):
    d = x.size
    diag = np.zeros(d)
    for i in range(d):
        dx = np.zeros(d)
        dx[i] = h
        diag[i] = (soft_quantize(x + dx, c, cfg)[i] - soft_quantize(x - dx, c, cfg)[i]) / (2 * h)
    return diag


def fd_jacobian_c(x, c, cfg, h=1e-6):
    m, d = c.m, x.size
    jac = np.zeros((m, d))
    for j in range(m):
        up = c.values.copy()
        dn = c.values.copy()
        up[j] += h
        dn[j] -= h
        qu = soft_quantize(x, CenterVector(up, c_max=c.c_max), cfg)
        qd = soft_quantize(x, CenterVector(dn, c_max=c.c_max), cfg)
        jac[j] = (qu - qd) / (2 * h)
    return jac


class TestCenterVector:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            CenterVector(np.array([1.0, 0.0]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CenterVector(np.array([0.5, 0.5]))

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            CenterVector(np.array([-20.0, 0.0]), c_max=10.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CenterVector(np.array([]))

    @pytest.mark.parametrize("vals", [[np.nan], [0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]],
                             ids=["nan", "then-nan", "then-inf", "minus-inf-first"])
    def test_rejects_nonfinite(self, vals):
        with pytest.raises(ValueError):
            CenterVector(np.array(vals))

    def test_bits(self):
        assert CenterVector(np.array([-1.0, -0.5, 0.5, 1.0])).bits == 2.0


class TestSigmoid:
    # the masked oracle and the np.where form take exp of the same argument per element
    TINY = np.finfo(np.float64).smallest_subnormal
    EDGES = [0.0, -0.0, np.inf, -np.inf, TINY, -TINY, np.finfo(np.float64).tiny, 1e-300,
             -1e-300, 1.0, -1.0, 36.0, -36.0, 37.0, -37.0, 709.0, -709.0, 709.79, -709.79,
             745.0, -745.0, 745.2, -745.2, 746.0, -746.0, 1e300, -1e300,
             np.finfo(np.float64).max, -np.finfo(np.float64).max]

    @staticmethod
    def assert_bitwise(t):
        got, want = sigmoid(t), reference_sigmoid(t)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_edge_values(self):
        self.assert_bitwise(np.array(self.EDGES))
        for t in self.EDGES:  # one at a time, and as a 0-d input
            self.assert_bitwise(np.array([t]))
            self.assert_bitwise(np.float64(t))

    def test_random_values_at_every_scale(self):
        rng = np.random.default_rng(29)
        n = 10**6
        t = rng.standard_normal(n) * 10.0 ** rng.uniform(-320, 3, n)
        t[: n // 10] = rng.uniform(-800, 800, n // 10)
        self.assert_bitwise(t)
        self.assert_bitwise(t.reshape(100, 100, 100))  # a stacked (rows, d, m - 1) block

    def test_nan_gives_nan(self):
        out = sigmoid(np.array([np.nan, -np.nan, 0.0]))
        assert np.isnan(out[:2]).all() and out[2] == 0.5


class TestSoftQuantize:
    def test_single_center_is_constant(self):
        c = CenterVector(np.array([0.5]))
        out = soft_quantize(np.array([0.7]), c, QuantConfig(sharpness=3.0))
        assert out == pytest.approx([0.5], abs=0)

    def test_midpoint_symmetry(self):
        c = CenterVector(np.array([-1.0, 1.0]))
        out = soft_quantize(np.array([0.0]), c, QuantConfig(sharpness=1.0))
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        # 2*sigmoid(1) - 1 evaluated at x=0.5, c=(-1,1), P=2
        c = CenterVector(np.array([-1.0, 1.0]))
        out = soft_quantize(np.array([0.5]), c, QuantConfig(sharpness=2.0))
        assert out[0] == pytest.approx(0.46211715726, abs=1e-9)

    def test_rejects_nonfinite(self):
        c = CenterVector(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            soft_quantize(np.array([np.nan]), c, QuantConfig(sharpness=1.0))

    def test_rejects_hard_mode(self):
        c = CenterVector(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            soft_quantize(np.array([0.0]), c, QuantConfig(sharpness=1.0, hard_limit=True))

    def test_monotone_in_x(self):
        rng = Rng(5)
        c = CenterVector(np.array([-1.0, -0.2, 0.4, 1.3]))
        cfg = QuantConfig(sharpness=6.0)
        x = np.sort(rng.uniform(-2, 2, 64))
        q = soft_quantize(x, c, cfg)
        assert np.all(np.diff(q) >= 0)

    def test_pointwise_limit_to_hard(self):
        rng = Rng(11)
        c = CenterVector(np.array([-1.0, -0.1, 0.7, 1.4]))
        x = rng.uniform(-2, 2, 200)
        mids = c.midpoints()
        away = np.min(np.abs(x[:, None] - mids[None, :]), axis=1) >= 0.01
        hard = hard_quantize(x, c)
        errs = []
        for p in (10.0, 100.0, 1000.0, 1e4):
            soft = soft_quantize(x, c, QuantConfig(sharpness=p))
            errs.append(np.max(np.abs(soft - hard)[away]))
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 1e-4


class TestHardQuantize:
    def test_fixed_points(self):
        c = CenterVector(np.array([0.0, 1.0]))
        assert np.array_equal(hard_quantize(np.array([0.0, 1.0]), c), [0.0, 1.0])

    def test_midpoint_tie_takes_smaller(self):
        c = CenterVector(np.array([0.0, 1.0]))
        assert hard_quantize(np.array([0.5]), c)[0] == 0.0

    def test_nearest_center(self):
        c = CenterVector(np.array([0.0, 1.0]))
        got = hard_quantize(np.array([0.2, 0.8, -0.3]), c)
        # brute-force nearest-center oracle
        want = [c.values[np.argmin(np.abs(v - c.values))] for v in (0.2, 0.8, -0.3)]
        assert np.array_equal(got, want)

    def test_brute_force_agreement(self):
        rng = Rng(3)
        vals = np.sort(rng.uniform(-2, 2, 5))
        vals += np.arange(5) * 1e-3
        c = CenterVector(vals)
        x = rng.uniform(-3, 3, 500)
        got = hard_quantize(x, c)
        dist = np.abs(x[:, None] - c.values[None, :])
        want = c.values[np.argmin(dist, axis=1)]  # argmin takes first == smaller on ties
        assert np.array_equal(got, want)

    def test_idempotent(self):
        rng = Rng(9)
        c = CenterVector(np.array([-1.5, 0.2, 0.9]))
        x = rng.uniform(-3, 3, 100)
        once = hard_quantize(x, c)
        assert np.array_equal(hard_quantize(once, c), once)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hard_quantize(np.array([np.inf]), CenterVector(np.array([0.0])))


class TestGradX:
    def test_known_value(self):
        c = CenterVector(np.array([-1.0, 1.0]))
        g = grad_soft_quantize_x(np.array([0.5]), c, QuantConfig(sharpness=2.0))
        assert g[0] == pytest.approx(0.78644773, abs=1e-6)

    def test_single_center_zero(self):
        c = CenterVector(np.array([0.3]))
        g = grad_soft_quantize_x(np.array([5.0]), c, QuantConfig(sharpness=7.0))
        assert g[0] == 0.0

    def test_value_at_midpoint(self):
        # 4 * 2 * sigmoid'(0) = 8 * 0.25 = 2 exactly
        c = CenterVector(np.array([-1.0, 1.0]))
        g = grad_soft_quantize_x(np.array([0.0]), c, QuantConfig(sharpness=4.0))
        assert g[0] == pytest.approx(2.0, abs=1e-12)

    def test_bound_and_sign(self):
        rng = Rng(21)
        for trial in range(50):
            m = 2 + rng.randint(4)
            vals = np.sort(rng.uniform(-2, 2, m)) + np.arange(m) * 1e-3
            c = CenterVector(vals)
            p = 0.5 + 20 * rng.random()
            x = rng.uniform(-3, 3, 20)
            g = grad_soft_quantize_x(x, c, QuantConfig(sharpness=p))
            assert np.all(g >= 0)
            assert np.all(g <= p * (c.values[-1] - c.values[0]) / 4 + 1e-12)


class TestGradC:
    def test_single_center_ones(self):
        c = CenterVector(np.array([0.3]))
        jac = grad_soft_quantize_c(np.array([5.0, -1.0]), c, QuantConfig(sharpness=2.0))
        assert np.array_equal(jac, np.ones((1, 2)))

    def test_known_entry(self):
        c = CenterVector(np.array([-1.0, 1.0]))
        jac = grad_soft_quantize_c(np.array([0.5]), c, QuantConfig(sharpness=2.0))
        assert jac[0, 0] == pytest.approx(-0.12428278, abs=1e-6)

    def test_saturation_far_above(self):
        c = CenterVector(np.array([-1.0, 1.0]))
        jac = grad_soft_quantize_c(np.array([100.0]), c, QuantConfig(sharpness=2.0))
        assert jac[1, 0] == pytest.approx(1.0, abs=1e-6)
        assert jac[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_entry_bound(self):
        rng = Rng(31)
        for trial in range(50):
            m = 2 + rng.randint(4)
            vals = np.sort(rng.uniform(-2, 2, m)) + np.arange(m) * 1e-3
            c = CenterVector(vals)
            p = 0.5 + 10 * rng.random()
            x = rng.uniform(-3, 3, 15)
            jac = grad_soft_quantize_c(x, c, QuantConfig(sharpness=p))
            assert np.all(np.abs(jac) <= 2 + c.c_max * p / 2)


class TestFiniteDifferenceAgreement:
    def test_both_jacobians_on_random_draws(self):
        rng = Rng(1234)
        for trial in range(1000):
            d = 1 + rng.randint(6)
            m = 1 + rng.randint(5)
            vals = np.sort(rng.uniform(-2, 2, m))
            for j in range(1, m):
                vals[j] = max(vals[j], vals[j - 1] + 0.15)
            c = CenterVector(vals)
            p = 0.5 + 20 * rng.random()
            cfg = QuantConfig(sharpness=p)
            x = rng.uniform(-2.5, 2.5, d)
            gx = grad_soft_quantize_x(x, c, cfg)
            fx = fd_jacobian_x(x, c, cfg)
            denom = np.maximum(1.0, np.maximum(np.abs(gx), np.abs(fx)))
            assert np.max(np.abs(gx - fx) / denom) < 1e-5
            gc = grad_soft_quantize_c(x, c, cfg)
            fc = fd_jacobian_c(x, c, cfg)
            denom = np.maximum(1.0, np.maximum(np.abs(gc), np.abs(fc)))
            assert np.max(np.abs(gc - fc) / denom) < 1e-5


class TestHardGradC:
    def test_indicator_sum(self):
        got = hard_grad_c(np.array([0, 0, 1]), np.array([1.0, 2.0, 3.0]), 2)
        assert np.array_equal(got, [3.0, 3.0])

    def test_unassigned_center_zero(self):
        got = hard_grad_c(np.array([0, 0]), np.array([1.0, 1.0]), 3)
        assert np.array_equal(got, [2.0, 0.0, 0.0])

    def test_zero_upstream(self):
        got = hard_grad_c(np.array([0, 1, 2]), np.zeros(3), 3)
        assert np.array_equal(got, np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hard_grad_c(np.array([0, 1]), np.array([1.0]), 2)

    def test_nonfinite_and_single_center_assignments_in_range(self):
        # the step kernel does not scan its iterates: whatever they hold, the indices stay valid
        x = np.array([-np.inf, -1.0, 0.25, np.nan, np.inf])
        one = quantize_assignments(x, CenterVector(np.array([0.3])))
        assert one.dtype == np.int64 and np.array_equal(one, np.zeros(5))
        three = quantize_assignments(x, CenterVector(np.array([-1.0, 0.0, 2.0])))
        assert np.array_equal(three, [0, 0, 1, 2, 2])
        assert np.array_equal(hard_grad_c(three, np.ones(5), 3), [2.0, 1.0, 2.0])
        assert np.array_equal(hard_grad_c(one, np.ones(5), 1), [5.0])

    def test_matches_assignments(self):
        rng = Rng(77)
        c = CenterVector(np.array([-1.0, 0.0, 2.0]))
        x = rng.uniform(-3, 3, 40)
        up = rng.normal(40)
        assign = quantize_assignments(x, c)
        got = hard_grad_c(assign, up, c.m)
        want = np.array([up[assign == j].sum() for j in range(c.m)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("c_max", [0.0, -1.0, np.inf, np.nan])
def test_center_vector_refuses_bad_c_max(c_max):
    with pytest.raises(ValueError, match="^c_max must be a positive finite real$"):
        CenterVector(np.array([0.0]), c_max=c_max)


@pytest.mark.parametrize("sharpness", [0.0, -2.0, np.inf, np.nan])
def test_quant_config_refuses_bad_sharpness(sharpness):
    with pytest.raises(ValueError, match="^sharpness P must be a positive finite real$"):
        QuantConfig(sharpness=sharpness)


@pytest.mark.parametrize("assignments, m, message", [
    ([0, 0], 0, "^m must be >= 1$"),
    ([0, 2], 2, "^assignment index out of range$"),
    ([-1, 0], 2, "^assignment index out of range$"),
], ids=["m-zero", "index-above", "index-below"])
def test_hard_grad_c_refuses(assignments, m, message):
    with pytest.raises(ValueError, match=message):
        hard_grad_c(np.array(assignments), np.ones(2), m)
