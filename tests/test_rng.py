import numpy as np
import pytest

from qupel import rng as rng_module
from qupel.data import make_blobs
from qupel.rng import _BULK_MIN, Rng, _gf2_matmul, _jump, _square

from helpers import reference_normal, reference_uniform


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = Rng(123)
        b = Rng(123)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_differ(self):
        assert Rng(1).next_u64() != Rng(2).next_u64()

    def test_state_round_trip(self):
        rng = Rng(5)
        rng.uniform(0, 1, 7)
        state = rng.getstate()
        want = [rng.next_u64() for _ in range(5)]
        rng2 = Rng(0)
        rng2.setstate(state)
        assert [rng2.next_u64() for _ in range(5)] == want

    def test_spawn_independent_and_reproducible(self):
        child1 = Rng(9).spawn(3)
        child2 = Rng(9).spawn(3)
        other = Rng(9).spawn(4)
        assert child1.next_u64() == child2.next_u64()
        assert Rng(9).spawn(3).next_u64() != other.next_u64()


class TestDistributions:
    def test_uniform_range_and_mean(self):
        vals = Rng(7).uniform(-2.0, 3.0, 4000)
        assert vals.min() >= -2.0 and vals.max() < 3.0
        assert abs(vals.mean() - 0.5) < 0.1

    def test_normal_moments(self):
        vals = Rng(11).normal(8000)
        assert abs(vals.mean()) < 0.05
        assert abs(vals.std() - 1.0) < 0.05

    def test_randint_bounds_and_coverage(self):
        rng = Rng(13)
        draws = [rng.randint(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(1).randint(0)


class TestSampling:
    def test_shuffle_is_permutation(self):
        rng = Rng(17)
        arr = np.arange(50)
        rng.shuffle(arr)
        assert sorted(arr.tolist()) == list(range(50))

    def test_sample_distinct(self):
        got = Rng(19).sample(30, 12)
        assert len(set(got.tolist())) == 12
        assert got.min() >= 0 and got.max() < 30

    def test_sample_validates(self):
        with pytest.raises(ValueError):
            Rng(1).sample(3, 5)

    @staticmethod
    def sample_with_full_pool(rng, n, k):
        """The O(n) partial Fisher-Yates over a materialised pool."""
        pool = list(range(n))
        for i in range(k):
            j = i + rng.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(pool[:k], dtype=np.int64)

    def test_sample_matches_full_pool_bitwise(self):
        picks = Rng(23)
        cases = [(0, 0), (1, 0), (1, 1), (5, 0), (5, 5), (64, 64), (8000, 32)]
        for _ in range(200):
            n = 1 + picks.randint(300)
            cases.append((n, picks.randint(n + 1)))
        for seed, (n, k) in enumerate(cases):
            got_rng, want_rng = Rng(seed), Rng(seed)
            for _ in range(2):  # a second draw starts from the state the first left
                got = got_rng.sample(n, k)
                want = self.sample_with_full_pool(want_rng, n, k)
                assert got.dtype == want.dtype and got.shape == want.shape == (k,)
                assert got.tobytes() == want.tobytes(), (n, k)
                assert got_rng.getstate() == want_rng.getstate(), (n, k)


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        Rng(-1)


@pytest.mark.parametrize("state", [(1, 2, 3), (1, 2, 3, 4, 5), ()], ids=["3", "5", "0"])
def test_setstate_refuses_wrong_length(state):
    rng = Rng(7)
    before = rng.getstate()
    with pytest.raises(ValueError, match="^state must have 4 words$"):
        rng.setstate(state)
    assert rng.getstate() == before


# ---------------------------------------------------------------------------
# the lane-parallel path against the scalar loops


SIZES = [0, 1, 2, 3, _BULK_MIN - 1, _BULK_MIN, _BULK_MIN + 1, 4000, 8000, 8001, 80001]
SEEDS = [0, 1, 7, 123, 2**63]


def assert_same_draws(got, want, got_rng, want_rng):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
class TestBulkDraws:
    def test_normal_equals_scalar_loop(self, n, seed):
        got_rng, want_rng = Rng(seed), Rng(seed)
        assert_same_draws(got_rng.normal(n), reference_normal(want_rng, n), got_rng, want_rng)

    def test_uniform_equals_scalar_loop(self, n, seed):
        got_rng, want_rng = Rng(seed), Rng(seed)
        assert_same_draws(got_rng.uniform(-1.5, 2.25, n),
                          reference_uniform(want_rng, -1.5, 2.25, n), got_rng, want_rng)


@pytest.mark.parametrize("low, high", [(-2, 3), (np.float32(-1.1), np.float32(2.3)),
                                       (np.float16(0.5), 1.7), (np.int64(-4), np.float64(0.3))],
                         ids=["int", "float32", "float16-float", "int64-float64"])
def test_uniform_keeps_the_loops_arithmetic_for_every_bound_type(low, high):
    for n in (_BULK_MIN - 1, _BULK_MIN):
        got_rng, want_rng = Rng(n), Rng(n)
        assert_same_draws(got_rng.uniform(low, high, n), reference_uniform(want_rng, low, high, n),
                          got_rng, want_rng)


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 255, 256, 257, 1000])
def test_lane_uniforms_at_every_lane_shape(n):
    # below the threshold too: one draw per lane, partial last lanes, one lane
    got_rng, want_rng = Rng(n), Rng(n)
    want = np.array([want_rng.random() for _ in range(n)])
    assert_same_draws(got_rng._uniforms(n), want, got_rng, want_rng)


def test_interleaved_scalar_and_bulk_draws():
    got_rng, want_rng = Rng(31), Rng(31)
    for _ in range(2):
        assert got_rng.next_u64() == want_rng.next_u64()
        assert_same_draws(got_rng.normal(4001), reference_normal(want_rng, 4001),
                          got_rng, want_rng)
        assert got_rng.normal() == reference_normal(want_rng, 1)[0]
        assert_same_draws(got_rng.uniform(0, 3, 2 * _BULK_MIN),
                          reference_uniform(want_rng, 0, 3, 2 * _BULK_MIN), got_rng, want_rng)
        assert got_rng.uniform(-1.0, 1.0) == reference_uniform(want_rng, -1.0, 1.0, 1)[0]
        assert_same_draws(got_rng.uniform(-1.0, 1.0, 7), reference_uniform(want_rng, -1.0, 1.0, 7),
                          got_rng, want_rng)
        assert got_rng.randint(1000) == want_rng.randint(1000)


def test_bulk_path_starts_at_the_threshold(monkeypatch):
    calls = []
    lanes = Rng._uniforms
    monkeypatch.setattr(Rng, "_uniforms", lambda self, n: calls.append(n) or lanes(self, n))
    rng = Rng(3)
    rng.normal(_BULK_MIN - 1)
    rng.uniform(0.0, 1.0, _BULK_MIN - 1)
    make_blobs(10, 8, 40, 0.65, 5)  # the shape of configs/qupel.json draws 320 normals a class
    assert calls == []
    rng.normal(_BULK_MIN)
    rng.uniform(0.0, 1.0, _BULK_MIN)
    assert calls == [_BULK_MIN + _BULK_MIN % 2, _BULK_MIN]


# ---------------------------------------------------------------------------
# the GF(2) jump-ahead


def advance(state, k):
    rng = Rng(0)
    rng.setstate(state)
    for _ in range(k):
        rng.next_u64()
    return rng.getstate()


def test_transition_rows_are_unit_states_after_one_step():
    t = _square(0)
    for j in range(256):
        unit = [0, 0, 0, 0]
        unit[j // 64] = 1 << (j % 64)
        assert tuple(int(w) for w in t[j]) == advance(unit, 1), j


@pytest.mark.parametrize("k", [1, 2, 255, 256, 1000, 65539])
def test_transition_power_equals_k_steps(k):
    for seed in (1, 2**63):
        state = Rng(seed).getstate()
        words = np.array([state], dtype="<u8")
        for bit in range(k.bit_length()):
            if k >> bit & 1:
                words = _jump(words, bit)
        assert tuple(int(w) for w in words[0]) == advance(state, k)


def xor_product(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for k in range(a.shape[1]):
        out ^= np.outer(a[:, k], b[k])
    return out


@pytest.mark.parametrize("shape", [(256, 256, 256), (1, 256, 256), (100, 256, 256), (3, 70, 130)])
def test_gemm_product_equals_xor_product(shape):
    m, k, n = shape
    draws = np.random.default_rng(k * n + m)
    for density in (0.5, 0.95):
        a = (draws.random((m, k)) < density).astype(np.uint8)
        b = (draws.random((k, n)) < density).astype(np.uint8)
        got = _gf2_matmul(a, b)
        assert got.dtype == np.uint8 and got.tobytes() == xor_product(a, b).tobytes()
    ones = np.ones((m, k), dtype=np.uint8), np.ones((k, n), dtype=np.uint8)
    assert (_gf2_matmul(*ones) == k % 2).all()  # every sum at its largest, k


def test_jump_cache_stays_small(monkeypatch):
    # one 8 KB power of the transition per bit of the largest draw count
    monkeypatch.setattr(rng_module, "_SQUARES", [])
    make_blobs(10, 8, 1000, 0.4, 1)  # 80 uniforms, then 8000 normals a class
    assert len(rng_module._SQUARES) == (8000 - 1).bit_length()
    assert sum(a.nbytes for a in rng_module._SQUARES) <= 256 * 1024
    sizes = range(_BULK_MIN, 100_000, 9973)
    for n in sizes:
        Rng(n).uniform(0.0, 1.0, n)
    assert len(rng_module._SQUARES) == (max(sizes) - 1).bit_length()
