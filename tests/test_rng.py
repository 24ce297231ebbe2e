import numpy as np
import pytest

from qupel.rng import Rng


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
