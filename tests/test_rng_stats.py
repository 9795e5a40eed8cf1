"""Deterministic RNG and statistics helpers."""

import pytest
from hypothesis import example, given, strategies as st

from repro.common.rng import DeterministicRng, derive_seed
from repro.common.stats import Cdf, boxplot, geometric_mean, mean, percentile


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42, "x")
        b = DeterministicRng(42, "x")
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_purpose_different_stream(self):
        a = DeterministicRng(42, "x")
        b = DeterministicRng(42, "y")
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_fork_independent_of_consumption(self):
        # Consuming from the parent must not perturb a fork's stream.
        a = DeterministicRng(7, "root")
        fork_before = a.fork("child").randint(0, 10**9)
        b = DeterministicRng(7, "root")
        for _ in range(100):
            b.random()
        fork_after = b.fork("child").randint(0, 10**9)
        assert fork_before == fork_after

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_sample_and_shuffle(self):
        rng = DeterministicRng(3, "s")
        population = list(range(100))
        sample = rng.sample(population, 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10
        shuffled = list(range(10))
        rng.shuffle(shuffled)
        assert sorted(shuffled) == list(range(10))

    def test_zipf_index_bounds_and_skew(self):
        rng = DeterministicRng(1, "z")
        draws = [rng.zipf_index(50, skew=1.2) for _ in range(2000)]
        assert all(0 <= d < 50 for d in draws)
        # Zipf: low indexes dominate.
        low = sum(1 for d in draws if d < 10)
        assert low > len(draws) * 0.5

    def test_zipf_index_rejects_empty(self):
        with pytest.raises(ValueError):
            DeterministicRng(1, "z").zipf_index(0)

    def test_choices_weighted(self):
        rng = DeterministicRng(5, "w")
        picks = rng.choices([0, 1], weights=[0.0, 1.0], k=50)
        assert picks == [1] * 50

    @given(st.integers(min_value=0, max_value=2**31),
           st.text(min_size=1, max_size=20))
    def test_derive_seed_is_64_bit(self, seed, purpose):
        value = derive_seed(seed, purpose)
        assert 0 <= value < 2**64


class TestStats:
    def test_mean(self):
        assert mean([]) == 0.0
        assert mean([2, 4, 6]) == 4.0

    def test_geometric_mean(self):
        assert geometric_mean([4, 16]) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            geometric_mean([1, 0])

    def test_percentile_interpolates(self):
        data = [0.0, 10.0]
        assert percentile(data, 0.5) == 5.0
        assert percentile(data, 0.0) == 0.0
        assert percentile(data, 1.0) == 10.0

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    @pytest.mark.parametrize("fraction", [-0.1, 1.1, 25.0, -1.0])
    def test_percentile_fraction_out_of_range_raises(self, fraction):
        """Fractions outside [0, 1] (e.g. a percentage passed by
        mistake) must raise, not index past the ends of the data."""
        with pytest.raises(ValueError, match=r"\[0\.0, 1\.0\]"):
            percentile([1.0, 2.0, 3.0], fraction)

    def test_boxplot_five_numbers(self):
        box = boxplot([5, 1, 3, 2, 4])
        assert box.minimum == 1
        assert box.median == 3
        assert box.maximum == 5
        assert box.q1 == 2
        assert box.q3 == 4
        assert box.count == 5
        assert box.iqr == 2

    def test_boxplot_format_row(self):
        row = boxplot([1.0, 2.0, 3.0]).format_row("label", scale=1.0)
        assert "label" in row and "med=" in row

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=200))
    @example([5e-324, 5e-324])
    def test_boxplot_ordering_invariant(self, values):
        box = boxplot(values)
        assert (box.minimum <= box.q1 <= box.median
                <= box.q3 <= box.maximum)


class TestCdf:
    def test_fractions(self):
        cdf = Cdf([1, 2, 2, 3])
        assert cdf.total == 4
        assert cdf.fraction_at_most(1) == 0.25
        assert cdf.fraction_at_most(2) == 0.75
        assert cdf.fraction_at_least(2) == 0.75
        assert cdf.fraction_at_least(4) == 0.0

    def test_empty(self):
        assert Cdf([]).fraction_at_most(10) == 0.0

    def test_points_monotone(self):
        cdf = Cdf([5, 1, 3, 3, 9])
        points = cdf.points()
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    @given(st.lists(st.integers(min_value=0, max_value=16), min_size=1))
    def test_cdf_total_and_bounds(self, samples):
        cdf = Cdf(samples)
        assert cdf.total == len(samples)
        assert cdf.fraction_at_most(16) == pytest.approx(1.0)
        assert cdf.fraction_at_least(0) == pytest.approx(1.0)
