import numpy as np
import pytest

from srmcmc import (CardinalityConditionedMeasure, CholeskyCache, LEnsemble,
                    ProductMeasure, TableMeasure, chains)

Q_PATTERN = [0.3, 0.8, 0.5, 0.6, 0.4, 0.7, 0.55, 0.35]
DIAG_PATTERN = [2.0, 3.0, 1.5, 0.7, 2.5, 0.9, 1.2, 3.5]


def product_fixture(n):
    return ProductMeasure([Q_PATTERN[i % len(Q_PATTERN)] for i in range(n)])


def diag_dpp_fixture(n):
    return LEnsemble(np.diag([DIAG_PATTERN[i % len(DIAG_PATTERN)]
                              for i in range(n)]))


def random_psd_fixture(n, seed=1234):
    rng = np.random.default_rng(seed + n)
    A = rng.standard_normal((n, n))
    return LEnsemble(A @ A.T / n)


def conditioned_fixture(n):
    return CardinalityConditionedMeasure(product_fixture(n), max(1, n // 2))


def fixture_suite(n):
    """The four standard small-instance fixtures at ground set size n."""
    return [
        ("product", product_fixture(n)),
        ("diag-dpp", diag_dpp_fixture(n)),
        ("random-psd-dpp", random_psd_fixture(n)),
        ("k-conditioned", conditioned_fixture(n)),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def singular_add_kernel(monkeypatch):
    """Rank-deficient kernel whose element 3 has a zero row, so it lies in
    the span of every S and L_{S+3} is exactly singular. The DPP cache's add
    ratio is forced to 1 for element 3, so a chain accepts that add."""
    original = CholeskyCache.add_ratio

    def forced(self, t):
        r = original(self, t)
        return 1.0 if t == 3 else r

    monkeypatch.setattr(CholeskyCache, "add_ratio", forced)
    return np.diag([1.0, 2.0, 3.0, 0.0])


@pytest.fixture
def metropolis_calls(monkeypatch):
    """Spy on ``chains._metropolis``: the steppers' every Metropolis decision
    is appended as (kind, acceptance probability min(1, r), s, t)."""
    calls = []
    original = chains._metropolis

    def spy(oracle, S, rng, kind, r, s=None, t=None):
        calls.append((kind, min(1.0, r), s, t))
        return original(oracle, S, rng, kind, r, s, t)

    monkeypatch.setattr(chains, "_metropolis", spy)
    return calls


def uniform_table(n):
    return TableMeasure(np.ones(1 << n))
