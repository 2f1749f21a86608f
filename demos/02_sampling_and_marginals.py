"""Sampling a moderate DPP and recovering its marginals.

Builds an RBF-kernel L-ensemble over random points, runs the projection chain
from several seeds, and compares the pooled empirical inclusion marginals to
the closed form diag(L(I+L)^{-1}). A spectral (eigendecomposition) sampler
provides an i.i.d. baseline. Ends with the 2N^2 mixing-time upper bound for
the chain's start set.

Run:  python3 demos/02_sampling_and_marginals.py
"""
import numpy as np

from srmcmc import (ChainSpec, SpectralSampler, chain_rng, empirical_marginals,
                    l_to_marginal, rbf_kernel, run_chains, theorem_bound)
from srmcmc.chains import initial_state

rng = np.random.default_rng(7)
n = 40
m = rbf_kernel(rng.random((n, 2)), bandwidth=0.3)
K = l_to_marginal(m)
target = np.diag(K)
print(f"RBF L-ensemble on {n} random points in the unit square")
print(f"expected sample size trace(K) = {target.sum():.2f}")
print()

spec = ChainSpec("projection", steps=100_000, thin=10, seed=1)
transcripts = run_chains(m, spec, n_chains=6)
est, se = empirical_marginals(transcripts)
print(f"projection chain, 6 x {spec.steps} steps:")
print(f"  max |empirical - exact| marginal error = {np.max(np.abs(est - target)):.4f}")

sampler = SpectralSampler(m)
counts = np.zeros(n)
draws = 5000
for _ in range(draws):
    counts[list(sampler.sample(rng).indices())] += 1
print(f"spectral sampler, {draws} i.i.d. draws:")
print(f"  max |empirical - exact| marginal error = {np.max(np.abs(counts / draws - target)):.4f}")
print()

# Mixing-time guarantee from the chains' start set, the heaviest singleton,
# with pi(S0) = det(L_S0) / det(I + L).
S0 = initial_state(m, spec, chain_rng(spec.seed))
log_z = np.linalg.slogdet(np.eye(n) + m.L)[1]
bound = theorem_bound(n, S0.cardinality, m.log_weight(S0) - log_z, eps=0.01)
print(f"2N^2 mixing-time bound from S0 = {S0.indices().tolist()} at "
      f"eps = 0.01: {bound:,.0f} steps (conservative)")
