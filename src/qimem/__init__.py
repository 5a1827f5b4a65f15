"""Memory-frugal samplers for finite stochastic processes.

The package ties together four views of the same processes: unifilar
machines and their induced chains (``markov``), real-amplitude circuit
protocols and spectral memory measures (``quantum``), save/reroute ensemble
samplers (``samplers``) and belief propagation on cycle factor graphs
(``bp``), with the next-symbol frequency test in ``stats`` and a CLI in
``cli``.
"""

from .markov import (ConvergenceError, EpsilonMachine, ReducibleChainError,
                     TransitionMatrix, coin_mutual_info_bound, context_law,
                     entropy_bits, exact_kgram_distribution, induced_chain,
                     machine_from_chain, perturbed_coin, post_processed_coin,
                     sample_edges, sample_trajectory, stationary,
                     statistical_memory, topological_memory)
from .quantum import (coin_quantum_memory, quantum_causal_states,
                      quantum_statistical_memory, quantum_topological_memory,
                      stationary_density)
from .samplers import (CoinEnsemble, DegenerateSupportError, GeneralQISampler,
                       RerouteTables, StochasticBitMachine, decompose,
                       effective_kernel, expected_memory, save_fractions,
                       reroute_ratios, three_state_demo_chain)
from .stats import (TransitionReport, compare_transitions, context_counts,
                    transition_counts)

__all__ = [name for name in dir() if not name.startswith("_")]
