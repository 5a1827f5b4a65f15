"""Memory-frugal samplers for finite stochastic processes.

The package ties together four views of the same processes: unifilar
machines and their induced chains (``markov``), real-amplitude circuit
protocols and spectral memory measures (``quantum``), save/reroute ensemble
samplers (``samplers``) and belief propagation on cycle factor graphs
(``bp``), with the next-symbol frequency test in ``stats`` and a CLI in
``cli``.
"""

from .markov import (ConvergenceError, EpsilonMachine, ReducibleChainError,
                     TransitionMatrix, coin_mutual_info_bound, entropy_bits,
                     induced_chain, machine_from_chain, perturbed_coin,
                     post_processed_coin, post_processed_factors,
                     stationary, statistical_memory, topological_memory,
                     walk_chain)
from .quantum import (coin_quantum_memory, memory_spectrum,
                      quantum_statistical_memory, quantum_topological_memory)
from .samplers import (CoinEnsemble, DegenerateSupportError, GeneralQISampler,
                       RerouteTables, decompose, effective_kernel,
                       expected_memory, factor_chain, factor_start,
                       reroute_ratios, save_fractions, three_state_demo_chain)
from .stats import (TransitionReport, compare_transitions, transition_counts,
                    word_counts)

__all__ = [name for name in dir() if not name.startswith("_")]
