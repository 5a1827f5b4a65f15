"""Belief propagation on cycle factor graphs built from circuit pieces.

A cycle graph couples variables s_0 .. s_{L-1} through pairwise factors,
P(s) being proportional to the product of F_ell(s_{ell+1}, s_ell) around
the loop.  On the graphs built here the factors are slices of circuit
gates, forward messages reproduce the circuit's intermediate amplitudes
and backward messages are their transposes, so exact marginals come out
of a single sweep even though the graph has a loop.
"""

from __future__ import annotations

import math

import numpy as np

from .markov import _check_unit_interval
from .quantum import cnot, controlled_u, kron, protocol_states, P0

MAX_ENUM_BITS = 24
# Chained coin steps a bp-verify run takes: each step doubles the width of
# the dense gates the graph and the circuit route build.  Step 10 takes
# about 5 s and 186 MB, step 9 about 0.75 s and 72 MB (in-process runs at
# --p 0.3 on a 2-vCPU AMD EPYC VM, Python 3.11 and numpy 2.4; wall clock,
# peak RSS from resource.getrusage), so each step takes about seven times
# as long as the one before.
MAX_COIN_STEPS = 10


class AnnihilatingFactorError(ValueError):
    """A message became identically zero while propagating."""


class CycleFactorGraph:
    """Factors F_0 .. F_{L-1} with F_ell coupling s_ell to s_{ell+1 mod L}.

    ``factors[ell]`` has shape (dim of s_{ell+1}, dim of s_ell); the shapes
    must chain cyclically.
    """

    def __init__(self, factors):
        factors = [np.asarray(f, dtype=float) for f in factors]
        if len(factors) < 2:
            raise ValueError("a cycle needs at least two factors")
        for f in factors:
            if f.ndim != 2:
                raise ValueError("factors must be matrices")
        L = len(factors)
        for ell in range(L):
            if factors[ell].shape[1] != factors[ell - 1].shape[0]:
                raise ValueError(f"factor {ell} does not chain with factor "
                                 f"{(ell - 1) % L}")
        self.factors = factors

    @property
    def n_vars(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> list[int]:
        return [f.shape[1] for f in self.factors]


def _checked(values: np.ndarray) -> np.ndarray:
    if not values.any():
        raise AnnihilatingFactorError("annihilating factor")
    return values


def forward_pass(graph: CycleFactorGraph,
                 init: np.ndarray) -> list[np.ndarray]:
    """Propagate mu once around the cycle from mu_{0 -> 1} = init.

    Returns L + 1 unnormalized messages: one per variable, pointing along
    the factor order, plus the recirculated message at variable 0, whose
    equality with ``init`` is the self-consistency of the loop.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (graph.dims[0],):
        raise ValueError("init has the wrong dimension for variable 0")
    msgs = [_checked(init)]
    for factor in graph.factors:
        msgs.append(_checked(factor @ msgs[-1]))
    return msgs


def backward_pass(graph: CycleFactorGraph,
                  init: np.ndarray) -> list[np.ndarray]:
    """Propagate nu once around the cycle from nu at variable 0.

    The returned list is indexed by variable (position ell holds nu_ell),
    with the recirculated message at variable 0 appended at position L.
    nu_ell = nu_{ell+1} F_ell throughout, rows acting from the left.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (graph.dims[0],):
        raise ValueError("init has the wrong dimension for variable 0")
    L = graph.n_vars
    out: list = [None] * (L + 1)
    out[0] = current = _checked(init)
    for ell in range(L - 1, -1, -1):
        current = _checked(current @ graph.factors[ell])
        out[ell if ell > 0 else L] = current
    return out


def marginal(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Normalized elementwise product of the forward and the backward
    message at one variable."""
    prod = mu * nu
    z = prod.sum()
    if z == 0:
        raise ValueError("zero normalizer")
    return prod / z


def probability_matrix(graph: CycleFactorGraph, var: int) -> np.ndarray:
    """Cyclic product of all factors cut open at ``var``.

    P_var = F_{var-1} ... F_0 F_{L-1} ... F_var, a square matrix on the
    variable's space whose diagonal carries the unnormalized marginals.
    """
    L = graph.n_vars
    if not 0 <= var < L:
        raise ValueError(f"variable {var} out of range")
    P = np.eye(graph.dims[var])
    for k in range(L):
        P = graph.factors[(var + k) % L] @ P
    return P


def diagonal_distribution(P: np.ndarray) -> np.ndarray:
    z = np.trace(P)
    if z == 0:
        raise ValueError("zero normalizer")
    return np.diag(P) / z


def enumerable(graph: CycleFactorGraph) -> bool:
    """Whether ``brute_marginals`` takes the graph: MAX_ENUM_BITS at most."""
    return sum(math.log2(d) for d in graph.dims) <= MAX_ENUM_BITS + 1e-9


def brute_marginals(graph: CycleFactorGraph):
    """Marginals by exhaustive enumeration of the joint factor product.

    Walks every assignment with a nonzero weight (zero-weight branches are
    cut early; they contribute nothing to the sums).  Guarded to graphs of
    at most MAX_ENUM_BITS bits of joint state.
    """
    if not enumerable(graph):
        raise ValueError("graph too large to enumerate")
    dims = graph.dims
    L = graph.n_vars
    factors = graph.factors
    marg = [np.zeros(d) for d in dims]
    assign = [0] * L
    total = 0.0

    def descend(var: int, weight: float) -> None:
        nonlocal total
        if var == L:
            w = weight * factors[L - 1][assign[0], assign[L - 1]]
            if w != 0:
                total += w
                for ell in range(L):
                    marg[ell][assign[ell]] += w
            return
        column = factors[var - 1][:, assign[var - 1]]
        for s in column.nonzero()[0]:
            assign[var] = int(s)
            descend(var + 1, weight * column[s])

    for s0 in range(dims[0]):
        assign[0] = s0
        descend(1, 1.0)
    if total == 0:
        raise ValueError("zero normalizer")
    return [m / total for m in marg], total


def prep_factor(x) -> np.ndarray:
    """Half a preparation gate: |0> goes to (sqrt(1-x), sqrt(x)), |1> to 0.

    Equals u_x(x) with its free second column zeroed, so transposed factor
    times factor is the projector on |0> and mirrored graphs close into
    projectors instead of identities.
    """
    _check_unit_interval(x, "x")
    return np.array([[math.sqrt(1 - x), 0.0], [math.sqrt(x), 0.0]])


def _mirrored(up: list[np.ndarray]) -> list[np.ndarray]:
    return up + [f.T for f in reversed(up)]


def coin_graph(p, j: int, steps: int = 1) -> CycleFactorGraph:
    """Cycle graph of the coin protocol run for ``steps`` chained steps.

    The preparation factor carries x_j (p for state 0, 1-p for state 1) on
    the memory slot and p on the ancilla slot.  Every additional step
    splices in an expansion factor (a fresh ancilla column, no new
    preparation of the memory) followed by the CNOT on the last two slots.
    The second half of the cycle is the reversed transposes, so the product
    around the loop projects onto the all-zeros state.
    """
    if j not in (0, 1):
        raise ValueError(f"coin causal state must be 0 or 1, got {j}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x_j = p if j == 0 else 1 - p
    up = [kron(prep_factor(x_j), prep_factor(p)), cnot(2, 1, 2)]
    column = prep_factor(p)[:, :1]
    for m in range(2, steps + 1):
        up.append(kron(np.eye(2 ** m), column))
        up.append(kron(np.eye(2 ** (m - 1)), cnot(2, 1, 2)))
    return CycleFactorGraph(_mirrored(up))


def postproc_graph(p, q, j: int) -> CycleFactorGraph:
    """Cycle graph of the post-processed-coin protocol, one step.

    Preparation places G_j on the memory slot (projector for state 0, a
    prep factor of weight q for state 1, a basis shift for state 2) and
    projectors on the two ancilla slots; then the three gate factors of the
    circuit, then the mirror.
    """
    # State 1's preparation must send |0> to (sqrt(q), sqrt(1-q)), the
    # memory qubit of the middle causal state, hence the 1 - q argument.
    if j == 0:
        g = P0
    elif j == 1:
        g = prep_factor(1 - q)
    elif j == 2:
        g = np.array([[0.0, 0.0], [1.0, 0.0]])
    else:
        raise ValueError(f"causal state must be 0, 1 or 2, got {j}")
    up = [kron(g, P0, P0),
          controlled_u(3, 1, 3, prep_factor(p), control_value=0),
          controlled_u(3, 1, 2, prep_factor(1 - q), control_value=1),
          cnot(3, 3, 2)]
    return CycleFactorGraph(_mirrored(up))


def expected_messages(model: str, p, j: int, q=None,
                      steps: int = 1) -> list[np.ndarray]:
    """Circuit-side prediction for every forward message of a graph.

    Entry ell is the intermediate state of the (mirrored) circuit at the
    cut between factors ell-1 and ell; the last entry predicts the
    recirculated message.  The states come from
    ``quantum.protocol_states``, not from this module's factors, so a
    match with ``forward_pass`` is a genuine cross-check of two routes.
    """
    up = protocol_states(model, p, j, q=q, steps=steps)
    return up + up[-2::-1]
