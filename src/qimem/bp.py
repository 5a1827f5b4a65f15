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

from .markov import _check_unit_interval, post_processed_factors
from .quantum import (PROTOCOL_STEPS, X, chained_steps, controlled_u, kron,
                      protocol_states)

MAX_ENUM_BITS = 24
# Qubits a bp-verify register may reach: every dense gate of the graph and
# of the circuit route spans the register, so each qubit doubles its width.
# A model with a ancillas per step chains (MAX_QUBITS - 1) // a steps.  The
# coin's steps 9 and 10 take about 0.5 s at 69 MB and 3.6 s at 184 MB, the
# post-processed coin's steps 4 and 5 about 0.25 s at 45 MB and 11 s at
# 219 MB (in-process runs at --p 0.3, and at --p 0.2 --q 0.35, on a 2-vCPU
# AMD EPYC VM, Python 3.11 and numpy 2.4; wall clock, peak RSS from
# resource.getrusage).
MAX_QUBITS = 11


class AnnihilatingFactorError(ValueError):
    """A message became identically zero while propagating."""


class CycleFactorGraph:
    """Factors F_0 .. F_{L-1} with F_ell coupling s_ell to s_{ell+1 mod L}.

    ``factors[ell]`` has shape (dim of s_{ell+1}, dim of s_ell); the shapes
    must chain cyclically.  A factor that differs between the J states of a
    graph is a stack of shape (J, dim of s_{ell+1}, dim of s_ell), and every
    2-D factor is shared by all of them.  The messages and marginals of such
    a graph carry the state axis first.
    """

    def __init__(self, factors):
        factors = [np.asarray(f, dtype=float) for f in factors]
        if len(factors) < 2:
            raise ValueError("a cycle needs at least two factors")
        for f in factors:
            if f.ndim not in (2, 3):
                raise ValueError("factors must be matrices or stacks of them")
        stacks = {f.shape[0] for f in factors if f.ndim == 3}
        if len(stacks) > 1:
            raise ValueError("stacked factors differ in their number of states")
        L = len(factors)
        for ell in range(L):
            if factors[ell].shape[-1] != factors[ell - 1].shape[-2]:
                raise ValueError(f"factor {ell} does not chain with factor "
                                 f"{(ell - 1) % L}")
        self.factors = factors
        self.state_shape = tuple(stacks)

    @property
    def n_vars(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> list[int]:
        return [f.shape[-1] for f in self.factors]

    def state(self, j: int) -> CycleFactorGraph:
        """The graph of state j alone: every factor a matrix."""
        n = self.state_shape[0] if self.state_shape else 0
        if not 0 <= j < n:
            raise ValueError(f"state {j} is out of range for {n} states")
        return CycleFactorGraph([f[j] if f.ndim == 3 else f
                                 for f in self.factors])


def _checked(values: np.ndarray) -> np.ndarray:
    if not values.any(axis=-1).all():
        raise AnnihilatingFactorError("annihilating factor")
    return values


def _initial(graph: CycleFactorGraph, init) -> np.ndarray:
    """``init`` checked and repeated for every state of the graph."""
    init = np.asarray(init, dtype=float)
    if init.shape != (graph.dims[0],):
        raise ValueError("init has the wrong dimension for variable 0")
    return _checked(np.broadcast_to(init, graph.state_shape + init.shape))


def forward_pass(graph: CycleFactorGraph,
                 init: np.ndarray) -> list[np.ndarray]:
    """Propagate mu once around the cycle from mu_{0 -> 1} = init.

    Returns L + 1 unnormalized messages: one per variable, pointing along
    the factor order, plus the recirculated message at variable 0, whose
    equality with ``init`` is the self-consistency of the loop.
    """
    msgs = [_initial(graph, init)]
    for factor in graph.factors:
        msgs.append(_checked(np.matmul(factor, msgs[-1][..., None])[..., 0]))
    return msgs


def backward_pass(graph: CycleFactorGraph,
                  init: np.ndarray) -> list[np.ndarray]:
    """Propagate nu once around the cycle from nu at variable 0.

    The returned list is indexed by variable (position ell holds nu_ell),
    with the recirculated message at variable 0 appended at position L.
    nu_ell = nu_{ell+1} F_ell throughout, rows acting from the left.
    """
    L = graph.n_vars
    out: list = [None] * (L + 1)
    out[0] = current = _initial(graph, init)
    for ell in range(L - 1, -1, -1):
        current = _checked(
            np.matmul(current[..., None, :], graph.factors[ell])[..., 0, :])
        out[ell if ell > 0 else L] = current
    return out


def marginal(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Normalized elementwise product of the forward and the backward
    message at one variable."""
    prod = mu * nu
    z = prod.sum(axis=-1, keepdims=True)
    if not z.all():
        raise ValueError("zero normalizer")
    return prod / z


def cut_distribution(graph: CycleFactorGraph, var: int) -> np.ndarray:
    """Normalized diagonal of the cyclic product of all factors cut open at
    ``var``, one row per state of the graph.

    P_var = F_{var-1} ... F_0 F_{L-1} ... F_var is a square matrix on the
    variable's space whose diagonal carries the unnormalized marginals.
    The shared factors from F_var up to the first stacked one are
    multiplied once; each state's product is finished from there in turn,
    so one dense product is alive at a time.
    """
    L = graph.n_vars
    if not 0 <= var < L:
        raise ValueError(f"variable {var} out of range")
    order = [graph.factors[(var + k) % L] for k in range(L)]
    shared = next((k for k, f in enumerate(order) if f.ndim == 3), L)
    prefix = np.eye(graph.dims[var])
    for factor in order[:shared]:
        prefix = factor @ prefix
    out = np.empty(graph.state_shape + (graph.dims[var],))
    for j in np.ndindex(graph.state_shape):
        P = prefix
        for factor in order[shared:]:
            P = (factor[j] if factor.ndim == 3 else factor) @ P
        z = np.trace(P)
        if z == 0:
            raise ValueError("zero normalizer")
        out[j] = np.diag(P) / z
    return out


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
    return up + [np.swapaxes(f, -1, -2) for f in reversed(up)]


def protocol_graph(model: str, p, q=None, steps: int = 1) -> CycleFactorGraph:
    """Cycle graph of a protocol run for ``steps`` chained steps, from all
    of its causal states at once.

    The preparation factor, a stack over the states, prepares each state's
    bias on the memory slot and the first step's fresh ancillas.  Each
    further step splices in an expansion factor, which appends its ancilla
    columns, and every step's gates follow; these are shared.  The second
    half of the cycle is the reversed transposes, so the product around the
    loop projects onto the all-zeros state.
    """
    chain = list(chained_steps(model, steps))
    # postproc states prepare the roots of the latent bit's law from P(bit=0)
    memory = ([prep_factor(x) for x in (p, 1 - p)] if model == "coin" else [
        X @ prep_factor(x) for x in post_processed_factors(p, q)[0][:, 0]])
    rotations = {"0": prep_factor(0), "p": prep_factor(p), "X": X,
                 "1-q": None if q is None else X @ prep_factor(q)}
    step = PROTOCOL_STEPS[model]
    fresh = [rotations[a] for a in step.ancillas]
    up = [np.stack([kron(prep, *fresh) for prep in memory])]
    for m, (qubits, width) in enumerate(chain):
        if m:
            up.append(kron(np.eye(2 ** (width - len(fresh))),
                           *[f[:, :1] for f in fresh]))
        up += [controlled_u(width, qubits[c], qubits[t], rotations[name], v)
               for c, t, name, v in step.gates]
    return CycleFactorGraph(_mirrored(up))


def expected_messages(model: str, p, q=None,
                      steps: int = 1) -> list[np.ndarray]:
    """Circuit-side prediction for every forward message of a graph, one
    row per causal state.

    Entry ell is the intermediate state of the (mirrored) circuit at the
    cut between factors ell-1 and ell; the last entry predicts the
    recirculated message.  The states come from
    ``quantum.protocol_states``, not from this module's factors, so a
    match with ``forward_pass`` is a genuine cross-check of two routes.
    """
    up = protocol_states(model, p, q=q, steps=steps)
    return up + up[-2::-1]
