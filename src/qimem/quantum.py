"""Real-amplitude qubit circuits realizing the sampling protocols.

All states and gates in this module are real.  Qubits are numbered from 1
and qubit 1 is the most significant tensor factor, so basis index
``b1 b2 ... bn`` (read as a binary number) addresses amplitude
``state[b1 * 2**(n-1) + ... + bn]``.

Besides the circuit steps themselves, the module computes the spectral
memory measures of a machine: the rank and von Neumann entropy of the
stationary mixture of amplitude-encoded causal states, read from the
spectrum of an n x n Gram matrix.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .markov import (EpsilonMachine, TransitionMatrix, _check_unit_interval,
                     binary_entropy, entropy_bits, induced_chain, stationary)

UNIT_TOL = 1e-12
ORTHO_TOL = 1e-12
EIG_FLOOR = -1e-10
RANK_TOL = 1e-10

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
P0 = np.array([[1.0, 0.0], [0.0, 0.0]])
P1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def n_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of vectors or of matrices, left to right.

    Each pair is one broadcast multiply: np.kron makes the same products
    a_ij * b_kl after its axis bookkeeping, so the entries are identical.
    """
    out = ops[0]
    for op in ops[1:]:
        if out.ndim == op.ndim == 1:
            out = (out[:, None] * op).ravel()
        elif out.ndim == op.ndim == 2:
            (m, n), (k, l) = out.shape, op.shape
            out = (out[:, None, :, None] * op[None, :, None, :]).reshape(
                m * k, n * l)
        else:
            raise ValueError("kron takes all vectors or all matrices, got "
                             f"shapes {out.shape} and {op.shape}")
    return out


def check_unit(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"state norm {norm!r} is not 1")
    return state


def check_orthogonal(gate: np.ndarray) -> np.ndarray:
    gate = np.asarray(gate, dtype=float)
    dev = np.max(np.abs(gate.T @ gate - np.eye(gate.shape[0])))
    if dev > ORTHO_TOL:
        raise ValueError(f"gate fails G^T G = I by {dev!r}")
    return gate


def u_x(x) -> np.ndarray:
    """The rotation sending |0> to (sqrt(1-x), sqrt(x)).

    Only the first column is fixed by the protocols; the second,
    (-sqrt(x), sqrt(1-x)), is never read: the BP factors zero it
    (``bp.prep_factor``), so a circuit that read it would fail bp-verify.
    """
    _check_unit_interval(x, "x")
    c, s = math.sqrt(1 - x), math.sqrt(x)
    return np.array([[c, -s], [s, c]])


def controlled_u(n: int, control: int, target: int, u: np.ndarray,
                 control_value: int = 1) -> np.ndarray:
    """n-qubit gate applying ``u`` to ``target`` when ``control`` reads
    ``control_value`` (qubit numbers start at 1).  It is built on the
    qubits from control to target, then padded with identities."""
    if control == target or not (1 <= control <= n and 1 <= target <= n):
        raise ValueError(f"bad control/target pair ({control}, {target})")
    lo, hi = min(control, target), max(control, target)
    on = [I2] * (hi - lo + 1)
    on[control - lo] = P1 if control_value else P0
    on[target - lo] = np.asarray(u, dtype=float)
    off = [I2] * (hi - lo + 1)
    off[control - lo] = P0 if control_value else P1
    gate = kron(*on) + kron(*off)
    if lo > 1:
        gate = kron(np.eye(2 ** (lo - 1)), gate)
    if hi < n:
        gate = kron(gate, np.eye(2 ** (n - hi)))
    return gate


def measure(state: np.ndarray, qubits: tuple[int, ...]) -> list:
    """Exact measurement of a subset of qubits in the computational basis.

    Returns one ``(outcome, probability, post_state)`` triple per basis
    outcome of the measured qubits, in lexicographic outcome order.
    ``post_state`` is the normalized state of the unmeasured qubits and is
    None when the branch has probability 0.  Probabilities are reported
    exactly as sums of squared amplitudes, so a branch never written by the
    circuit has probability 0.0 exactly.
    """
    state = check_unit(np.asarray(state, dtype=float))
    n = n_qubits(state.shape[0])
    if any(not 1 <= m <= n for m in qubits) or len(set(qubits)) != len(qubits):
        raise ValueError(f"bad measured-qubit set {qubits} for {n} qubits")
    cube = state.reshape((2,) * n)
    axes_m = [m - 1 for m in qubits]
    axes_r = [a for a in range(n) if a not in axes_m]
    block = cube.transpose(axes_m + axes_r).reshape(2 ** len(qubits), -1)
    results = []
    for idx in range(block.shape[0]):
        outcome = tuple((idx >> (len(qubits) - 1 - b)) & 1
                        for b in range(len(qubits)))
        branch = block[idx]
        prob = float(branch @ branch)
        post = branch / math.sqrt(prob) if prob > 0 else None
        results.append((outcome, prob, post))
    return results


def memory_spectrum(machine: EpsilonMachine, weights=None) -> np.ndarray:
    """Eigenvalues of the stationary memory state, descending, with tiny
    negatives (roundoff above the -1e-10 floor) clipped to 0.

    State i is encoded as the unit vector of amplitudes sqrt(P(x|i)) over
    its (symbol, successor) pairs, so two states overlap only where they
    share a pair.  The memory state sum_i w_i |sigma_i><sigma_i| has the
    nonzero spectrum of the n x n Gram matrix B B^T, where row i of B is
    sqrt(w_i) times state i's amplitudes over the distinct pairs of the
    machine's edges.  ``weights`` defaults to the stationary distribution of
    the induced chain; passing explicit weights supports limits where the
    chain itself is reducible.
    """
    if weights is None:
        weights = stationary(induced_chain(machine))
    w = np.array([float(v) for v in weights])
    if len(w) != machine.n:
        raise ValueError("one weight per hidden state required")
    if not (w >= 0).all():
        raise ValueError(f"weights {w.tolist()!r} are not all >= 0")
    if abs(w.sum() - 1.0) > UNIT_TOL:
        raise ValueError(f"weights sum to {w.sum()!r}, not 1")
    i, x = np.nonzero(machine.probs > 0)
    pairs, cols = np.unique(x * machine.n + machine.succ[i, x],
                            return_inverse=True)
    B = np.zeros((machine.n, pairs.size))
    B[i, cols] = np.sqrt(machine.probs[i, x].astype(np.float64))
    for state in B:
        check_unit(state)
    B *= np.sqrt(w)[:, None]
    vals = np.linalg.eigvalsh(B @ B.T)
    if vals[0] < EIG_FLOOR:
        raise ValueError("memory state has a significantly negative eigenvalue")
    return np.clip(vals[::-1], 0.0, None)


def quantum_topological_memory(machine: EpsilonMachine, weights=None) -> float:
    """log2 of the rank of the stationary memory state."""
    rank = int(np.sum(memory_spectrum(machine, weights) > RANK_TOL))
    if rank < 1:
        raise ValueError("no eigenvalue of the memory state exceeds "
                         f"{RANK_TOL!r}")
    return math.log2(rank)


def quantum_statistical_memory(machine: EpsilonMachine, weights=None) -> float:
    """Von Neumann entropy of the stationary memory state, in bits."""
    return entropy_bits(memory_spectrum(machine, weights))


def coin_quantum_memory(p) -> float:
    """Closed-form memory entropy of the perturbed coin.

    The stationary memory state has eigenvalues 1/2 +- sqrt(p(1-p)), so the
    entropy is the binary entropy of the larger one.  The oracle for the
    Gram route: ``quantum_statistical_memory(perturbed_coin(p))`` must agree
    with it to 1e-10.
    """
    _check_unit_interval(p, "p")
    return binary_entropy(0.5 + math.sqrt(float(p) * (1.0 - float(p))))


def memory_qubits(model: str, p, q=None) -> list[np.ndarray]:
    """Single-qubit causal states of a circuit model, state j at index j.

    The coin's state j is prepared by u_x(x_j) from |0>, with x_0 = p and
    x_1 = 1 - p.  The post-processed coin's states 0 and 2 are the basis
    states and state 1 has amplitudes (sqrt(q), sqrt(1-q)); they span one
    qubit for every q, which is what lets the three-state machine run on a
    single bit of memory.  Its p is not read.
    """
    e0 = np.array([1.0, 0.0])
    if model == "coin":
        return [u_x(p) @ e0, u_x(1 - float(p)) @ e0]
    if model != "postproc":
        raise ValueError(f"unknown circuit model {model!r}")
    if q is None:
        raise ValueError("postproc model needs q")
    q = float(q)
    _check_unit_interval(q, "q")
    return [e0, np.array([math.sqrt(q), math.sqrt(1 - q)]),
            np.array([0.0, 1.0])]


# One step of each circuit model on slot 0, its memory qubit, and slots 1..,
# its fresh ancillas: each ancilla's preparation, the gates as (control,
# target, rotation, control value), the slots of the symbol's bits, least
# significant first, and the slot that carries the memory on.  Each route
# makes its own matrices from the names: "0", "p" and "1-q" prepare those
# biases from |0>, and "X" is the bit flip.  The coin copies its memory onto
# a fresh |xi_0>; the post-processed coin runs the negated-control U_p on
# ancilla 2, the controlled U_{1-q} on ancilla 1 and CNOT(2 -> 1).
ProtocolStep = namedtuple("ProtocolStep", "ancillas gates outputs carry")
PROTOCOL_STEPS = {
    "coin": ProtocolStep(("p",), ((0, 1, "X", 1),), (0,), 1),
    "postproc": ProtocolStep(("0", "0"), ((0, 2, "p", 0), (0, 1, "1-q", 1),
                                          (2, 1, "X", 1)), (0, 2), 1),
}


def chained_steps(model: str, steps: int):
    """Yield each chained step's qubit per slot and register width: step 1's
    memory is qubit 1, a later step's is the carry slot of the step before,
    and every step appends its ancillas to the register."""
    if model not in PROTOCOL_STEPS:
        raise ValueError(f"unknown circuit model {model!r}")
    if steps < 1:
        raise ValueError(f"{model} protocol cannot run {steps} steps")
    step = PROTOCOL_STEPS[model]
    memory, width = 1, 1
    for _ in range(steps):
        qubits = (memory, *range(width + 1, width + 1 + len(step.ancillas)))
        width += len(step.ancillas)
        yield qubits, width
        memory = qubits[step.carry]


def protocol_states(model: str, p, q=None,
                    steps: int = 1) -> list[np.ndarray]:
    """Every register state of one protocol run, one row per causal state.

    The only place the protocols' gates are applied.  Entry 0 is the
    all-zeros register, entry 1 the prepared |xi_j> with its ancillas and
    each later entry the register after one more gate; row j of each entry
    is the run from causal state j.  Each chained ``PROTOCOL_STEPS[model]``
    step after the first starts by appending its fresh ancillas.
    """
    xi = np.array(memory_qubits(model, p, q))
    rotations = {"0": u_x(0), "p": u_x(p), "X": X,
                 "1-q": None if q is None else X @ u_x(float(q))}
    step = PROTOCOL_STEPS[model]
    fresh = [rotations[a][:, 0] for a in step.ancillas]
    e0 = np.array([1.0, 0.0])
    up = [_append(np.broadcast_to(e0, xi.shape), *[e0] * len(fresh)),
          _append(xi, *fresh)]
    for m, (qubits, width) in enumerate(chained_steps(model, steps)):
        if m:
            up.append(_append(up[-1], *fresh))
        for c, t, name, v in step.gates:
            up.append(_apply(controlled_u(width, qubits[c], qubits[t],
                                          rotations[name], v), up[-1]))
    return up


def _append(states: np.ndarray, *qubits: np.ndarray) -> np.ndarray:
    """``kron(row, *qubits)`` for every row of ``states``."""
    for qubit in qubits:
        states = (states[:, :, None] * qubit).reshape(len(states), -1)
    return states


def _apply(gate: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``gate @ row`` for every row of ``states``."""
    return np.matmul(gate, states[:, :, None])[:, :, 0]


def circuit_step_table(model: str, p, q=None) -> TransitionMatrix:
    """The chain a circuit realizes, for trajectory use.

    Entry [j, x] is the probability of measuring symbol x from causal
    state j, and the next state is x.  The coin measures qubit 1, which
    is x; the post-processed coin measures qubits 1 and 3 and emits
    x = y1 + 2*y3.  Every populated branch must leave the memory qubit
    within 1e-10 of causal state x's vector, which also refuses the
    post-processed coin's branch (y1, y3) = (1, 1), never populated.  The
    emitted distributions come from the circuit, not from the transition
    matrix, so walking this chain with ``markov.walk_chain`` exercises
    the quantum route end to end.
    """
    refs = memory_qubits(model, p, q)
    n = len(refs)  # both protocols emit one symbol per causal state
    slots, _ = next(chained_steps(model, 1))
    qubits = tuple(slots[s] for s in PROTOCOL_STEPS[model].outputs)
    probs = np.zeros((n, n))
    for j, psi in enumerate(protocol_states(model, p, q)[-1]):
        for y, pr, post in measure(psi, qubits):
            if pr == 0:
                continue
            x = sum(bit << i for i, bit in enumerate(y))
            if x >= n or np.linalg.norm(post - refs[x]) > 1e-10:
                raise ValueError(f"branch {y} from causal state {j} does not "
                                 f"leave causal state {x}")
            # a sum of squared amplitudes can pass 1 by an ulp
            probs[j, x] = min(pr, 1.0)
    return TransitionMatrix(probs)
