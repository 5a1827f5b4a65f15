"""Real-amplitude qubit circuits realizing the sampling protocols.

All states and gates in this module are real.  Qubits are numbered from 1
and qubit 1 is the most significant tensor factor, so basis index
``b1 b2 ... bn`` (read as a binary number) addresses amplitude
``state[b1 * 2**(n-1) + ... + bn]``.

Besides the circuit steps themselves, the module computes the spectral
memory measures of a machine: the rank and von Neumann entropy of the
stationary mixture of amplitude-encoded causal states.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .markov import (EpsilonMachine, _check_unit_interval, binary_entropy,
                     induced_chain, stationary)

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
    return reduce(np.kron, ops)


def check_unit(state: np.ndarray, tol: float = UNIT_TOL) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state norm {norm!r} is not 1")
    return state


def check_orthogonal(gate: np.ndarray, tol: float = ORTHO_TOL) -> np.ndarray:
    gate = np.asarray(gate, dtype=float)
    dev = np.max(np.abs(gate.T @ gate - np.eye(gate.shape[0])))
    if dev > tol:
        raise ValueError(f"gate fails G^T G = I by {dev!r}")
    return gate


def u_x(x, completion: str = "rotation") -> np.ndarray:
    """Orthogonal 2x2 gate sending |0> to (sqrt(1-x), sqrt(x)).

    Only the first column is fixed by the protocols; the second is an
    arbitrary completion.  ``rotation`` uses (-sqrt(x), sqrt(1-x)) and
    ``reflection`` uses (sqrt(x), -sqrt(1-x)); every consumer must be
    insensitive to the choice.
    """
    _check_unit_interval(x, "x")
    c, s = math.sqrt(1 - x), math.sqrt(x)
    if completion == "rotation":
        return np.array([[c, -s], [s, c]])
    if completion == "reflection":
        return np.array([[c, s], [s, -c]])
    raise ValueError(f"unknown completion {completion!r}")


def controlled_u(n: int, control: int, target: int, u: np.ndarray,
                 control_value: int = 1) -> np.ndarray:
    """n-qubit gate applying ``u`` to ``target`` when ``control`` reads
    ``control_value`` (qubit numbers start at 1)."""
    if control == target or not (1 <= control <= n and 1 <= target <= n):
        raise ValueError(f"bad control/target pair ({control}, {target})")
    proj_on = P1 if control_value else P0
    proj_off = P0 if control_value else P1
    on = [I2] * n
    on[control - 1] = proj_on
    on[target - 1] = np.asarray(u, dtype=float)
    off = [I2] * n
    off[control - 1] = proj_off
    return kron(*on) + kron(*off)


def cnot(n: int, control: int, target: int) -> np.ndarray:
    return controlled_u(n, control, target, X)


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


def quantum_causal_states(machine: EpsilonMachine) -> list[np.ndarray]:
    """Amplitude-encoded causal states on the (state x output) product space.

    State i maps to the unit vector with amplitude sqrt(P(x, j | i)) at the
    flat index j * |alphabet| + position of x.  Pairwise overlaps are the
    sums of square-root transition products, which is what makes the
    encoding compressible below the classical state count.
    """
    a = len(machine.symbols)
    pos = {x: c for c, x in enumerate(machine.symbols)}
    out = []
    for i in range(machine.n):
        vec = np.zeros(machine.n * a)
        for x, pr in machine.emit[i].items():
            vec[machine.succ[i][x] * a + pos[x]] = math.sqrt(float(pr))
        out.append(check_unit(vec))
    return out


def stationary_density(machine: EpsilonMachine,
                       weights=None) -> np.ndarray:
    """Stationary mixture of the amplitude-encoded causal states.

    ``weights`` defaults to the stationary distribution of the induced
    chain; passing explicit weights supports limits where the chain itself
    is reducible.
    """
    states = quantum_causal_states(machine)
    if weights is None:
        weights = stationary(induced_chain(machine))
    weights = [float(w) for w in weights]
    if len(weights) != machine.n:
        raise ValueError("one weight per hidden state required")
    rho = sum(w * np.outer(s, s) for w, s in zip(weights, states))
    return check_density(rho)


def check_density(rho: np.ndarray, tol: float = UNIT_TOL) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if np.max(np.abs(rho - rho.T)) > tol:
        raise ValueError("density matrix is not symmetric")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"density trace {np.trace(rho)!r} is not 1")
    if np.min(np.linalg.eigvalsh(rho)) < EIG_FLOOR:
        raise ValueError("density matrix has a significantly negative eigenvalue")
    return rho


def density_spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, descending, with tiny negatives
    (roundoff above the -1e-10 floor) clipped to 0."""
    vals = np.linalg.eigvalsh(check_density(rho))
    return np.clip(vals[::-1], 0.0, None)


def quantum_topological_memory(rho: np.ndarray, tol: float = RANK_TOL) -> float:
    """log2 of the rank of the stationary memory state."""
    rank = int(np.sum(density_spectrum(rho) > tol))
    if rank < 1:
        raise ValueError(f"no eigenvalue of the memory state exceeds {tol!r}")
    return math.log2(rank)


def quantum_statistical_memory(rho: np.ndarray) -> float:
    """Von Neumann entropy of the stationary memory state, in bits."""
    vals = density_spectrum(rho)
    return float(-(vals[vals > 0] * np.log2(vals[vals > 0])).sum())


def coin_quantum_memory(p) -> float:
    """Closed-form memory entropy of the perturbed coin.

    The stationary memory state has eigenvalues 1/2 +- sqrt(p(1-p)), so the
    entropy is the binary entropy of the larger one.  Must agree with the
    eigensolver route through ``stationary_density`` to 1e-10.
    """
    _check_unit_interval(p, "p")
    return binary_entropy(0.5 + math.sqrt(float(p) * (1.0 - float(p))))


def coin_memory_qubits(p, completion: str = "rotation") -> list[np.ndarray]:
    """Single-qubit causal states of the perturbed coin: state j is
    prepared by u_x(x_j) from |0>, with x_0 = p and x_1 = 1 - p."""
    e0 = np.array([1.0, 0.0])
    return [u_x(p, completion) @ e0, u_x(1 - float(p), completion) @ e0]


def postproc_memory_qubits(q) -> list[np.ndarray]:
    """Single-qubit causal states of the post-processed coin.

    States 0 and 2 are the basis states; state 1 interpolates with
    amplitudes (sqrt(q), sqrt(1-q)).  They span one qubit for every q, which
    is what lets the three-state machine run on a single bit of memory.
    """
    q = float(q)
    _check_unit_interval(q, "q")
    return [np.array([1.0, 0.0]),
            np.array([math.sqrt(q), math.sqrt(1 - q)]),
            np.array([0.0, 1.0])]


def _memory_qubits(model: str, p, q, completion: str) -> list[np.ndarray]:
    if model == "coin":
        return coin_memory_qubits(p, completion)
    if model == "postproc":
        if q is None:
            raise ValueError("postproc model needs q")
        return postproc_memory_qubits(q)
    raise ValueError(f"unknown circuit model {model!r}")


def protocol_states(model: str, p, j: int, q=None, steps: int = 1,
                    completion: str = "rotation") -> list[np.ndarray]:
    """Every register state of one protocol run from causal state j.

    The only place the protocols' gates are applied.  Entry 0 is the
    all-zeros register, entry 1 the prepared |xi_j> with its ancillas and
    each later entry the register after one more gate.  The coin runs
    ``steps`` chained steps: CNOT(1 -> 2) on |xi_j>|xi_0>, then per extra
    step a fresh ancilla |xi_0> appended and a CNOT from the previous
    memory qubit onto it, so qubits 1..k carry the outputs and qubit k+1
    the memory.  The post-processed coin runs one step on |xi_j>|0>|0>:
    the negated-control U_p on qubit 3, the controlled U_{1-q} on qubit 2
    and CNOT(3 -> 2).
    """
    xi = _memory_qubits(model, p, q, completion)
    if j not in range(len(xi)):
        raise ValueError(f"{model} causal state must be below {len(xi)}, "
                         f"got {j}")
    if steps < 1 or (model == "postproc" and steps != 1):
        raise ValueError(f"{model} protocol cannot run {steps} steps")
    e0 = np.array([1.0, 0.0])
    if model == "coin":
        up = [kron(e0, e0), kron(xi[j], xi[0])]
        up.append(cnot(2, 1, 2) @ up[-1])
        for m in range(2, steps + 1):
            up.append(kron(up[-1], xi[0]))
            up.append(kron(np.eye(2 ** (m - 1)), cnot(2, 1, 2)) @ up[-1])
        return up
    up = [kron(e0, e0, e0), kron(xi[j], e0, e0)]
    for gate in (controlled_u(3, 1, 3, u_x(p, completion), control_value=0),
                 controlled_u(3, 1, 2, u_x(1 - float(q), completion)),
                 cnot(3, 3, 2)):
        up.append(gate @ up[-1])
    return up


def protocol_step(model: str, j: int, p, q=None,
                  completion: str = "rotation") -> list:
    """One measured protocol step from causal state j.

    Returns ``(x, probability, post_memory_state)`` triples sorted by the
    emitted symbol x.  The coin measures qubit 1, which is x, and its
    memory qubit lands on |xi_x>.  The post-processed coin measures qubits
    1 and 3, emits x = y1 + 2*y3 and leaves |xi_x> on qubit 2; its branch
    (y1, y3) = (1, 1) is never populated, which is what keeps the symbol
    map injective.
    """
    psi = protocol_states(model, p, j, q, completion=completion)[-1]
    out = []
    for y, pr, post in measure(psi, (1,) if model == "coin" else (1, 3)):
        if y == (1, 1):
            if pr != 0.0:
                raise ValueError(f"forbidden branch (1, 1) has probability {pr!r}")
            continue
        out.append((sum(bit << i for i, bit in enumerate(y)), pr, post))
    return sorted(out)


def coin_two_step_distribution(j: int, p) -> dict:
    """Exact law of the output pair (b1, b2) of two chained coin steps."""
    theta = protocol_states("coin", p, j, steps=2)[-1]
    return {word: pr for word, pr, _ in measure(theta, (1, 2)) if pr > 0}


def circuit_step_table(model: str, p, q=None) -> list:
    """Per-state outcome table realized by a circuit, for trajectory use.

    Each entry lists ``(symbol, probability, next_state)`` with the next
    state identified by matching the post-measurement memory qubit against
    the causal-state vectors.  The emitted distributions come from the
    circuit, not from the transition matrix, so walking this table with
    ``markov.sample_edges`` exercises the quantum route end to end.
    """
    refs = _memory_qubits(model, p, q, "rotation")
    table = []
    for j in range(len(refs)):
        row = []
        for x, pr, post in protocol_step(model, j, p, q):
            if pr == 0:
                continue
            dists = [np.linalg.norm(post - r) for r in refs]
            nxt = int(np.argmin(dists))
            if dists[nxt] > 1e-10:
                raise ValueError("post-measurement state is not a causal state")
            row.append((x, pr, nxt))
        table.append(row)
    return table
