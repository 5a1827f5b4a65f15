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


def coin_step(j: int, p, completion: str = "rotation") -> list:
    """One protocol step of the coin circuit from causal state j.

    Prepares |xi_j>|xi_0>, entangles with CNOT(1 -> 2) and measures qubit 1.
    Returns ``(x, probability, post_memory_state)`` triples; the measured
    bit is the emitted symbol and the memory qubit lands on |xi_x>.
    """
    xi = coin_memory_qubits(p, completion)
    if j not in (0, 1):
        raise ValueError(f"coin causal state must be 0 or 1, got {j}")
    psi = cnot(2, 1, 2) @ kron(xi[j], xi[0])
    return [(y[0], pr, post) for y, pr, post in measure(psi, (1,))]


def postproc_step(j: int, p, q, completion: str = "rotation") -> list:
    """One protocol step of the post-processed-coin circuit.

    Runs |xi_j>|0>|0> through the negated-control U_p on qubit 3, the
    controlled U_{1-q} on qubit 2 and CNOT(3 -> 2), then measures qubits
    1 and 3.  The emitted symbol is y1 + 2*y3 and qubit 2 carries |xi_x>.
    The branch (y1, y3) = (1, 1) is never populated, which is what keeps
    the symbol map injective.
    """
    xi = postproc_memory_qubits(q)
    if j not in (0, 1, 2):
        raise ValueError(f"causal state must be 0, 1 or 2, got {j}")
    psi = kron(xi[j], np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    psi = controlled_u(3, 1, 3, u_x(p, completion), control_value=0) @ psi
    psi = controlled_u(3, 1, 2, u_x(1 - float(q), completion)) @ psi
    psi = cnot(3, 3, 2) @ psi
    out = []
    for (y1, y3), pr, post in measure(psi, (1, 3)):
        if y1 == 1 and y3 == 1:
            if pr != 0.0:
                raise ValueError(f"forbidden branch (1, 1) has probability {pr!r}")
            continue
        out.append((y1 + 2 * y3, pr, post))
    return sorted(out)


def coin_two_step_state(j: int, p) -> np.ndarray:
    """Three-qubit state after two chained coin steps, before measuring.

    The memory qubit of the first step controls a second CNOT onto a fresh
    ancilla, so qubits (1, 2) carry the two outputs and qubit 3 the final
    memory.
    """
    xi = coin_memory_qubits(p)
    chi = cnot(2, 1, 2) @ kron(xi[j], xi[0])
    return cnot(3, 2, 3) @ kron(chi, xi[0])


def coin_two_step_distribution(j: int, p) -> dict:
    """Exact joint law of the two outputs of ``coin_two_step_state``."""
    theta = coin_two_step_state(j, p)
    out: dict = {}
    for (b1, b2), pr, _ in measure(theta, (1, 2)):
        if pr > 0:
            out[f"{b1}{b2}"] = pr
    return out


def circuit_step_table(model: str, p, q=None) -> list:
    """Per-state outcome table realized by a circuit, for trajectory use.

    Each entry lists ``(symbol, probability, next_state)`` with the next
    state identified by matching the post-measurement memory qubit against
    the causal-state vectors.  The emitted distributions come from the
    circuit, not from the transition matrix, so walking this table with
    ``markov.sample_edges`` exercises the quantum route end to end.
    """
    if model == "coin":
        refs = coin_memory_qubits(p)
        steps = [coin_step(j, p) for j in range(2)]
    elif model == "postproc":
        if q is None:
            raise ValueError("postproc model needs q")
        refs = postproc_memory_qubits(q)
        steps = [postproc_step(j, p, q) for j in range(3)]
    else:
        raise ValueError(f"unknown circuit model {model!r}")
    table = []
    for outcomes in steps:
        row = []
        for x, pr, post in outcomes:
            if pr == 0:
                continue
            dists = [np.linalg.norm(post - r) for r in refs]
            nxt = int(np.argmin(dists))
            if dists[nxt] > 1e-10:
                raise ValueError("post-measurement state is not a causal state")
            row.append((x, pr, nxt))
        table.append(row)
    return table

