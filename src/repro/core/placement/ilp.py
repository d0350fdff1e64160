"""Integer-programming placement (the paper's formulas 8-12).

The paper minimises total token re-routing ``sum_k sum_j R_{k,j}`` subject
to load balance (9), exclusive ownership (10) and the crossing indicators
(11)/(12).  Aggregating identical tokens, the objective depends only on the
transition-count matrices ``W_j[i, p]`` = tokens moving expert ``i`` (layer
j) -> expert ``p`` (layer j+1), so the token-level ILP collapses to an
expert-level quadratic assignment, which we solve two ways:

* :func:`joint_ilp_placement` — the faithful joint formulation via
  ``scipy.optimize.milp`` (HiGHS) with the standard linearisation of the
  same-GPU product terms.  Exact, but the variable count grows as
  ``L * E^2 * G`` — intended for small instances and for validating the
  scalable solver below.  It is the only code here that needs scipy, and
  imports it on call.
* :func:`ilp_placement` — layer-chained exact assignments: given layer
  ``j``'s placement, the optimal layer ``j+1`` assignment under capacity
  constraints is a transportation problem, solved *exactly* by expanding
  each GPU into ``C`` slots and running a linear-sum assignment.
  Coordinate-descent sweeps (re-solving each layer against both fixed
  neighbours) then recover most of the gap to the joint optimum; the
  ablation bench quantifies it.

The assignments use :func:`_max_assignment`, an in-repo port of the
shortest-augmenting-path algorithm behind
``scipy.optimize.linear_sum_assignment``.  It keeps scipy's tie-breaking,
so it returns the same assignment (benefits here are integer counts, so
ties are common) without importing ``scipy.optimize``, which would
otherwise dominate every process's start-up time and memory.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.placement.base import Placement
from repro.trace.events import RoutingTrace

__all__ = ["assignment_solve", "ilp_placement", "joint_ilp_placement", "chain_objective"]


def assignment_solve(benefit: np.ndarray, num_groups: int) -> np.ndarray:
    """Optimal capacity-constrained assignment of experts to groups.

    ``benefit[i, p]`` is the affinity mass gained by putting expert ``i``
    on group (GPU or node) ``p``; every group must take exactly
    ``E / num_groups`` experts.  Solved exactly by slot expansion + a
    linear-sum assignment.  Returns (E,) group index per expert.
    """
    benefit = np.asarray(benefit, dtype=np.float64)
    e, p = benefit.shape
    if p != num_groups:
        raise ValueError(f"benefit has {p} columns, expected {num_groups}")
    if e % num_groups != 0:
        raise ValueError(f"{e} experts not divisible into {num_groups} groups")
    cap = e // num_groups
    # expand each group into `cap` identical slots -> square assignment
    expanded = np.repeat(benefit, cap, axis=1)  # (E, E)
    cols = np.asarray(_max_assignment(expanded), dtype=np.int64)
    return cols // cap


def _max_assignment(benefit: np.ndarray) -> list[int]:
    """Column per row of a maximum-benefit assignment on a square matrix.

    Crouse's (2016) shortest augmenting path algorithm, ported from scipy's
    ``rectangular_lsap.cpp`` with the same operation order and tie-breaking,
    so the result equals ``linear_sum_assignment(benefit, maximize=True)[1]``
    exactly.  Raises ``ValueError`` for NaN or +inf entries and when no
    assignment avoids the -inf entries.
    """
    n = benefit.shape[0]
    if np.isnan(benefit).any() or np.isposinf(benefit).any():
        raise ValueError("matrix contains invalid numeric entries")
    cost: list[list[float]] = (-benefit).tolist()
    inf = math.inf
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        # shortest augmenting path from row `cur` to a free column
        spc = [inf] * n
        remaining = list(range(n - 1, -1, -1))  # scipy's scan order: ties depend on it
        seen_rows: list[int] = []
        seen_cols: list[int] = []
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            seen_rows.append(i)
            index = -1
            lowest = inf
            ci, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                # on a tie prefer a free column: it ends the path
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then flip the path
        u[cur] += min_val
        for i in seen_rows:
            if i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def chain_objective(gpu_of: np.ndarray, weights: list[np.ndarray]) -> float:
    """Total non-crossing mass of a placement (higher is better).

    ``weights[j]`` is the (E, E) transition-count matrix between layers j
    and j+1; the objective sums ``W_j[i, p]`` over pairs placed on the same
    group.  Minimising crossings (formula 8) == maximising this.
    """
    total = 0.0
    for j, w in enumerate(weights):
        same = gpu_of[j][:, None] == gpu_of[j + 1][None, :]
        total += float(w[same].sum())
    return total


def _transition_weights(trace: RoutingTrace) -> list[np.ndarray]:
    return [
        trace.transition_counts(j).astype(np.float64)
        for j in range(trace.num_layers - 1)
    ]


def ilp_placement(
    trace: RoutingTrace,
    num_gpus: int,
    sweeps: int = 3,
    groups: int | None = None,
) -> Placement:
    """Scalable near-optimal placement by chained exact assignments.

    Parameters
    ----------
    trace:
        Profiled routing trace (defines layer count, expert count and the
        transition weights).
    num_gpus:
        Expert-parallel group size G.
    sweeps:
        Coordinate-descent passes after the initial forward chain.  Each
        pass re-solves every layer's assignment against both fixed
        neighbours; 0 disables refinement.
    groups:
        Internal override of the group count (used by the staged solver to
        run the same machinery at node granularity).
    """
    g = groups or num_gpus
    e, L = trace.num_experts, trace.num_layers
    if e % g != 0:
        raise ValueError(f"{e} experts not divisible across {g} groups")
    weights = _transition_weights(trace)

    gpu_of = np.empty((L, e), dtype=np.int64)
    # layer 0 seeds the chain: group experts that share successors using the
    # symmetrised co-successor similarity of W_0 via a greedy round-robin on
    # total outgoing mass (cheap, refined by the sweeps below).
    gpu_of[0] = np.arange(e) % g if L == 1 else _seed_layer(weights[0], g)

    for j in range(1, L):
        w = weights[j - 1]
        benefit = _incoming_benefit(w, gpu_of[j - 1], g)
        gpu_of[j] = assignment_solve(benefit, g)

    for _ in range(max(sweeps, 0)):
        improved = False
        before = chain_objective(gpu_of, weights)
        for j in range(L):
            benefit = np.zeros((e, g))
            if j > 0:
                benefit += _incoming_benefit(weights[j - 1], gpu_of[j - 1], g)
            if j < L - 1:
                benefit += _outgoing_benefit(weights[j], gpu_of[j + 1], g)
            if j == 0 and L == 1:
                break
            gpu_of[j] = assignment_solve(benefit, g)
        improved = chain_objective(gpu_of, weights) > before + 1e-9
        if not improved:
            break

    return Placement(gpu_of, g, strategy="ilp-chain")


def _seed_layer(w0: np.ndarray, g: int) -> np.ndarray:
    """Initial layer-0 grouping: cluster experts with similar successor rows.

    Experts whose W_0 rows point at the same successors should share a GPU
    so the next layer's assignment can capture both.  We use a greedy
    balanced agglomeration on row cosine similarity — exactness is not
    needed here because the sweeps re-solve layer 0 afterwards.
    """
    e = w0.shape[0]
    cap = e // g
    norms = np.linalg.norm(w0, axis=1, keepdims=True)
    rows = w0 / np.where(norms > 0, norms, 1.0)
    sim = rows @ rows.T
    np.fill_diagonal(sim, -np.inf)

    unassigned = set(range(e))
    groups = np.full(e, -1, dtype=np.int64)
    for p in range(g):
        # seed with the heaviest remaining expert
        seed = max(unassigned, key=lambda i: w0[i].sum())
        members = [seed]
        unassigned.remove(seed)
        while len(members) < cap:
            score = sim[:, members].sum(axis=1)
            best = max(unassigned, key=score.__getitem__)
            members.append(best)
            unassigned.remove(best)
        groups[members] = p
    return groups


def _incoming_benefit(w: np.ndarray, prev_groups: np.ndarray, g: int) -> np.ndarray:
    """benefit[i', p] = mass flowing into expert i' from experts on group p."""
    e = w.shape[1]
    benefit = np.zeros((e, g))
    np.add.at(benefit.T, prev_groups, w)  # benefit.T[p] += sum of w rows on p
    return benefit


def _outgoing_benefit(w: np.ndarray, next_groups: np.ndarray, g: int) -> np.ndarray:
    """benefit[i, p] = mass flowing from expert i to experts on group p."""
    e = w.shape[0]
    benefit = np.zeros((e, g))
    np.add.at(benefit.T, next_groups, w.T)
    return benefit


def joint_ilp_placement(
    trace: RoutingTrace,
    num_gpus: int,
    time_limit_s: float = 30.0,
) -> Placement:
    """Exact joint ILP over all layers (formulas 8-12 via HiGHS).

    Variables: binary ``x[j, i, p]`` (expert i of layer j on GPU p) and
    continuous ``y[j, i, i', p]`` in [0, 1] linearising the same-GPU product
    ``x[j, i, p] * x[j+1, i', p]``; the objective maximises kept mass
    ``sum w_j[i, i'] * y`` (equivalent to minimising formula 8's crossing
    count).  Only pairs with non-zero weight get y variables, which keeps
    realistic instances small (affinity makes W sparse).

    Raises ``RuntimeError`` if HiGHS fails to produce a feasible solution
    within the time limit.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    e, L, g = trace.num_experts, trace.num_layers, num_gpus
    if e % g != 0:
        raise ValueError(f"{e} experts not divisible across {g} GPUs")
    cap = e // g
    weights = _transition_weights(trace)

    num_x = L * e * g

    def xid(j: int, i: int, p: int) -> int:
        return (j * e + i) * g + p

    # enumerate y variables only for observed transitions
    y_index: dict[tuple[int, int, int, int], int] = {}
    y_weight: list[float] = []
    for j, w in enumerate(weights):
        src, dst = np.nonzero(w)
        for i, ip in zip(src.tolist(), dst.tolist(), strict=True):
            for p in range(g):
                y_index[(j, i, ip, p)] = num_x + len(y_weight)
                y_weight.append(float(w[i, ip]))

    n_vars = num_x + len(y_weight)
    c = np.zeros(n_vars)
    for idx in y_index.values():
        c[idx] = -y_weight[idx - num_x]  # milp minimises; negate to maximise

    rows_a: list[int] = []
    cols_a: list[int] = []
    vals_a: list[float] = []
    lb: list[float] = []
    ub: list[float] = []
    row = 0

    def add_entry(r: int, col: int, val: float) -> None:
        rows_a.append(r)
        cols_a.append(col)
        vals_a.append(val)

    # (10) each expert on exactly one GPU
    for j in range(L):
        for i in range(e):
            for p in range(g):
                add_entry(row, xid(j, i, p), 1.0)
            lb.append(1.0)
            ub.append(1.0)
            row += 1

    # (9) load balance: each GPU holds exactly cap experts per layer
    for j in range(L):
        for p in range(g):
            for i in range(e):
                add_entry(row, xid(j, i, p), 1.0)
            lb.append(float(cap))
            ub.append(float(cap))
            row += 1

    # linearisation: y <= x_src, y <= x_dst
    for (j, i, ip, p), idx in y_index.items():
        add_entry(row, idx, 1.0)
        add_entry(row, xid(j, i, p), -1.0)
        lb.append(-np.inf)
        ub.append(0.0)
        row += 1
        add_entry(row, idx, 1.0)
        add_entry(row, xid(j + 1, ip, p), -1.0)
        lb.append(-np.inf)
        ub.append(0.0)
        row += 1

    a = csr_matrix((vals_a, (rows_a, cols_a)), shape=(row, n_vars))
    constraint = LinearConstraint(a, np.asarray(lb), np.asarray(ub))
    integrality = np.zeros(n_vars)
    integrality[:num_x] = 1  # x binary; y continuous (integral at optimum)
    bounds = Bounds(np.zeros(n_vars), np.ones(n_vars))

    res = milp(
        c=c,
        constraints=constraint,
        integrality=integrality,
        bounds=bounds,
        options={"time_limit": time_limit_s, "presolve": True},
    )
    if res.x is None:
        raise RuntimeError(f"joint ILP failed: {res.message}")

    x = res.x[:num_x].reshape(L, e, g)
    gpu_of = x.argmax(axis=2).astype(np.int64)
    return Placement(gpu_of, g, strategy="ilp-joint")
