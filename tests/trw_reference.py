"""Dict-of-tables reference implementations of the synchronous TRW kernels.

These are the per-edge loops the library used before its compute moved to
the bucketed array layout in `trwmap.trw`.  They are kept only as a test
oracle: the array kernels must reproduce them bit for bit, which holds
because both perform the same floating-point operations per table entry in
the same order (node sums accumulate in edge order).
"""

import numpy as np

from trwmap import MessageSet, PseudoMaxMarginals


def _damp(new, old, lam):
    return new if lam >= 1.0 else lam * new + (1.0 - lam) * old


def init_pseudo(mrf, rho_e):
    log_node = []
    for s in range(mrf.node_count):
        v = np.asarray(mrf.theta_node[s], dtype=float)
        log_node.append(v - v.max())
    log_edge = {}
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        m = (mrf.theta_edge[(s, t)] / r
             + np.asarray(mrf.theta_node[s])[:, None]
             + np.asarray(mrf.theta_node[t])[None, :])
        log_edge[(s, t)] = m - m.max()
    return PseudoMaxMarginals(tuple(log_node), log_edge)


def reparameterization_step(nu, rho_e, damping=1.0):
    edges = sorted(nu.log_edge)
    row_max = {}
    col_max = {}
    for (s, t) in edges:
        m = nu.log_edge[(s, t)]
        row_max[(s, t)] = m.max(axis=1)
        col_max[(s, t)] = m.max(axis=0)
    new_node = [np.asarray(v, dtype=float).copy() for v in nu.log_node]
    for (s, t) in edges:
        r = rho_e[(s, t)]
        new_node[s] += r * (row_max[(s, t)] - nu.log_node[s])
        new_node[t] += r * (col_max[(s, t)] - nu.log_node[t])
    new_node = [v - v.max() for v in new_node]
    new_edge = {}
    for (s, t) in edges:
        m = (nu.log_edge[(s, t)] - row_max[(s, t)][:, None] - col_max[(s, t)][None, :]
             + new_node[s][:, None] + new_node[t][None, :])
        new_edge[(s, t)] = m - m.max()
    if damping < 1.0:
        new_node = [_damp(v, old, damping) for v, old in zip(new_node, nu.log_node)]
        new_node = [v - v.max() for v in new_node]
        new_edge = {e: _damp(m, nu.log_edge[e], damping) for e, m in new_edge.items()}
        new_edge = {e: m - m.max() for e, m in new_edge.items()}
    return PseudoMaxMarginals(tuple(new_node), new_edge)


def belief_sums(mrf, msgs, rho_e):
    b = [np.zeros(m) for m in mrf.cardinalities]
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        b[s] = b[s] + r * msgs.log_m[(t, s)]
        b[t] = b[t] + r * msgs.log_m[(s, t)]
    return b


def message_step(msgs, mrf, rho_e, damping=1.0):
    b = belief_sums(mrf, msgs, rho_e)
    new = {}
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        table_st = mrf.theta_edge[(s, t)] / r
        src = mrf.theta_node[t] + b[t] - msgs.log_m[(s, t)]
        out = np.max(table_st + src[None, :], axis=1)
        new[(t, s)] = out - out.max()
        src = mrf.theta_node[s] + b[s] - msgs.log_m[(t, s)]
        out = np.max(table_st + src[:, None], axis=0)
        new[(s, t)] = out - out.max()
    if damping < 1.0:
        new = {k: _damp(v, msgs.log_m[k], damping) for k, v in new.items()}
        new = {k: v - v.max() for k, v in new.items()}
    return MessageSet(new)


def messages_to_pseudo(msgs, mrf, rho_e):
    b = belief_sums(mrf, msgs, rho_e)
    log_node = []
    for s in range(mrf.node_count):
        v = mrf.theta_node[s] + b[s]
        log_node.append(v - v.max())
    log_edge = {}
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        left = mrf.theta_node[s] + b[s] - msgs.log_m[(t, s)]
        right = mrf.theta_node[t] + b[t] - msgs.log_m[(s, t)]
        m = mrf.theta_edge[(s, t)] / r + left[:, None] + right[None, :]
        log_edge[(s, t)] = m - m.max()
    return PseudoMaxMarginals(tuple(log_node), log_edge)


def unit_messages(mrf):
    logs = {}
    for (s, t) in mrf.edges:
        logs[(t, s)] = np.zeros(mrf.cardinalities[s])
        logs[(s, t)] = np.zeros(mrf.cardinalities[t])
    return MessageSet(logs)


def run(mrf, rho_e, damping, tol, max_iterations, variant):
    """The synchronous iteration loop: (final pseudo-max-marginals, final
    messages or None, iterations, converged)."""
    converged = False
    iterations = 0
    if variant == "reparam":
        state, messages = init_pseudo(mrf, rho_e), None
        for iterations in range(1, max_iterations + 1):
            new = reparameterization_step(state, rho_e, damping)
            delta = new.max_log_change(state)
            state = new
            if delta < tol:
                converged = True
                break
        return state, None, iterations, converged
    messages = unit_messages(mrf)
    for iterations in range(1, max_iterations + 1):
        new = message_step(messages, mrf, rho_e, damping)
        delta = new.max_log_change(messages)
        messages = new
        if delta < tol:
            converged = True
            break
    return messages_to_pseudo(messages, mrf, rho_e), messages, iterations, converged
