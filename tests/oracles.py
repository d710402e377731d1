"""Term-by-term oracles for the LSTM and attention kernels.

Every pre-activation, weighted sum and gradient entry is its own
``math.fsum`` over Python loops. The oracles read the kernels' parameter
layout and nothing else: no GEMM, cache or helper of ``beamseq.nn`` runs in
them.
"""

import math

import numpy as np

from beamseq.nn import AttentionParams, LSTMParams


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def term_by_term_lstm_cell(p, x, h_prev, c_prev):
    """One LSTM step, x (B, D) from (h_prev, c_prev) (B, H): returns (h, c,
    cache). Gate rows are stacked i, f, g, o; i, f, o = sigmoid(z),
    g = tanh(z), c = f*c_prev + i*g, h = o*tanh(c)."""
    b_size, hid = h_prev.shape
    gates = np.empty((b_size, 4 * hid))
    h = np.empty((b_size, hid))
    c = np.empty((b_size, hid))
    for b in range(b_size):
        for r in range(4 * hid):
            z = math.fsum([*(p.wx[r, j] * x[b, j] for j in range(x.shape[1])),
                           *(p.wh[r, j] * h_prev[b, j] for j in range(hid)), p.b[r]])
            gates[b, r] = math.tanh(z) if 2 * hid <= r < 3 * hid else _sigmoid(z)
        for u in range(hid):
            i, f, g, o = (gates[b, k * hid + u] for k in range(4))
            c[b, u] = f * c_prev[b, u] + i * g
            h[b, u] = o * math.tanh(c[b, u])
    return h, c, (p, x, h_prev, c_prev, c, gates)


def term_by_term_lstm_cell_backward(cache, grad_h, grad_c):
    """Backward through ``term_by_term_lstm_cell`` from the gradients on h
    and c (B, H): returns (LSTMParams grads, dx, dh_prev, dc_prev)."""
    p, x, h_prev, c_prev, c, gates = cache
    b_size, hid = h_prev.shape
    dz = np.empty_like(gates)  # gradient of each gate pre-activation
    dc_prev = np.empty((b_size, hid))
    for b in range(b_size):
        for u in range(hid):
            i, f, g, o = (gates[b, k * hid + u] for k in range(4))
            tc = math.tanh(c[b, u])
            dc = grad_c[b, u] + grad_h[b, u] * o * (1.0 - tc * tc)
            dc_prev[b, u] = dc * f
            dz[b, u] = dc * g * i * (1.0 - i)
            dz[b, hid + u] = dc * c_prev[b, u] * f * (1.0 - f)
            dz[b, 2 * hid + u] = dc * i * (1.0 - g * g)
            dz[b, 3 * hid + u] = grad_h[b, u] * tc * o * (1.0 - o)

    def outer(rows):  # sum over the batch of dz[b, r] * rows[b, j]
        return np.array([[math.fsum(dz[b, r] * rows[b, j] for b in range(b_size))
                          for j in range(rows.shape[1])] for r in range(4 * hid)])

    def back(w):  # dz[b] @ w, term by term
        return np.array([[math.fsum(dz[b, r] * w[r, j] for r in range(4 * hid))
                          for j in range(w.shape[1])] for b in range(b_size)])

    grads = LSTMParams(
        wx=outer(x), wh=outer(h_prev),
        b=np.array([math.fsum(dz[:, r]) for r in range(4 * hid)]),
    )
    return grads, back(p.wx), back(p.wh), dc_prev


def term_by_term_attention(p, query, enc):
    """weights (B, K, T) and combined (B, K, H) of the general score
    qᵀ W_score h_t and the combine layer tanh(W_c [context; q] + b), each
    term summed in Python loops over b, k, t and the hidden units."""
    b_size, k_size, hid = query.shape
    t_size = enc.shape[1]
    weights = np.empty((b_size, k_size, t_size))
    combined = np.empty((b_size, k_size, hid))
    for b in range(b_size):
        for k in range(k_size):
            q = query[b, k]
            scores = [
                math.fsum(q[i] * p.w_score[i, j] * enc[b, t, j]
                          for i in range(hid) for j in range(hid))
                for t in range(t_size)
            ]
            exps = [math.exp(score - max(scores)) for score in scores]
            for t in range(t_size):
                weights[b, k, t] = exps[t] / math.fsum(exps)
            cat = _context(weights[b, k], enc[b]) + list(q)
            for o in range(hid):
                combined[b, k, o] = math.tanh(
                    math.fsum(p.w_combine[o, j] * cat[j] for j in range(2 * hid))
                    + p.b_combine[o]
                )
    return weights, combined


def _context(weights, states):
    """weights (T,) · states (T, H), one fsum per hidden unit."""
    return [math.fsum(weights[t] * states[t, j] for t in range(len(weights)))
            for j in range(states.shape[1])]


def term_by_term_attention_backward(p, query, enc, weights, combined, grad_combined):
    """Backward through ``term_by_term_attention`` from the gradients on
    combined (B, K, H), given its weights and combined outputs: returns
    (AttentionParams grads, dquery (B, K, H), denc (B, T, H))."""
    b_size, k_size, hid = query.shape
    t_size = enc.shape[1]
    g_score = [[[] for _ in range(hid)] for _ in range(hid)]
    g_combine = [[[] for _ in range(2 * hid)] for _ in range(hid)]
    g_bias = [[] for _ in range(hid)]
    dquery = np.empty_like(query)
    denc_terms = [[[[] for _ in range(hid)] for _ in range(t_size)] for _ in range(b_size)]
    for b in range(b_size):
        for k in range(k_size):
            q, w = query[b, k], weights[b, k]
            cat = _context(w, enc[b]) + list(q)
            dz = [grad_combined[b, k, o] * (1.0 - combined[b, k, o] ** 2) for o in range(hid)]
            for o in range(hid):
                g_bias[o].append(dz[o])
                for j in range(2 * hid):
                    g_combine[o][j].append(dz[o] * cat[j])
            dcat = [math.fsum(p.w_combine[o, j] * dz[o] for o in range(hid))
                    for j in range(2 * hid)]
            dweights = [math.fsum(dcat[j] * enc[b, t, j] for j in range(hid))
                        for t in range(t_size)]
            mean = math.fsum(w[s] * dweights[s] for s in range(t_size))
            dscore = [w[t] * (dweights[t] - mean) for t in range(t_size)]
            for i in range(hid):
                dquery[b, k, i] = math.fsum(
                    [dcat[hid + i], *(dscore[t] * p.w_score[i, j] * enc[b, t, j]
                                      for t in range(t_size) for j in range(hid))]
                )
                for j in range(hid):
                    g_score[i][j] += [dscore[t] * q[i] * enc[b, t, j] for t in range(t_size)]
            for t in range(t_size):
                for j in range(hid):
                    denc_terms[b][t][j] += [w[t] * dcat[j], *(dscore[t] * q[i] * p.w_score[i, j]
                                                              for i in range(hid))]
    grads = AttentionParams(
        w_score=np.array([[math.fsum(terms) for terms in row] for row in g_score]),
        w_combine=np.array([[math.fsum(terms) for terms in row] for row in g_combine]),
        b_combine=np.array([math.fsum(terms) for terms in g_bias]),
    )
    denc = np.array([[[math.fsum(terms) for terms in row] for row in rows] for rows in denc_terms])
    return grads, dquery, denc
