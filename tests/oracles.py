"""Oracles: term-by-term LSTM and attention kernels, the unculled wall
blockage test, the one-trajectory-at-a-time trajectory draw, the per-id split
draw and the materialized windows of a dataset.

For the LSTM and attention, every pre-activation, weighted sum and gradient
entry is its own ``math.fsum`` over Python loops. Those oracles read the
kernels' parameter layout and nothing else: no GEMM, cache or helper of
``beamseq.nn`` runs in them.

``unculled_blocked`` solves every segment against every wall, as
``scene._blocked`` did before it culled walls by their boxes.
``chunked_grid_tables`` forms a BS's channel-grid tables one chunk after
another in the calling thread, as ``scene.build_channel_grid`` did before it
ran the chunks on several threads.
``looped_trajectory`` draws a trajectory as ``mobility.sample_trajectory``
did before the batched draw: five scalar ``uniform`` calls per attempt and
the positions of one attempt at a time. ``split_of`` draws one trajectory's
split as ``data.split_of_trajectory`` did before splits were drawn as one
batch. ``materialized_windows`` stacks every
window's features and labels as ``make_dataset`` did before it held its
windows as indices into a table.
"""

import math

import numpy as np

from beamseq.data import _TAG_SPLIT, _TAG_TRAJECTORY, preprocess_csi
from beamseq.mobility import ACCEL_RANGE, MAX_RETRIES, SLOT_SECONDS, SPEED_RANGE
from beamseq.nn import AttentionParams, LSTMParams
from beamseq.phy import best_beams, synthesize_channels
from beamseq.scene import _crossing, _trace_points, snap_positions


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


def unculled_blocked(p1, h1, p2, h2, walls, skip=-1):
    """Which segments p1[i] -> p2[i] cross a wall below its top, every wall
    but ``skip`` going through the crossing solve."""
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    p2 = np.atleast_2d(np.asarray(p2, dtype=float))
    d = p2 - p1
    blocked = np.zeros(max(p1.shape[0], p2.shape[0]), dtype=bool)
    for w_idx, wall in enumerate(walls):
        if w_idx == skip:
            continue
        a = np.asarray(wall.a)
        t, u, safe = _crossing(a - p1, d, np.asarray(wall.b) - a)
        hit = safe & (t > 1e-9) & (t < 1.0 - 1e-9) & (u >= -1e-9) & (u <= 1.0 + 1e-9)
        blocked |= hit & (h1 + t * (np.asarray(h2) - h1) < wall.height)
    return blocked


def chunked_grid_tables(scene, bs, chunk):
    """The path gains, aods, aoas, valid flags and snapshots of ``bs`` at
    every grid point: ``_trace_points`` and then ``synthesize_channels`` on
    ``chunk`` points at a time, in order, the chunks' rows stacked."""
    points = scene.grid.points()
    parts = []
    for lo in range(0, len(points), chunk):
        traced = _trace_points(scene, bs, points[lo : lo + chunk])
        parts.append((*traced, synthesize_channels(traced[0], traced[1], bs.geometry)))
    return [np.concatenate(table) for table in zip(*parts)]


def looped_trajectory(grid, rng, num_slots, max_retries):
    """(positions (num_slots, 2), attempts) of one trajectory that stays on
    ``grid``, or (None, max_retries) when none did: each attempt draws start
    x, start y, heading, speed and acceleration by one scalar ``uniform``
    each, in that order."""
    x_lo, y_lo = grid.origin
    x_hi = x_lo + (grid.n_x - 1) * grid.spacing
    y_hi = y_lo + (grid.n_y - 1) * grid.spacing
    t = SLOT_SECONDS * np.arange(num_slots)
    for attempt in range(1, max_retries + 1):
        start = (rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi))
        heading = rng.uniform(0.0, 2.0 * np.pi)
        v0, accel = rng.uniform(*SPEED_RANGE), rng.uniform(*ACCEL_RANGE)
        s = v0 * t + 0.5 * accel * t * t
        pos = np.asarray(start) + s[:, None] * np.array([math.cos(heading), math.sin(heading)])
        if (pos[:, 0].min() >= x_lo and pos[:, 0].max() <= x_hi
                and pos[:, 1].min() >= y_lo and pos[:, 1].max() <= y_hi):
            return pos, attempt
    return None, max_retries


def split_of(seed, trajectory_id):
    """The split ("train", "val" or "test") of one trajectory: one uniform u
    from its own generator, seeded by (seed, split tag, id), against the
    shares 0.8 and 0.1 of train and val."""
    u = np.random.default_rng(
        np.random.SeedSequence([int(seed), _TAG_SPLIT, int(trajectory_id)])
    ).random()
    if u < 0.8:
        return "train"
    if u < 0.8 + 0.1:
        return "val"
    return "test"


def materialized_windows(scene, grid, codebook, dataset):
    """(features (W, T, F) float32, labels (W, K) uint16, trajectory ids (W,))
    of every window of the ``make_dataset`` output ``dataset``, in its order,
    each window's rows copied out as ``src_feats.astype(np.float32)[window_rows]``.
    The trajectories are redrawn by ``looped_trajectory``, and the features
    standardized with the dataset's mean and std."""
    t, k = dataset.history, dataset.horizon
    meta = dataset.extra_metadata
    slots = meta["slots_per_trajectory"]
    flats = []
    for traj_id in range(meta["num_trajectories"]):
        rng = np.random.default_rng(
            np.random.SeedSequence([dataset.seed, _TAG_TRAJECTORY, traj_id]))
        flats.append(snap_positions(looped_trajectory(scene.grid, rng, slots, MAX_RETRIES)[0],
                                    scene.grid))
    flats = np.array(flats)
    outage = grid.outage(dataset.source_bs) | grid.outage(dataset.target_rsu)
    kept = np.flatnonzero(~outage[flats].any(axis=1))
    visited, rows = np.unique(flats[kept], return_inverse=True)
    rows = rows.reshape(kept.size, slots)
    src_feats = preprocess_csi(grid.snapshots[dataset.source_bs][visited])
    src_feats = (src_feats - dataset.feature_mean) / dataset.feature_std
    tgt_labels = best_beams(grid.snapshots[dataset.target_rsu][visited], codebook)[0]
    starts = np.arange(0, slots - t - k + 1, meta["stride"])
    window_rows = rows[:, starts[:, None] + np.arange(t + k)].reshape(-1, t + k)
    return (src_feats.astype(np.float32)[window_rows[:, :t]],
            tgt_labels.astype(np.uint16)[window_rows[:, t:]],
            np.repeat(kept, starts.size))
