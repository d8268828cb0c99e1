"""The training step's four parts in their plain, allocating form: the
oracle that ``conftest.reference_train`` runs, sharing no step code with
the package.

``loss_and_grad`` re-derives every term's weight, scale and liveness on each
call and makes one masked log-sum-exp over the stacked rows of a
``LossStructure``, then adds each group term's gradient block in turn;
``augment_batch``, ``forward_batch`` and ``backward_batch`` allocate every
array they return. The package's step must give the same bits.
"""

import numpy as np

from slicepick.losses import NORM_EPS


def _unit_rows(z, eps):
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    clamped = np.maximum(norms, eps)
    return z / clamped[:, None], norms, clamped


def _masked_log_denoms(logits, den_mask):
    neg = np.where(den_mask, logits, -np.inf)
    m = neg.max(axis=1)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    E = np.exp(neg - safe_m[:, None])
    D = E.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_denoms = np.log(D) + safe_m
        softmax = E / D[:, None]
    return log_denoms, softmax


def loss_and_grad(batch, cfg):
    """(loss, d(loss)/d(z)) of one ``LossBatch`` under ``cfg``."""
    st, b = batch.structure, batch.index
    missing = [t for t in cfg.terms if t not in st.terms]
    if missing:
        raise ValueError(f"batch has no structure for the loss terms {missing}")
    zhat, norms, clamped = _unit_rows(batch.z, NORM_EPS)
    S = zhat @ zhat.T
    n2 = S.shape[0]
    n = n2 // 2
    tau = cfg.tau
    logits = S / tau
    log_denoms, softmax = _masked_log_denoms(logits.take(st.rows, axis=0), st.den[b])
    loss = 0.0

    if cfg.ntxent > 0:
        loss += cfg.ntxent * float(np.mean(log_denoms[:n2] - logits[st.pair]))
        w = cfg.ntxent / n2
        GS = (w / tau) * softmax[:n2]
        GS[st.pair] -= w / tau
    else:
        GS = np.zeros_like(S)

    anchor_logits = logits[:n]
    for k, group_type in enumerate(st.groups):
        lam = cfg.weight_of(group_type)
        if lam == 0 or not st.active[b, k].any():
            continue
        pos, pos_counts, active = st.pos[b, k], st.pos_counts[b, k], st.active[b, k]
        block = slice(st.ntxent_rows + k * n, st.ntxent_rows + (k + 1) * n)
        w = lam * float(st.scale[b, k])
        total = float(
            (pos_counts[active] * log_denoms[block][active]).sum()
            - anchor_logits[pos].sum()
        )
        loss += w * total
        contrib = np.where(
            active[:, None], (w / tau) * pos_counts[:, None] * softmax[block], 0.0
        )
        np.subtract(contrib, w / tau, out=contrib, where=pos)
        GS[:n] += contrib

    g_hat = (GS + GS.T) @ zhat
    radial = np.einsum("ij,ij->i", g_hat, zhat)
    unclamped = (norms > NORM_EPS).astype(np.float64)
    grad = (g_hat - unclamped[:, None] * radial[:, None] * zhat) / clamped[:, None]
    return loss, grad


def augment_batch(X, spec, rng, h, w):
    """One view per row of ``X``: scales, flips, then noise drawn in that order."""
    n = X.shape[0]
    lo, hi = spec.scale_jitter
    scales = rng.uniform(lo, hi, size=n)
    flips = rng.random(size=n) < spec.flip_prob
    noise = rng.standard_normal(size=X.shape)
    noise *= spec.noise_sigma
    out = X * scales[:, None]
    if flips.any():
        img = out.reshape(n, h, w)
        img[flips] = img[flips, :, ::-1]
    out += noise
    return out


def forward_batch(params, X):
    """(representations, projections, cache) of the rows of ``X``."""
    n_hidden = len(params.arch.hidden)
    acts = [X]
    pre = []
    A = X
    for layer in range(n_hidden):
        Z = A @ params.weights[layer] + params.biases[layer]
        pre.append(Z)
        A = np.maximum(Z, 0.0)
        acts.append(A)
    rep = acts[-1] @ params.weights[n_hidden] + params.biases[n_hidden]
    proj = rep @ params.weights[n_hidden + 1] + params.biases[n_hidden + 1]
    return rep, proj, (acts, pre, rep)


def backward_batch(params, cache, d_proj):
    """Per-layer (weight gradients, bias gradients), input gradient not formed."""
    acts, pre, rep = cache
    n_hidden = len(params.arch.hidden)
    g_w = [None] * (n_hidden + 2)
    g_b = [None] * (n_hidden + 2)
    g_w[n_hidden + 1] = rep.T @ d_proj
    g_b[n_hidden + 1] = np.sum(d_proj, axis=0)
    dZ = d_proj @ params.weights[n_hidden + 1].T
    for layer in reversed(range(n_hidden + 1)):
        g_w[layer] = acts[layer].T @ dZ
        g_b[layer] = np.sum(dZ, axis=0)
        if layer:
            dZ = (dZ @ params.weights[layer].T) * (pre[layer - 1] > 0)
    return g_w, g_b
