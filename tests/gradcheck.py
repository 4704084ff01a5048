"""Finite-difference helpers shared by the gradient tests."""

import numpy as np


def fd_grad(func, x, h=1e-6):
    """Central-difference gradient of a scalar function of a 1-d array."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (func(xp) - func(xm)) / (2.0 * h)
    return g


def rel_err(approx, exact):
    exact = np.asarray(exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    denom = max(np.linalg.norm(exact), 1e-12)
    return float(np.linalg.norm(approx - exact) / denom)


def flatten_params(model):
    return np.concatenate(
        [w.ravel() for w in model.weights] + [b.ravel() for b in model.biases]
    )


def set_params(model, vec):
    """Write a flat parameter vector back into a model copy."""
    m = model.astype(model.weights[0].dtype)
    i = 0
    for w in m.weights:
        w[...] = vec[i:i + w.size].reshape(w.shape)
        i += w.size
    for b in m.biases:
        b[...] = vec[i:i + b.size].reshape(b.shape)
        i += b.size
    return m
