"""The Blahut-Arimoto solver against its array-only form, bit for bit.

`blahut_arimoto_point` runs the NNLS ratio test with Python floats over
the tiny passive set and hoists what a point keeps fixed. The oracle
below is the same solver written in arrays only: every step on numpy
arrays, one errstate per step. Both do the same IEEE operations in the
same order, so every returned array must be equal, not merely close. No
golden literal is pinned, since the last bits move across numpy
versions; only the two routes on one numpy are compared.
"""

import math

import numpy as np
import pytest

import phasebound.rate_distortion as rd
from phasebound.priors import PhasePrior
from phasebound.rate_distortion import (BA_MAX_ITER, BA_TOL, BAPoint,
                                        blahut_arimoto_point,
                                        discretize_prior, grid_distortion)

_ARMIJO = rd._ARMIJO
SLOPES = [0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 2.0, 5.0, 10.0]
PRIORS = {"uniform": PhasePrior.uniform(),
          "uniform-3-1": PhasePrior.uniform(center=3.0, width=1.0),
          "gauss-1-0.5": PhasePrior.wrapped_gaussian(1.0, 0.5),
          "gauss-pi-0.2": PhasePrior.wrapped_gaussian(math.pi, 0.2)}


def oracle_point(p, d, slope, init_marginal=None):
    """blahut_arimoto_point past its input checks, in arrays only."""
    p = masses = p / p.sum()   # the source as its check hands it on
    support = np.flatnonzero(p > 0.0)
    if support.size == 1:
        dmin = float(d[support[0]].min())
        return BAPoint(dmin, 0.0, slope, True, 0, [slope * dmin], None, 0.0)
    if slope == 0.0:
        dmin = float((p @ d).min())
        return BAPoint(dmin, 0.0, slope, True, 0, [0.0], None, 0.0)
    if support.size < p.size:
        p, d = p[support], d[support]
    a = np.multiply(d, -slope)
    np.exp(a, out=a)
    if init_marginal is None:
        q = np.full(d.shape[1], 1.0 / d.shape[1])
    else:
        q = np.asarray(init_marginal, dtype=float)
        q = q / q.sum()
    atoms = q > 1.0 / q.size
    history = []
    gap = math.inf
    if d.shape[1] == masses.size:  # a square kernel tries the source first
        c = np.maximum(a @ masses, 1e-300)
        gap = float(np.log(((p / c) @ a).max()))
    if gap <= BA_TOL:
        q, it, history = masses, 1, [-(p @ np.log(c))]
    else:
        for it in range(1, BA_MAX_ITER + 1):
            c = np.maximum(a @ q, 1e-300)
            history.append(-(p @ np.log(c)))
            r = (p / c) @ a
            gap = float(np.log(r.max()))
            if gap <= BA_TOL or it == BA_MAX_ITER:
                break
            q, atoms = oracle_newton_step(a, p, c, r, q, atoms)
    dist = (p / c) @ (np.multiply(a, d, out=a) @ q)
    return BAPoint(dist, max(history[-1] - slope * dist, 0.0), slope,
                   gap <= BA_TOL, it, history, q, gap)


def oracle_newton_step(a, p, c, r, q, atoms):
    with np.errstate(divide="ignore"):
        lr = np.log(r)
    top = int(lr.argmax())
    span = atoms.copy()
    span[top] = True
    if lr[top] > np.log(2.0):
        q = oracle_vertex_step(a, p, c, q, top)
        return q, span & (q > 0.0)
    left = np.concatenate(([-np.inf], lr[:-1]))
    right = np.concatenate((lr[1:], [-np.inf]))
    span |= (lr > BA_TOL) & (lr > left + 1e-12) & (lr >= right - 1e-12)
    cols = span.nonzero()[0]
    model = np.empty((p.size + 1, cols.size))
    np.multiply(np.sqrt(p)[:, None], a[:, cols] / c[:, None] - 2.0,
                out=model[:-1])
    model[-1] = 1.0
    scale = np.abs(model).max(axis=0)
    model /= scale
    x = oracle_nnls(model.T @ model, model[-1], q[cols] * scale) / scale
    step = -q
    step[cols] += x / x.sum()
    v = (a @ step) / c
    descent = p @ v
    alpha = 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        while descent > 0.0 and alpha > 1e-12:
            gain = p @ np.log1p(alpha * v)
            if gain >= _ARMIJO * alpha * descent:
                q = np.maximum(q + alpha * step, 0.0)
                return q / q.sum(), span & (q > 0.0)
            alpha *= 0.5
    q = oracle_vertex_step(a, p, c, q, top)
    return q, span & (q > 0.0)


def oracle_vertex_step(a, p, c, q, j):
    u = a[:, j] / c - 1.0
    with np.errstate(divide="ignore"):
        full = p @ (u / (1.0 + u)) >= 0.0
    lo, hi = -300.0, 0.0
    while not full and hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if p @ (u / (1.0 + 10.0 ** mid * u)) > 0.0:
            lo = mid
        else:
            hi = mid
    t = 1.0 if full else 10.0 ** lo
    q = (1.0 - t) * q
    q[j] += t
    return q / q.sum()


def oracle_nnls(gram, rhs, start):
    n = rhs.size
    x = start.copy()
    passive = x > 0.0
    ridge = n * np.finfo(float).eps * gram.diagonal().max()
    for _ in range(3 * n):
        while passive.any():
            idx = passive.nonzero()[0]
            sub = gram[idx[:, None], idx]
            sub.flat[::idx.size + 1] += ridge
            sol = np.linalg.solve(sub, rhs[idx])
            z = np.zeros(n)
            z[idx] = sol
            if (sol > 0.0).all():
                x = z
                break
            neg = (passive & (z <= 0.0)).nonzero()[0]
            ratio = x[neg] / (x[neg] - z[neg])
            x = x + ratio.min() * (z - x)
            x[neg[ratio.argmin()]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
        grad = rhs - gram @ x
        grad[passive] = -np.inf
        j = int(grad.argmax())
        if grad[j] <= 10.0 * ridge:
            break
        passive[j] = True
    return x


def assert_same_point(got, want):
    assert np.array_equal(got.distortion, want.distortion)
    assert np.array_equal(got.rate, want.rate)
    assert np.array_equal(got.gap, want.gap)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert np.array_equal(got.lagrangian_history, want.lagrangian_history)
    if want.output_marginal is None:
        assert got.output_marginal is None
    else:
        assert np.array_equal(got.output_marginal, want.output_marginal)


@pytest.mark.parametrize("k", [16, 64, 128])
@pytest.mark.parametrize("prior", PRIORS.values(), ids=PRIORS.keys())
def test_solver_matches_the_array_oracle(prior, k):
    # each slope cold, and warm from the previous slope's marginal, as
    # rd_curve sweeps; the narrow priors' zero-mass letters and the high
    # slopes' uncertified points take the vertex steps and the NNLS
    # ratio steps
    _, p = discretize_prior(prior, k)
    d = grid_distortion(k)
    q, steps = None, 0
    for slope in SLOPES:
        for start in (None, q):
            got = blahut_arimoto_point(p, d, slope, init_marginal=start)
            assert_same_point(got, oracle_point(p, d, slope, start))
            steps += got.iterations
        if got.output_marginal is not None:
            q = got.output_marginal
    assert steps > 0


def test_nnls_matches_the_array_oracle():
    # seeded problems as test_nnls_matches_scipy draws them, and eight
    # whose six columns span three dimensions: the ridge carries each
    # solve, and from a start with every entry positive the ratio test
    # releases entries, down to one in some of them
    rng = np.random.default_rng(5)
    cases = []
    for trial in range(120):
        cols = int(rng.integers(1, 13))
        m = rng.standard_normal((cols + int(rng.integers(1, 30)), cols))
        e = rng.standard_normal(m.shape[0])
        start = rng.random(cols) * (rng.random(cols) < 0.5)
        cases.append((m, e, start if trial % 2 else np.zeros(cols)))
    for seed in range(8):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((20, 3))
        m = np.column_stack([base, base[:, 0] + base[:, 1], 2.0 * base[:, 2],
                             -base[:, 0]])
        cases.append((m, rng.standard_normal(20), np.full(6, 0.5)))
    for m, e, start in cases:
        gram, rhs = m.T @ m, m.T @ e
        got = rd._nnls(gram, rhs, start)
        assert np.array_equal(got, oracle_nnls(gram, rhs, start))
