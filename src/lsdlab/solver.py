"""Self-consistent resolvent solver for limiting spectral distributions.

On a midpoint grid over [0, 1] the solver finds, for each z in the upper
half-plane, the profile g solving

    g[i] = -(z + (1/N) sum_j b[i, j] g[j])^(-1),      S(z) = (1/N) sum_i g[i],

by iteration on the self-energy pi = (1/N) b g. The map
pi <- -(1/N) sum_j b[., j]/(z + pi[j]) preserves Im pi >= 0 and hence
|z + pi| >= Im z, so every iterate satisfies the Herglotz bounds Im g > 0
and |g| <= 1/Im z. It contracts a priori with factor B/(Im z)^2, B the grid
mass, so a stage at height h is certified when B < h^2.

Every attempt starts from the mean-field self-energy pi0 = rowmean(b) S_sc(z),
S_sc the semicircle transform of mass B: the exact solution for a constant
density. The solution in the upper half-plane is unique (Helton, Rashidi Far
& Speicher, IMRN 2007), so this start reaches the same fixed point as any
other there, in fewer iterations.

Each point first runs one direct stage at its target height, capped at
_DIRECT_ITERATIONS. A stall restarts it on a ladder from
max(Im z, 2 sqrt(B + 1)), where the factor is below 1/4, that lowers Im z by
_CONTINUATION_FACTOR and warm-starts each stage (convergence below sqrt(B)
is empirical, not certified). Inner ladder stages only seed the next one,
so they stop at the loose residual max(_INNER_TOLERANCE, tolerance).

Each iteration forms the damped step f = d ((1/N) b g - pi) once, d = 1 in
certified stages and 1/2 in the others. Certified stages take the plain
update pi + f, whose rate the certificate bounds. The others accelerate it
with Anderson mixing of depth 1 on that f (Walker & Ni, SIAM J. Numer.
Anal. 2011): with df and dpi the differences from the stage's previous
iteration, a column takes (pi + f) - gamma (dpi + df),
gamma = <df, f>/<df, df>, only if it keeps Im pi >= 0.

The unknowns are lumped onto the row classes of spectral._row_classes, K in
all, and a contour is one K x P block, a column per point with its own
height, damping and tolerance: one iteration is one real K x K matrix
product for the whole contour, S and the inner products weight a class by
its size, and the residual, a max over classes, is that of the full b.
When the lumped b/N = U W has rank r <= _NEWTON_MAX_RANK, solve_curve takes
Newton steps instead, to pif - U J^-1 W (g^2 (pi - pif)), pif = (1/N) b g,
with the r x r Jacobian J = I - W diag(g^2) U: for pi = U c the step
c <- c - J^-1 (c - W g), carrying the remainder of b that U W misses. Its
r x r solve is a division at r <= 1, Cramer's rule at r = 2 (forward stable
at that size) and one batched LAPACK solve at r >= 3. A Newton point that
is not finite or leaves Im pi >= 0 gives way to the damped update, in its
own column.

The product form b = t(x) t(y) reduces to one scalar equation in v, with
pi = t v, solved by Newton steps on v - f(v), f(v) = -mean(t/(z + t v)).
When t has at most _SCALAR_MAX_RUNS runs (t_k, m_k) of equal values, f and
f' are Python complex sums of one term per run, else numpy sums over N.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import InvalidInput, LsdlabError, NoConvergence
from .spectral import _frozen, _row_classes, _Value
from .stieltjes import StieltjesCurve, _upper_half_plane

__all__ = [
    "SolverConfig",
    "ResolventProfile",
    "ScalarSolution",
    "DEFAULT_CONFIG",
    "solve_profile",
    "solve_curve",
    "solve_product_form",
    "semicircle_transform",
    "contraction_certificate",
    "continuity_bound",
    "measured_decay_ratio",
]


class SolverConfig(_Value):
    """Residual target and iteration budget of each stage; the solver chooses the rest."""

    _fields = ("tolerance", "max_iterations")

    def __init__(self, tolerance=1e-10, max_iterations=10_000):
        if not 0.0 < tolerance < np.inf:
            raise InvalidInput("tolerance must be positive and finite")
        if not isinstance(max_iterations, (int, np.integer)) or max_iterations < 1:
            raise InvalidInput("max_iterations must be an integer >= 1")
        self._set(tolerance, max_iterations)


DEFAULT_CONFIG = SolverConfig()


class ResolventProfile(_Value):
    """Converged profile g(., z) with its self-energy, transform and diagnostics.

    ``pi`` = (1/N) b g of the returned g, ``residual`` = max_i |g[i] + 1/(z + pi[i])|,
    and ``residual_history`` is the residual trace of the final stage.
    """

    _fields = ("z", "g", "pi", "S", "iterations", "residual", "residual_history", "stages")

    def __init__(self, z, g, pi, iterations=0, residual=0.0, residual_history=None, stages=1):
        g = _frozen(g, complex)
        pi = _frozen(pi, complex)
        _check_herglotz(z, g, pi)
        hist = _frozen([residual] if residual_history is None else residual_history)
        self._set(z, g, pi, complex(g.mean()), iterations, residual, hist, stages)


def _check_herglotz(z, g, pi):
    """Raise unless g and pi, one row per point z, keep the Herglotz bounds.

    Each row's Im pi >= 0 is judged on that row's scale, 1e-15 (1 + max|pi|).
    """
    z = np.reshape(z, (-1, 1))
    slack = 1.0 + 1e-12
    if (g.imag <= 0).any():
        raise LsdlabError("solver postcondition failed: Im g > 0")
    if (np.abs(g) * z.imag > slack).any():
        raise LsdlabError("solver postcondition failed: |g| <= 1/Im z")
    # the bound is negative, so the row scales matter only where some Im pi < 0
    if (pi.imag < 0).any() and (pi.imag < -1e-15 * (1.0 + np.abs(pi).max(axis=-1, keepdims=True))).any():
        raise LsdlabError("solver postcondition failed: Im pi >= 0")
    if (np.abs(z + pi) < z.imag / slack).any():
        raise LsdlabError("solver postcondition failed: |z + pi| >= Im z")


class ScalarSolution(_Value):
    """Solution of the rank-one (product-profile) reduction at one point.

    v solves v = -(1/N) sum_j t[j]/(z + t[j] v), and S = -(1/N) sum_j 1/(z + t[j] v)
    is the mean of g = -1/(z + t v) at that v. At the exact fixed point S also
    equals -(1 + v^2)/z, but that form divides the stopping error of v by |z|.
    """

    _fields = ("z", "v", "S", "iterations", "residual")

    def __init__(self, z, v, S, iterations=0, residual=0.0):
        self._set(z, v, S, iterations, residual)


def semicircle_transform(sigma2, z):
    """Closed-form transform of the semicircle law of variance sigma2.

    S = -2 / (z + sqrt(z^2 - 4 sigma2)), the root whose branch follows z (see
    _semicircle).
    """
    if sigma2 <= 0:
        raise InvalidInput("sigma2 must be positive")
    return complex(_semicircle(sigma2, _upper_half_plane(z)))


def _semicircle(mass, z):
    """S_sc(z; B) = -2 / (z + sqrt(z^2 - 4B)) for z in the upper half-plane, B >= 0.

    The root whose branch follows z is sqrt(z - 2 sqrt(B)) sqrt(z + 2 sqrt(B))
    with principal roots: both factors lie in the first quadrant, and no
    z^2 - 4B is formed. So S stays finite with Im S >= 0 at every B, down to
    B = 0 (S = -1/z), where the textbook -(z - root)/(2B) loses all its digits.
    Takes a z or an array of them.
    """
    edge = 2.0 * np.sqrt(mass)
    return -2.0 / (z + np.sqrt(z - edge) * np.sqrt(z + edge))


def contraction_certificate(b, z):
    """A-priori Lipschitz factor B/(Im z)^2 of the self-energy iteration, inf once (Im z)^2 underflows."""
    h2 = _upper_half_plane(z).imag ** 2
    return float(b.mass / h2) if h2 else np.inf


def continuity_bound(b1, b2, z):
    """Bound on |S1 - S2| from the L1 gap of two densities.

    sup_x |pi1 - pi2| <= Im z / ((Im z)^2 - B_max) * ||b1 - b2||_{L1,grid},
    and the transform gap is that over (Im z)^2. Valid only where
    (Im z)^2 > B_max.
    """
    z = _upper_half_plane(z)
    if b1.n != b2.n:
        raise InvalidInput("density grids must share the same size")
    bmax = max(b1.mass, b2.mass)
    if z.imag**2 <= bmax:
        raise InvalidInput("bound requires (Im z)^2 > max mass")
    l1 = float(np.abs(b1.values - b2.values).mean())
    return float(z.imag * l1 / ((z.imag**2 - bmax) * z.imag**2))


# Geometric step by which the ladder lowers Im z.
_CONTINUATION_FACTOR = 0.7


def _ladder_heights(im_target, mass):
    heights = [max(im_target, 2.0 * np.sqrt(mass + 1.0))]
    while heights[-1] * _CONTINUATION_FACTOR > im_target:
        heights.append(heights[-1] * _CONTINUATION_FACTOR)
    if heights[-1] > im_target:
        heights.append(im_target)
    return heights


# Residual at which inner ladder stages stop.
_INNER_TOLERANCE = 1e-4
# Densities of rank up to this take Newton steps with r x r Jacobians (see
# _factor); above it the block runs the plain map: on 61-point contours the
# two broke even near r = 32 at N = 128 and r = 43 at N = 256.
_NEWTON_MAX_RANK = 32
# Profiles of up to this many runs of equal values take the scalar stage's
# sums as one Python term per run; longer ones take numpy over all N entries,
# whose call overhead a long Python sum outgrows: one stage broke even near
# 16 runs at N = 128.
_SCALAR_MAX_RUNS = 16
# Iteration cap of every point's direct stage at its target height.
_DIRECT_ITERATIONS = 50


def _no_convergence(z, stage, height, residual, iterations):
    return NoConvergence(
        f"contour point z = {z:.6g}: stage {stage} at Im z = {height:.6g}: "
        f"residual {residual:.3e} after {iterations} iterations",
        stage=stage,
        height=height,
        residual=residual,
    )


def _attempts(im_target, mass, cfg):
    """Stages to try in turn for one point, as (height, damping, tolerance, budget).

    A generator of two attempts, the direct stage and then the ladder, which
    is built only when the caller asks for it. A damping below 1 marks a
    stage as uncertified.
    """

    def stage(h, tol, budget):
        certified = mass < h * h  # compared, not divided: h * h is 0 below about 1.5e-162
        return h, 1.0 if certified else 0.5, tol, budget

    yield (stage(im_target, cfg.tolerance, min(cfg.max_iterations, _DIRECT_ITERATIONS)),)
    *inner, last = _ladder_heights(im_target, mass)
    loose = max(_INNER_TOLERANCE, cfg.tolerance)
    budget = cfg.max_iterations
    yield tuple(stage(h, loose, budget) for h in inner) + (stage(last, cfg.tolerance, budget),)


def _factor(bvals, n):
    """Complete-pivot cross approximation bvals/n = U W + E with max|E| <= 1e-12 max bvals/n.

    Returns (U, W), U of size K x r, or None when r would pass _NEWTON_MAX_RANK.
    """
    rest = np.array(bvals, dtype=float)
    size = len(rest)
    floor = 1e-12 * rest.max()
    us, ws = [], []
    while True:
        i, j = np.unravel_index(np.abs(rest).argmax(), rest.shape)
        if not abs(rest[i, j]) > floor:
            return np.reshape(us, (-1, size)).T.copy(), np.reshape(ws, (-1, size)) / n
        if len(us) == _NEWTON_MAX_RANK:
            return None
        us.append(rest[:, j] / rest[i, j])
        ws.append(rest[i].copy())
        rest -= np.outer(us[-1], ws[-1])


def _newton_solve(jacs, rhs):
    """y = J^-1 rhs of every column, from the P x r x r stack of J and the r x P rhs.

    A singular or non-finite J gives a non-finite y in its own column only;
    a batched solve that finds a singular J solves the columns one at a time.
    """
    if len(rhs) <= 1:
        return rhs / jacs.reshape(rhs.shape)
    if len(rhs) == 2:
        (a, b), (c, d) = jacs.transpose(1, 2, 0)
        return np.array([d * rhs[0] - b * rhs[1], a * rhs[1] - c * rhs[0]]) / (a * d - b * c)
    try:
        return np.ascontiguousarray(np.linalg.solve(jacs, rhs.T[:, :, None])[:, :, 0].T)
    except np.linalg.LinAlgError:
        if len(jacs) > 1:
            return np.hstack([_newton_solve(jacs[k : k + 1], rhs[:, k : k + 1]) for k in range(len(jacs))])
        return np.full(rhs.shape, np.nan, dtype=complex)


def _solve_block(b, zs, cfg, newton=False):
    """Solve every point of zs as one column of a K x P block fixed point.

    Each point walks its own _attempts, and its column leaves the block once
    the point converges. ``newton`` asks for Newton steps, which the block
    takes when _factor finds a low rank. The Herglotz postcondition is
    checked once, on every point. Returns per point of zs its S,
    column-iterations over all attempts, final residual, stage count and
    last stage's residuals, then (g, pi) of the contour's first point on all
    N rows: a one-column call's profile.
    """
    n, mass = b.n, b.mass
    labels, sizes, bvals = _row_classes(b.values)
    classes = len(sizes)
    # class sizes as a column of weights, 1.0 for every row when no two rows share a class
    m = sizes.astype(float)[:, None]
    rowmean = bvals.sum(axis=1) / n
    factor = _factor(bvals, n) if newton else None
    newton = factor is not None
    if newton:
        U, W = factor
        r = U.shape[1]
        # row i r + j of jac is W[i, :] U[:, j], so jac @ g^2 stacks W diag(g^2) U
        jac = (W[:, None, :] * U.T[None, :, :]).reshape(r * r, classes)
        eye = np.eye(r)
    size = len(zs)
    # per point: the generator of its attempts, the stages of its current attempt,
    # where it is in them, and its results
    attempts = [_attempts(h, mass, cfg) for h in zs.imag.tolist()]
    plan = [next(more) for more in attempts]
    stage = [0] * size
    count = [0] * size  # column-iterations over all attempts
    history = [[] for _ in range(size)]  # residuals of the current stage, the last one final
    # per column, each a vector of the block's width: the point it solves, the block
    # iterations at which its stage began and at which its budget runs out, its z and
    # its damping d
    point = np.arange(size)
    start, end = np.zeros((2, size), dtype=np.int64)
    z = np.empty(size, dtype=complex)
    damp, tol = np.empty((2, size))
    # K x P blocks of pi and of the previous step f and update G of the Anderson
    # mixing (or the Newton point); g and pi of each point as its column leaves
    pi, fp, gp = np.zeros((3, classes, size), dtype=complex)
    gs, pis = np.empty((2, size, classes), dtype=complex)
    it = 0

    def start_stage(k):
        p = point[k]
        h, damp[k], tol[k], budget = plan[p][stage[p]]
        z[k] = complex(zs[p].real, h)
        start[k], end[k] = it, it + budget  # a new start also resets the column's mixing history
        history[p] = []

    for k in range(size):
        start_stage(k)
    np.multiply.outer(rowmean, _semicircle(mass, z), out=pi)
    width, deadline = 0, int(end.min())
    while point.size:
        if width != point.size:
            width = point.size
            g, pif, w, s = np.empty((4, classes, width), dtype=complex)
            absw = np.empty((classes, width))
            # the same blocks as float64 (re, im) pairs: numpy adds these, bit for bit, about
            # twice as fast as complex arrays, and matmul takes them as real K x 2P matrices
            pi_r, g_r, pif_r, w_r, s_r, fp_r, gp_r = (a.view(np.float64) for a in (pi, g, pif, w, s, fp, gp))
            z_r = z.view(np.float64)
            points = point.tolist()
        np.add(pi_r, z_r, out=w_r)
        np.divide(-1.0, w, out=g)
        np.matmul(bvals, g_r, out=pif_r)
        pif_r *= 1.0 / n  # what pif /= n computes: numpy divides a complex by a real through its reciprocal
        np.add(pif_r, z_r, out=w_r)
        np.divide(1.0, w, out=w)
        w += g
        res = np.abs(w, out=absw).max(axis=0)
        it += 1
        for p, x in zip(points, res.tolist()):
            history[p].append(x)
        # one reduction catches converged columns and NaN residuals alike
        event = it >= deadline or not (res > tol).all()
        if newton:
            # the Newton point pif - U J^-1 W (g^2 (pi - pif)) of every column, in fp
            np.multiply(g, g, out=s)
            jacs = eye - (jac @ s_r).view(complex).T.reshape(width, r, r)
            np.subtract(pi_r, pif_r, out=w_r)
            w *= s
            # a J of 0 or an overflow gives a non-finite point, which the test below rejects
            with np.errstate(all="ignore"):
                y = _newton_solve(jacs, (W @ w_r).view(complex))
                # np.dot, not matmul: at rank 1 numpy's matmul skips BLAS and took 4x as long
                np.dot(U, y.view(np.float64), out=fp_r)
                np.subtract(pif_r, fp_r, out=fp_r)
            # a column whose Newton point is not finite or leaves Im pi >= 0 keeps G
            take = np.isfinite(fp).all(axis=0) & (fp.imag >= 0).all(axis=0)
        if newton and take.all():
            np.copyto(pi, fp)  # no column keeps the damped update G, so it is not formed
        else:
            # the damped step f = d (pif - pi) of every column, in w, and G = pi + f
            np.subtract(pif_r, pi_r, out=w_r)
            w *= damp
            mixed = damp < 1  # columns whose stage lies outside the certified region
            mixing = not newton and mixed.any()
            if mixing:
                # Anderson(1) weight gamma = <df, f>/<df, df> of each column, from f
                # and df = f - f_prev (in fp), each class's row weighted by its
                # size as the N rows it stands for would be
                np.subtract(w_r, fp_r, out=fp_r)
                np.conjugate(fp, out=s)
                s *= w
                s_r *= m
                num = s.sum(axis=0)
                fp_r *= fp_r
                fp_r *= m
                den = fp_r.sum(axis=0).reshape(width, 2).sum(axis=1)
                fp[...] = w
            pi_r += w_r
            if newton:
                np.copyto(pi, fp, where=take)
            elif mixing:
                # candidate G - gamma (dpi + df), where dpi + df = G - G_prev, for the
                # uncertified columns with a previous step in their stage
                np.subtract(pi_r, gp_r, out=w_r)
                gp[...] = pi
                take = mixed & (it - start >= 2) & (den > 0)
                w *= np.divide(num, den, out=np.zeros_like(num), where=take)
                np.subtract(pi_r, w_r, out=w_r)
                take &= (w.imag >= 0).all(axis=0)
                np.copyto(pi, w, where=take)
        if not event:
            continue
        done = res <= tol
        finished = []
        for k in np.flatnonzero(done | (end <= it) | ~(res < np.inf)).tolist():
            p, stage_its = points[k], it - int(start[k])
            count[p] += stage_its
            if done[k] and stage[p] + 1 == len(plan[p]):
                finished.append(k)
            elif done[k]:
                pi[:, k] = pif[:, k]
                stage[p] += 1
                start_stage(k)
            elif res[k] < np.inf and (retry := next(attempts[p], None)):
                plan[p], stage[p] = retry, 0
                start_stage(k)
                pi[:, k] = rowmean * _semicircle(mass, z[k])
            else:
                raise _no_convergence(complex(zs[p]), stage[p], float(z[k].imag), float(res[k]), stage_its)
        if finished:
            gs[point[finished]] = g[:, finished].T
            pis[point[finished]] = pif[:, finished].T
            keep = np.delete(np.arange(width), finished)
            point, start, end, z, damp, tol = (a[keep] for a in (point, start, end, z, damp, tol))
            # take, not a[:, keep]: that can be non-contiguous, which the float64 views refuse
            pi, fp, gp = (a.take(keep, axis=1) for a in (pi, fp, gp))
        deadline = int(end.min(initial=it))
    _check_herglotz(zs, gs, pis)
    S = (gs * m.T).sum(axis=1) / n
    stages = [len(stages) for stages in plan]
    profile = gs[0][labels], pis[0][labels]
    return S, count, [trace[-1] for trace in history], stages, history, profile


def solve_profile(b, z, cfg=None):
    """Solve the discretized self-consistent equation at one point.

    A one-column block that never takes Newton steps, whose residual history
    measured_decay_ratio reads; g and pi come back on all N rows.
    """
    z = _upper_half_plane(z)
    _, (its,), (res,), (stages,), (hist,), (g, pi) = _solve_block(b, np.array([z]), cfg or DEFAULT_CONFIG)
    return ResolventProfile(z, g, pi, iterations=int(its), residual=float(res), residual_history=hist, stages=stages)


def measured_decay_ratio(profile):
    """Geometric-mean residual decay over the last 10 iterations.

    This is the decay of the plain damped map only when the final stage is
    certified (B/(Im z)^2 < 1); uncertified stages are Anderson-mixed.
    """
    h = np.asarray(profile.residual_history, dtype=float)
    h = h[h > 0]
    if h.size < 2:
        return 0.0
    w = min(10, h.size - 1)
    return float((h[-1] / h[-1 - w]) ** (1.0 / w))


def solve_curve(b, contour, cfg=None):
    """Solve S(z) along a contour as one block fixed point.

    Columns are independent: a point's S (up to rounding) and ``iterations``
    (its own column-iterations over all attempts, the stalled ones included)
    match a solve of that point alone. Points come back in contour order.
    NoConvergence names the first point to fail, ties going to the earlier
    point of the contour.
    """
    zs = _upper_half_plane(np.ravel(contour))
    if not zs.size:
        raise InvalidInput("contour must contain at least one point")
    S, iterations, residuals = _solve_block(b, zs, cfg or DEFAULT_CONFIG, newton=True)[:3]
    return StieltjesCurve(zs, S, iterations, residuals)


def _run_sums(runs, n):
    """(sums, transform) of a profile of N entries from its runs (t_k, m_k).

    sums(z, v) gives f(v) = -mean(t/(z + t v)) and f'(v) = mean((t/(z + t v))^2),
    transform(z, v) gives S = -mean(1/(z + t v)), each as a Python complex
    sum of one term per run.
    """

    def sums(z, v):
        f = df = 0j
        for tk, mk in runs:
            q = tk / (z + tk * v)
            mq = mk * q
            f += mq
            df += mq * q
        return -f / n, df / n

    def transform(z, v):
        s = 0j
        for tk, mk in runs:
            s += mk / (z + tk * v)
        return -s / n

    return sums, transform


def _array_sums(t):
    """The (sums, transform) of _run_sums as numpy sums over the N entries of t."""
    n = len(t)
    inv = 1.0 / n
    tc = t.astype(complex)  # what numpy would cast t to in every product and quotient
    qq = np.empty((2, n), dtype=complex)
    q, q2 = qq

    def sums(z, v):
        np.multiply(tc, v, out=q)
        np.add(q, z, out=q)
        np.divide(tc, q, out=q)
        np.multiply(q, q, out=q2)
        # each row summed as np.mean sums it, without its call overhead, and
        # scaled as numpy divides a complex by n: through the reciprocal
        f, df = np.add.reduce(qq, axis=1).tolist()
        return -(f * inv), df * inv

    def transform(z, v):
        np.multiply(tc, v, out=q)
        np.add(q, z, out=q)
        np.reciprocal(q, out=q)
        return -(complex(np.add.reduce(q)) * inv)

    return sums, transform


def _scalar_stage(sums, z, v, damping, tol, max_iter):
    """Newton's method on v - f(v) = 0, with f(v) and f'(v) from sums(z, v).

    A Newton point that is not finite or leaves the upper half-plane is
    replaced by the damped step.
    """
    res = np.inf
    for it in range(1, max_iter + 1):
        f, df = sums(z, v)
        res = abs(f - v)
        if res <= tol:
            return f, res, it, True
        if not res < np.inf:
            break
        slope = 1.0 - df
        if slope != 0:  # complex division by zero raises
            newton = v - (v - f) / slope
            if newton.imag >= 0 and abs(newton) < np.inf:
                v = newton
                continue
        v = (1.0 - damping) * v + damping * f
    return v, res, it, False


def solve_product_form(t, z, cfg=None):
    """Solve the scalar reduction for a rank-one density b(x, y) = t(x) t(y).

    It walks the full solver's attempts with mean(t^2), which dominates the
    rank-one grid mass, as the mass, each from v0 = mean(t) S_sc(z; mean(t)^2):
    the block's start pi0 = t v0. ``iterations`` counts every attempt, the
    stalled ones included.
    """
    cfg = cfg or DEFAULT_CONFIG
    z = _upper_half_plane(z)
    mean_t = t.mean
    sums, transform = _run_sums(t.runs, t.n) if len(t.runs) <= _SCALAR_MAX_RUNS else _array_sums(t.values)
    total = 0
    for stages in _attempts(z.imag, t.mean_square, cfg):
        v = mean_t * complex(_semicircle(mean_t * mean_t, complex(z.real, stages[0][0])))
        for stage, (h, d, tol, budget) in enumerate(stages):
            v, res, its, ok = _scalar_stage(sums, complex(z.real, h), v, d, tol, budget)
            total += its
            if not ok:
                break
        if ok:
            break
    else:
        raise _no_convergence(z, stage, h, res, its)
    if v.imag < -1e-15 * (1.0 + abs(v)):
        raise LsdlabError("scalar solver postcondition failed: Im v >= 0")
    # Im v >= mean(t) Im z / a^2, a = |z| + max(t) mean(t) / Im z: > 0 unless that underflows
    a = abs(z) + t.max * mean_t / z.imag
    if mean_t / a * (z.imag / a) >= sys.float_info.min and not v.imag > 0:
        raise LsdlabError("scalar solver postcondition failed: Im v > 0")
    if abs(v) > (1.0 + 1e-9) * mean_t / z.imag:
        raise LsdlabError("scalar solver postcondition failed: |v| <= mean(t)/Im z")
    return ScalarSolution(z=z, v=v, S=complex(transform(z, v)), iterations=total, residual=res)
