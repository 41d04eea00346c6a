"""Self-consistent resolvent solver for limiting spectral distributions.

On a midpoint grid over [0, 1] the solver finds, for each z in the upper
half-plane, the profile g solving

    g[i] = -(z + (1/N) sum_j b[i, j] g[j])^(-1),      S(z) = (1/N) sum_i g[i],

by damped fixed-point iteration on the self-energy pi = (1/N) b g. The
update pi <- -(1/N) sum_j b[., j]/(z + pi[j]) preserves Im pi >= 0 and hence
|z + pi| >= Im z, so every iterate (and the converged profile) satisfies the
Herglotz bounds Im g > 0 and |g| <= 1/Im z.

The iteration contracts a priori with factor B/(Im z)^2 where B is the grid
mass of the density. For targets with Im z <= sqrt(B) the solver first
converges at a safe height where that factor is <= 1/4, then lowers Im z
geometrically, warm-starting each stage (convergence below sqrt(B) is
empirical, not certified; stage residuals are reported). Inner stages stop
at a loose residual; only the last stage of a point uses the tolerance.
Uncertified stages accelerate the damped update with Anderson mixing of
depth 1, accepting a mixed step only if it keeps Im pi >= 0; certified
stages run the plain update, whose rate the certificate bounds.

A contour is solved as one N x P block: every point (or chain of points
sharing Re z) is a column with its own height, damping and tolerance, so
one iteration is one real matrix product for the whole contour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, LsdlabError, NoConvergence
from .spectral import _frozen
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


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and continuation controls.

    ``max_iterations`` is the per-stage budget. ``damping`` applies inside
    the certified region (contraction factor < 1); stages below it use half
    of it. ``continuation_factor`` is the geometric step for lowering Im z;
    ``safe_height_multiplier`` scales the starting height of the ladder.
    """

    tolerance: float = 1e-10
    max_iterations: int = 10_000
    damping: float = 1.0
    continuation_factor: float = 0.7
    safe_height_multiplier: float = 1.0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise InvalidInput("tolerance must be positive")
        if self.max_iterations < 1:
            raise InvalidInput("max_iterations must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise InvalidInput("damping must be in (0, 1]")
        if not 0.0 < self.continuation_factor < 1.0:
            raise InvalidInput("continuation_factor must be in (0, 1)")
        if self.safe_height_multiplier < 1.0:
            raise InvalidInput("safe_height_multiplier must be >= 1")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class ResolventProfile:
    """Converged profile g(., z) with its self-energy, transform and diagnostics.

    ``pi`` is recomputed from the returned g (pi = (1/N) b g), and
    ``residual`` = max_i |g[i] + 1/(z + pi[i])| measures how far g is from
    solving the discretized equation. ``residual_history`` is the residual
    trace of the final continuation stage.
    """

    z: complex
    g: np.ndarray
    pi: np.ndarray
    S: complex = field(init=False)
    iterations: int = 0
    residual: float = 0.0
    residual_history: np.ndarray = None
    stages: int = 1

    def __post_init__(self):
        g = _frozen(self.g, complex)
        pi = _frozen(self.pi, complex)
        imz = complex(self.z).imag
        slack = 1.0 + 1e-12
        if (g.imag <= 0).any():
            raise LsdlabError("solver postcondition failed: Im g > 0")
        if (np.abs(g) > slack / imz).any():
            raise LsdlabError("solver postcondition failed: |g| <= 1/Im z")
        if (pi.imag < -1e-15 * (1.0 + np.abs(pi).max())).any():
            raise LsdlabError("solver postcondition failed: Im pi >= 0")
        if (np.abs(self.z + pi) < imz / slack).any():
            raise LsdlabError("solver postcondition failed: |z + pi| >= Im z")
        hist = [self.residual] if self.residual_history is None else self.residual_history
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "S", complex(g.mean()))
        object.__setattr__(self, "residual_history", _frozen(hist))


@dataclass(frozen=True)
class ScalarSolution:
    """Solution of the rank-one (product-profile) reduction at one point.

    v solves v = -(1/N) sum_j t[j]/(z + t[j] v); the transform follows as
    S = -(1 + v^2)/z, which holds exactly at the discrete fixed point.
    """

    z: complex
    v: complex
    S: complex
    iterations: int = 0
    residual: float = 0.0


def semicircle_transform(sigma2, z):
    """Closed-form transform of the semicircle law of variance sigma2.

    S = -(z - sqrt(z^2 - 4 sigma2)) / (2 sigma2), taking the square root with
    positive imaginary part.
    """
    if sigma2 <= 0:
        raise InvalidInput("sigma2 must be positive")
    z = _upper_half_plane(z)
    root = np.sqrt(complex(z * z - 4.0 * sigma2))
    if root.imag < 0:
        root = -root
    return complex(-(z - root) / (2.0 * sigma2))


def contraction_certificate(b, z):
    """A-priori Lipschitz factor B/(Im z)^2 of the self-energy iteration."""
    z = _upper_half_plane(z)
    return float(b.mass / z.imag**2)


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


def _ladder_heights(im_target, mass, cfg):
    h = cfg.safe_height_multiplier * max(im_target, 2.0 * np.sqrt(mass + 1.0))
    heights = [h]
    while heights[-1] * cfg.continuation_factor > im_target:
        heights.append(heights[-1] * cfg.continuation_factor)
    if heights[-1] > im_target:
        heights.append(im_target)
    return heights


# Inner ladder stages only seed the next, lower stage, so they stop at this
# residual; the last stage of every point converges to cfg.tolerance.
_INNER_TOLERANCE = 1e-4


def _no_convergence(z, stage, height, residual, iterations):
    return NoConvergence(
        f"contour point z = {z:.6g}: stage {stage} at Im z = {height:.6g}: "
        f"residual {residual:.3e} after {iterations} iterations",
        stage=stage,
        height=height,
        residual=residual,
    )


def _attempts(im_target, mass, cfg, warm):
    """Stages to try in turn for one point, as (height, damping, tolerance, certified).

    A warm first attempt is one direct stage from the previous converged pi;
    every later attempt restarts from pi = 0. A point in the certified region
    (Im z > sqrt(B)) plans one direct stage and retries a stall through the
    full ladder; below it the ladder is the plan. A stage is certified when
    B/h^2 < 1, and then runs at the full damping, else at half of it.
    """
    ladder = _ladder_heights(im_target, mass, cfg)
    plans = [[im_target], ladder] if im_target > np.sqrt(mass) else [ladder]
    if warm:
        plans.insert(0, [im_target])

    def stage(h, tol):
        certified = mass / (h * h) < 1.0
        return h, cfg.damping if certified else 0.5 * cfg.damping, tol, certified

    inner = max(_INNER_TOLERANCE, cfg.tolerance)
    return [[stage(h, inner) for h in hs[:-1]] + [stage(hs[-1], cfg.tolerance)] for hs in plans]


class _Column:
    """A chain of contour points sharing Re z, solved top-down in one block column."""

    def __init__(self, points):
        self.points = points  # indices into the contour, descending Im z
        self.next = 0  # position in ``points`` of the point being solved
        self.attempts = []
        self.attempt = 0
        self.stage = 0
        self.count = 0  # column-iterations since the previous emitted point
        self.history = []  # residuals of the current stage

    @property
    def stages(self):
        return self.attempts[self.attempt]


def _solve_block(b, zs, chains, cfg, pi0=None, history=False):
    """Solve every chain as one column of an N x P block fixed point.

    Each iteration costs one real matrix product for all columns. A column
    runs the ladder of its chain's highest point, emits that point, then
    runs one warm stage per lower point; finished columns leave the block.
    ``pi0`` warm-starts the point of a one-point block. Yields
    (point index, ResolventProfile) as points converge.
    """
    n, mass, budget = b.n, b.mass, cfg.max_iterations
    bvals = np.ascontiguousarray(b.values)
    cols = [_Column(chain) for chain in chains]
    size = len(cols)
    # pi, g, F(pi), two scratch rows, and the previous step f and update G
    # of the Anderson mixing; the active block is a contiguous prefix of
    # each buffer so that g viewed as float64 is a real N x 2P matrix
    buf = np.zeros((7, n * size), dtype=complex)
    z = np.empty(size, dtype=complex)
    # complex weights give the same rounding as a scalar damping factor
    damp = np.empty(size, dtype=complex)
    rest = np.empty(size, dtype=complex)
    tol = np.empty(size)
    start = np.zeros(size, dtype=np.int64)  # block iteration at which each column's stage began
    mixed = np.zeros(size, dtype=bool)  # stage outside the certified region
    it = 0
    if pi0 is not None:
        buf[0].reshape(n, size)[:, 0] = pi0

    def start_stage(k, col):
        h, d, tol[k], certified = col.stages[col.stage]
        z[k] = complex(zs[col.points[col.next]].real, h)
        damp[k], rest[k] = d, 1.0 - d
        start[k] = it  # also resets the column's mixing history
        mixed[k] = not certified
        col.history = []

    def start_point(k, col, warm):
        col.attempts = _attempts(zs[col.points[col.next]].imag, mass, cfg, warm)
        col.attempt = col.stage = 0
        start_stage(k, col)

    for k, col in enumerate(cols):
        start_point(k, col, warm=pi0 is not None)
    mixing = bool(mixed.any())
    active, deadline = 0, budget
    while cols:
        if active != len(cols):
            active = len(cols)
            pi, g, pif, w, s, fp, gp = (a[: n * active].reshape(n, active) for a in buf)
            absw = buf[4].view(np.float64)[: n * active].reshape(n, active)
            zv, dv, rv, tv, sv = z[:active], damp[:active], rest[:active], tol[:active], start[:active]
            mv = mixed[:active]
        np.add(pi, zv, out=w)
        np.divide(-1.0, w, out=g)
        np.matmul(bvals, g.view(np.float64), out=pif.view(np.float64))
        pif /= n
        np.add(pif, zv, out=w)
        np.divide(1.0, w, out=w)
        w += g
        res = np.abs(w, out=absw).max(axis=0)
        it += 1
        if history:
            for col, r in zip(cols, res):
                col.history.append(r)
        # one reduction catches converged columns and NaN residuals alike
        event = it >= deadline or not (res > tv).all()
        if mixing:
            # Anderson(1) weight gamma = <df, f>/<df, df> of each column, from
            # the step f = G - pi (in w) and df = f - f_prev (in fp)
            np.subtract(pif, pi, out=w)
            w *= dv
            np.subtract(w, fp, out=fp)
            np.conjugate(fp, out=s)
            s *= w
            num = s.sum(axis=0)
            sq = fp.view(np.float64)
            sq *= sq
            den = sq.sum(axis=0).reshape(active, 2).sum(axis=1)
            fp[...] = w
        np.multiply(pi, rv, out=pi)
        np.multiply(pif, dv, out=w)
        pi += w
        if mixing:
            # candidate G - gamma (dpi + df), where dpi + df = G - G_prev;
            # an uncertified column with a previous step in its stage takes
            # it if it keeps Im pi >= 0, every other column keeps G
            np.subtract(pi, gp, out=w)
            gp[...] = pi
            take = mv & (it - sv >= 2) & (den > 0)
            w *= np.divide(num, den, out=np.zeros_like(num), where=take)
            np.subtract(pi, w, out=w)
            take &= (w.imag >= 0).all(axis=0)
            np.copyto(pi, w, where=take)
        if not event:
            continue
        done = res <= tv
        for k in np.flatnonzero(done | (it - sv >= budget) | ~(res < np.inf)):
            col, stage_its = cols[k], it - int(sv[k])
            col.count += stage_its
            if done[k]:
                pi[:, k] = pif[:, k]
                if col.stage + 1 < len(col.stages):
                    col.stage += 1
                    start_stage(k, col)
                    continue
                p = col.points[col.next]
                yield p, ResolventProfile(
                    z=zs[p],
                    g=g[:, k],
                    pi=pif[:, k],
                    iterations=col.count,
                    residual=float(res[k]),
                    residual_history=col.history if history else None,
                    stages=len(col.stages),
                )
                col.count = 0
                col.next += 1
                if col.next < len(col.points):
                    start_point(k, col, warm=True)
                else:
                    cols[k] = None
            elif res[k] < np.inf and col.attempt + 1 < len(col.attempts):
                col.attempt += 1
                col.stage = 0
                pi[:, k] = 0.0
                start_stage(k, col)
            else:
                raise _no_convergence(
                    zs[col.points[col.next]], col.stage, col.stages[col.stage][0], float(res[k]), stage_its
                )
        if None in cols:
            keep = [k for k, col in enumerate(cols) if col is not None]
            cols = [cols[k] for k in keep]
            m = len(keep)
            # gather the persistent rows through the scratch buffer: no N x P temporary
            for row, a in ((0, pi), (5, fp), (6, gp)):
                kept = np.take(a, keep, axis=1, out=buf[3, : n * m].reshape(n, m), mode="clip")
                buf[row, : n * m].reshape(n, m)[...] = kept
            for a in (z, damp, rest, tol, start, mixed):
                a[:m] = a[:active][keep]
        mixing = bool(mixed[: len(cols)].any())
        deadline = int(start[: len(cols)].min(initial=it)) + budget


def solve_profile(b, z, cfg=None, initial_pi=None):
    """Solve the discretized self-consistent equation at one point.

    This is the one-column case of the block solve in ``solve_curve``.
    ``initial_pi`` seeds a direct solve at the target (it must have
    Im >= 0), with a cold continuation restart as fallback. The profile's
    ``residual_history`` is the trace of its final stage.
    """
    cfg = cfg or DEFAULT_CONFIG
    z = _upper_half_plane(z)
    pi0 = None
    if initial_pi is not None:
        pi0 = np.asarray(initial_pi, dtype=complex)
        if pi0.shape != (b.n,):
            raise InvalidInput("initial_pi must match the grid size")
        if (pi0.imag < 0).any():
            raise InvalidInput("initial_pi must have nonnegative imaginary part")
    ((_, profile),) = _solve_block(b, [z], [[0]], cfg, pi0=pi0, history=True)
    return profile


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

    Points sharing a real part form a chain, solved top-down in one block
    column where each converged point seeds the next. Columns are
    independent, so results do not depend on how chains share the block.
    Points come back in (descending Im z, ascending Re z) order.
    """
    cfg = cfg or DEFAULT_CONFIG
    pts = _upper_half_plane(np.ravel(contour)).tolist()
    if not pts:
        raise InvalidInput("contour must contain at least one point")
    order = sorted(range(len(pts)), key=lambda i: (-pts[i].imag, pts[i].real))
    chains = {}
    for i in order:
        chains.setdefault(pts[i].real, []).append(i)
    S = np.empty(len(pts), dtype=complex)
    iterations = np.empty(len(pts), dtype=np.int64)
    residuals = np.empty(len(pts))
    for i, prof in _solve_block(b, pts, list(chains.values()), cfg):
        S[i], iterations[i], residuals[i] = prof.S, prof.iterations, prof.residual
    return StieltjesCurve(
        z=np.array(pts)[order],
        S=S[order],
        iterations=iterations[order],
        residuals=residuals[order],
    )


def _scalar_stage(t, z, v, damping, tol, max_iter):
    """Newton's method on v - f(v) = 0, f(v) = -mean(t/(z + t v)).

    f'(v) = mean((t/(z + t v))^2). A Newton point that is not finite or
    leaves the upper half-plane is replaced by the damped step.
    """
    res = np.inf
    for it in range(1, max_iter + 1):
        q = t / (z + t * v)
        f = complex(-np.mean(q))
        res = abs(f - v)
        if res <= tol:
            return f, res, it, True
        if not res < np.inf:
            break
        slope = 1.0 - complex(np.mean(q * q))
        if slope != 0:  # complex division by zero raises
            newton = v - (v - f) / slope
            if newton.imag >= 0 and abs(newton) < np.inf:
                v = newton
                continue
        v = (1.0 - damping) * v + damping * f
    return v, res, it, False


def solve_product_form(t, z, cfg=None):
    """Solve the scalar reduction for a rank-one density b(x, y) = t(x) t(y).

    Continuation follows the full solver's attempts, with the profile's mean
    square in the role of the contraction mass (it dominates the rank-one
    grid mass). Only the converged attempt's iterations are counted.
    """
    cfg = cfg or DEFAULT_CONFIG
    z = _upper_half_plane(z)
    tv = np.asarray(t.values, dtype=float)
    m2 = float(np.mean(tv * tv))
    for stages in _attempts(z.imag, m2, cfg, warm=False):
        v, total = 0j, 0
        for stage, (h, d, tol, _) in enumerate(stages):
            v, res, its, ok = _scalar_stage(tv, complex(z.real, h), v, d, tol, cfg.max_iterations)
            total += its
            if not ok:
                break
        if ok:
            break
    else:
        raise _no_convergence(z, stage, h, res, its)
    mean_t = float(tv.mean())
    if v.imag < -1e-15 * (1.0 + abs(v)):
        raise LsdlabError("scalar solver postcondition failed: Im v >= 0")
    if tv.max() > 0 and mean_t > 0 and not v.imag > 0:
        raise LsdlabError("scalar solver postcondition failed: Im v > 0")
    if abs(v) > (1.0 + 1e-9) * mean_t / z.imag:
        raise LsdlabError("scalar solver postcondition failed: |v| <= mean(t)/Im z")
    s = -(1.0 + v * v) / z
    return ScalarSolution(z=z, v=v, S=complex(s), iterations=total, residual=res)
