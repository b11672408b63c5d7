"""Univariate component densities, their gamma-weighted mixture, analytic
tempering, exact sampling, an adaptive Gauss-Kronrod quadrature oracle, the
one domain (window and breakpoints) over which it integrates a mixture, and
the one root finder that adds an integrand's kinks to those breakpoints: it
scans every piece between breakpoints on its own evenly spaced points,
brackets sign changes by comparing signs only, then refines every bracket
at once by Chandrupatla's interpolation, with a fixed step cap.

Two component families are provided: Gaussians (the synthetic-experiment
world) and uniform intervals (the family on which the forget-error lower
bound is attained exactly).  All objects are immutable after construction
and safe to share across concurrent workers; rng state is always passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import _kernels
from ._kernels import as_array

WINDOW_STDDEVS = 12.0  # +-12 max-stddev window truncates Gaussian mass ~1e-30
MAX_DEPTH = 20  # subdivision levels before quadrature gives up
MAX_EVALUATIONS = 1_000_000  # integrand values (points x rows) per quadrature
LOG_SUM_EXP_FLOOR = -40.0  # floor of min - max in Mixture.log_density; e^-40 = 4.2e-18
ROOT_SCAN_POINTS = 128  # evenly spaced scan points per breakpoint piece in sign_change_roots
ROOT_MAX_STEPS = 80  # refinement steps per bracket before sign_change_roots stops

# The Gauss-Kronrod 7/15 pair on [-1, 1], from QUADPACK's dqk15 (Piessens et
# al., QUADPACK, Springer 1983): the positive Kronrod nodes and their weights,
# descending to the center node 0, and the Gauss weights on xgk[1], xgk[3],
# xgk[5] and xgk[7].
_XGK = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
        0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
        0.207784955007898468, 0.0)
_WGK = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
        0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
        0.204432940075298892, 0.209482141084727828)
_WG = (0.129484966168869693, 0.279705391489276668, 0.381830050505118945,
       0.417959183673469388)


def _gauss_kronrod_15():
    """The 15 nodes on [-1, 1], ascending, and the (15, 2) weights whose
    columns give a panel's K15 sum and its K15 - G7 difference."""
    nodes = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
    kronrod = np.array(_WGK[:-1] + _WGK[::-1])
    gauss = np.zeros(15)
    gauss[1::2] = _WG[:-1] + _WG[::-1]
    return nodes, np.stack([kronrod, kronrod - gauss], axis=1)


_GK_NODES, _GK_WEIGHTS = _gauss_kronrod_15()


class QuadratureError(RuntimeError):
    """Adaptive Gauss-Kronrod hit its depth or evaluation limit without
    converging, or the integrand returned a non-finite value."""


@dataclass(frozen=True)
class GaussianComponent:
    """N(mean, variance) with exact sampling and analytic tempering."""

    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        # 2*pi*v is the scale of the density's normalizer, so it must be finite too
        if not (0.0 < self.variance and 2.0 * math.pi * self.variance < math.inf):
            raise ValueError(
                f"variance must be positive with 2*pi*variance finite, got {self.variance}"
            )

    def log_density(self, z):
        z = as_array(z)
        return _kernels.gauss_logpdf(z, float(self.mean), float(self.variance))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws, scaled and shifted in place in one fresh array; bitwise
        rng.normal(mean, sd, n)."""
        out = rng.standard_normal(n)
        out *= math.sqrt(self.variance)
        out += self.mean
        return out

    def entropy(self) -> float:
        return 0.5 * math.log(2.0 * math.pi * math.e * self.variance)

    def peak_density(self) -> float:
        return (2.0 * math.pi * self.variance) ** -0.5

    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def temper(self, T: float) -> tuple["GaussianComponent", float]:
        """Tempered component and the constant C with N^(1/T) = C * tempered.

        Raising N(mu, v) to 1/T rescales the variance to T*v; the leftover
        constant is C = (2*pi*v)^((T-1)/(2T)) * sqrt(T).
        """
        _kernels.check_temperature(T)
        normalizer = (2.0 * math.pi * self.variance) ** ((T - 1.0) / (2.0 * T)) * math.sqrt(T)
        return GaussianComponent(self.mean, T * self.variance), normalizer


@dataclass(frozen=True)
class UniformComponent:
    """Uniform density on [lo, hi]; log-density is -inf off the support."""

    lo: float
    hi: float

    def __post_init__(self):
        # the width and the density 1 / width must both be finite
        if not (-math.inf < self.lo < self.hi < math.inf
                and 0.0 < 1.0 / (self.hi - self.lo) < math.inf):
            raise ValueError(
                f"need finite lo < hi with a finite width and density, got [{self.lo}, {self.hi}]"
            )

    def log_density(self, z):
        z = as_array(z)
        inside = (z >= self.lo) & (z <= self.hi)
        return np.where(inside, -math.log(self.hi - self.lo), -math.inf)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws, scaled and shifted in place in one fresh array; bitwise
        rng.uniform(lo, hi, n)."""
        out = rng.random(n)
        out *= self.hi - self.lo
        out += self.lo
        return out

    def entropy(self) -> float:
        return math.log(self.hi - self.lo)

    def peak_density(self) -> float:
        # equals the squared L2 norm of the density: width * (1/width)^2
        return 1.0 / (self.hi - self.lo)

    def stddev(self) -> float:
        return (self.hi - self.lo) / math.sqrt(12.0)

    def temper(self, T: float) -> tuple["UniformComponent", float]:
        """Tempering a flat density leaves it flat; only the constant moves."""
        _kernels.check_temperature(T)
        width = self.hi - self.lo
        return self, width ** ((T - 1.0) / T)

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)


Component = Union[GaussianComponent, UniformComponent]


@dataclass(frozen=True)
class Mixture:
    """p = (1 - gamma) * retain + gamma * forget."""

    gamma: float
    retain: Component
    forget: Component

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    @property
    def is_gaussian(self) -> bool:
        return isinstance(self.retain, GaussianComponent) and isinstance(
            self.forget, GaussianComponent
        )

    def log_density(self, z, log_retain=None):
        """ln p(z) as hi + log1p(exp(d)), the log-sum-exp of the weighted
        component log-densities a = ln(1 - gamma) + ln p_r and
        b = ln gamma + ln p_f, with hi = max(a, b) and d = min(a, b) - hi
        floored at LOG_SUM_EXP_FLOOR = c.  The floor costs at most e^c
        absolute in ln p, keeps exp off its slow subnormal range, and turns
        the NaN of -inf - -inf (off both uniform supports) into c, so there
        ln p is -inf.  ``log_retain``, when given, is ln p_r(z), already
        computed by the caller; the bits are the same either way."""
        z = as_array(z)
        if log_retain is None:
            a = self.retain.log_density(z)
        else:
            if np.shape(log_retain) != z.shape:
                raise ValueError(
                    f"log_retain has shape {np.shape(log_retain)}, z has shape {z.shape}"
                )
            a = np.array(log_retain, dtype=np.float64)
        a += math.log1p(-self.gamma)
        b = self.forget.log_density(z)
        b += math.log(self.gamma)
        hi = np.maximum(a, b)
        d = np.minimum(a, b, out=b)
        with np.errstate(invalid="ignore"):
            d -= hi
        np.fmax(d, LOG_SUM_EXP_FLOOR, out=d)
        np.exp(d, out=d)
        np.log1p(d, out=d)
        hi += d
        return hi

    def sample_labeled(self, rng: np.random.Generator, n: int):
        """Draw (z, s) pairs: the label s ~ Bernoulli(1 - gamma) first
        (s True means retain), then z from the labeled component.  Both
        components draw n values and z keeps the labeled one, written over
        the forget draws.  The label uniforms are dropped once s is formed,
        so at most s and two float64 arrays of n are live at once."""
        s = rng.random(n) < 1.0 - self.gamma
        z_r = self.retain.sample(rng, n)
        z = self.forget.sample(rng, n)
        np.copyto(z, z_r, where=s)
        return z, s


def quadrature_domain(
    m: Mixture, temperatures: Sequence[float] = (1.0,)
) -> tuple[float, float, tuple[float, ...]]:
    """Where to integrate a mixture integrand tempered at each of
    ``temperatures``: the window (lo, hi) and the sorted breakpoints that
    pre-split it.

    The window runs WINDOW_STDDEVS of the largest component stddev beyond
    the extreme component means, with each Gaussian tempered at the largest
    T (a uniform counts at its own stddev), widened to cover every uniform
    support.  The breakpoints are the union over the temperatures of each
    component's: a uniform's support edges (where integrands jump) and a
    tempered Gaussian's mean, +-1 and +-7 stddev (where they spike).

    A Gaussian's outer breakpoints sit at +-7 stddev, where the one-sided
    tail mass is 1.3e-12.  The panel beyond is wide next to a narrow spike,
    so its nodes may not see the tail at all; at +-6 stddev that tail holds
    1e-9, more than the default tolerance."""
    if len(temperatures) == 0:
        raise ValueError("quadrature_domain needs at least one temperature")
    t_max = max(temperatures)
    means, stds, edges = [], [], []
    pts = set()
    for c in (m.retain, m.forget):
        if isinstance(c, UniformComponent):
            means.append(0.5 * (c.lo + c.hi))
            stds.append(c.stddev())
            edges.extend((c.lo, c.hi))
        else:
            means.append(c.mean)
            stds.append(math.sqrt(t_max * c.variance))
            for T in temperatures:
                s = math.sqrt(T * c.variance)
                pts.update((c.mean - 7.0 * s, c.mean - s, c.mean, c.mean + s, c.mean + 7.0 * s))
    pts.update(edges)
    smax = max(stds)
    lo = min([min(means) - WINDOW_STDDEVS * smax, *edges])
    hi = max([max(means) + WINDOW_STDDEVS * smax, *edges])
    return lo, hi, tuple(sorted(pts))


def _piece_edges(lo: float, hi: float, breakpoints: Sequence[float]) -> np.ndarray:
    """The window's ends and the distinct ``breakpoints`` strictly inside
    it, sorted: the edges of the pieces that ``quadrature`` integrates and
    ``sign_change_roots`` scans.  Raises ValueError unless lo and hi are
    finite with lo < hi."""
    for name, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    inside = sorted({float(b) for b in breakpoints if lo < b < hi})
    return np.array([lo, *inside, hi], dtype=np.float64)


def sign_change_roots(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
    rtol: float = 1e-14,
) -> tuple[float, ...]:
    """The sign changes inside (lo, hi) of every row of g, sorted: the kinks
    of |g|, to pass to ``quadrature`` with ``breakpoints``.

    ``g`` is vectorised as a quadrature integrand is: it maps n points to
    (n,) values or to a (k, n) block of k rows.  The ``breakpoints`` inside
    the window cut it into pieces, and each piece is scanned on its own
    ROOT_SCAN_POINTS evenly spaced points, its ends included, so the narrow
    pieces around a sharp spike are scanned as finely as the wide tails
    (QUADPACK's remedy, Piessens et al. 1983: put the points where the kinks
    are).  A row's sign flip between neighbouring scan points is a bracket,
    and a scan point where the row is exactly 0 between nonzero values of
    opposite sign is itself a root; a run of zeros, or a NaN, never
    brackets.  All brackets of all rows are then refined at once, each on
    its own row, by Chandrupatla's method (Adv. Eng. Software 28(3), 1997):
    a step goes to the inverse-quadratic interpolant of the bracket's ends
    and the end last dropped where that passes Chandrupatla's safety test
    and is finite, and to the midpoint otherwise, kept at least half the
    tolerance inside the bracket.  Which end a point replaces is decided by
    signs alone, so the bracket always holds a sign change: a NaN replaces
    the newest end, and an exact zero is itself the root.  Each bracket
    stops once its width is below rtol * max(1, |midpoint|), returning the
    midpoint, or after ROOT_MAX_STEPS steps.  Smooth kinks take about 5
    steps at rtol 1e-9 or 1e-14.

    Raises ValueError unless ``lo`` and ``hi`` are finite with lo < hi and
    ``rtol`` is >= 0, before g is called."""
    edges = _piece_edges(lo, hi, breakpoints)
    if not rtol >= 0.0:
        raise ValueError(f"rtol must be >= 0, got {rtol}")
    steps = np.arange(ROOT_SCAN_POINTS) / ROOT_SCAN_POINTS
    z = np.append((edges[:-1, None] + np.diff(edges)[:, None] * steps).ravel(), hi)
    v = np.atleast_2d(g(z))
    s = np.sign(v)
    _, zero_cols = np.nonzero((s[:, 1:-1] == 0.0) & (s[:, :-2] * s[:, 2:] < 0.0))
    rows, cols = np.nonzero(s[:, :-1] * s[:, 1:] < 0.0)
    # one column per open bracket: x[0] is its newest end, x[1] its other
    # end, x[2] the end it last dropped; side is the sign of g at x[0]
    x = np.stack([z[cols], z[cols + 1], z[cols + 1]])
    f = np.stack([v[rows, cols], v[rows, cols + 1], v[rows, cols + 1]])
    side = s[rows, cols]
    t = np.full(cols.size, 0.5)
    slot = np.arange(cols.size)
    roots = np.empty(cols.size)
    for _ in range(ROOT_MAX_STEPS):
        if slot.size == 0:
            break
        xt = x[0] + t * (x[1] - x[0])
        ft = np.atleast_2d(g(xt))[rows, np.arange(slot.size)]
        flip = ft * side < 0.0
        x[2], f[2] = np.where(flip, x[1], x[0]), np.where(flip, f[1], f[0])
        x[1], f[1] = np.where(flip, x[0], x[1]), np.where(flip, f[0], f[1])
        x[0], f[0] = xt, ft
        side = np.where(flip, -side, side)
        mid = 0.5 * (x[0] + x[1])
        width = np.abs(x[1] - x[0])
        tol = rtol * np.maximum(1.0, np.abs(mid))
        zero = ft == 0.0
        done = zero | (width < tol)
        roots[slot[done]] = np.where(zero, xt, mid)[done]
        open_ = ~done
        x, f, side, rows, slot = x[:, open_], f[:, open_], side[open_], rows[open_], slot[open_]
        t = _chandrupatla_t(x, f, 0.5 * tol[open_] / width[open_])
    roots[slot] = 0.5 * (x[0] + x[1])
    return tuple(np.sort(np.concatenate([roots, z[zero_cols + 1]])).tolist())


def _chandrupatla_t(x: np.ndarray, f: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """The next step of each bracket in ``sign_change_roots``, as the
    fraction t of the way from x[0] to x[1], clipped to [margin, 1 - margin]:
    the inverse-quadratic interpolant through (x, f) where Chandrupatla's
    test phi^2 < xi and (1 - phi)^2 < 1 - xi passes and it is finite, 0.5
    (the midpoint) otherwise.  Infinite or NaN values fail the test quietly."""
    with np.errstate(all="ignore"):
        xi = (x[0] - x[1]) / (x[2] - x[1])
        phi = (f[0] - f[1]) / (f[2] - f[1])
        iqi = (f[0] / (f[1] - f[0]) * f[2] / (f[1] - f[2])
               + (x[2] - x[0]) / (x[1] - x[0]) * f[0] / (f[2] - f[0]) * f[1] / (f[2] - f[1]))
        ok = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(iqi)
    return np.clip(np.where(ok, iqi, 0.5), margin, 1.0 - margin)


def quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> Union[float, np.ndarray]:
    """Adaptive Gauss-Kronrod (7/15) integral of f over [lo, hi].

    ``f`` is evaluated on whole batches of points: it takes a 1-d float64
    array of n points and returns either a float64 array of shape (n,) or a
    (k, n) block holding k integrands (rows) at those points.  A 1-d
    integrand returns a float, a 2-d one a (k,) array of the row integrals.
    ``tol`` is the absolute error target of every row.  The interval is
    pre-split at any ``breakpoints`` lying strictly inside (lo, hi); each
    piece is then refined adaptively, halving its error budget per split.
    A panel's error estimate is |K15 - G7|, the difference of its 15-point
    Kronrod and embedded 7-point Gauss sums, and a panel closes, adding its
    K15 sum, only once that estimate meets the budget in every row, so a
    one-row block integrates exactly as the same 1-d integrand does.  All
    nodes are strictly inside their panel, so an integrand that jumps at a
    breakpoint is only ever seen from one side of it.  ``f`` is called once
    per refinement level, at the 15 nodes of every open panel together, so a
    quadrature that stops after L levels makes L calls.

    Raises ValueError unless ``lo`` and ``hi`` are finite with lo < hi and
    ``tol`` is finite and positive, before f is called.  Raises
    :class:`QuadratureError` at the first non-finite integrand value (naming
    its row and point), if any panel is still unconverged after MAX_DEPTH
    subdivisions, or if the next call would take the integrand values
    (points times rows) past MAX_EVALUATIONS (the depth limit bounds each
    panel, this cap the number of open ones).
    """
    edges = _piece_edges(lo, hi, breakpoints)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    n_seg = len(edges) - 1
    centers = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    budget = np.full(n_seg, tol / n_seg)

    total = 0.0
    rows = 1  # a lower bound until f has been called
    evaluations = 0
    for depth in range(MAX_DEPTH + 1):
        if evaluations + _GK_NODES.size * centers.size * rows > MAX_EVALUATIONS:
            raise QuadratureError(
                f"adaptive Gauss-Kronrod would pass {MAX_EVALUATIONS} integrand evaluations "
                f"at depth {depth} ({centers.size} panels of {rows} rows still open, tol={tol})"
            )
        z = (centers[:, None] + halves[:, None] * _GK_NODES).ravel()
        values = f(z)
        vector = np.ndim(values) == 2
        values = np.asarray(values, dtype=np.float64).reshape(-1, z.size)
        if not np.isfinite(values).all():
            r, i = np.argwhere(~np.isfinite(values))[0]
            raise QuadratureError(
                f"integrand returned {values[r, i]} in row {r} at z={float(z[i])!r}"
            )
        rows = values.shape[0]
        evaluations += values.size
        # (rows, panels, 2): each panel's K15 sum and its K15 - G7 difference
        sums = values.reshape(rows, centers.size, _GK_NODES.size) @ _GK_WEIGHTS * halves[:, None]
        done = (np.abs(sums[..., 1]) <= budget).all(axis=0)
        total = total + np.sum(sums[:, done, 0], axis=1)
        if bool(np.all(done)):
            return total if vector else float(total[0])
        # split surviving panels into their two halves
        keep = ~done
        halves = 0.5 * halves[keep]
        centers = np.concatenate([centers[keep] - halves, centers[keep] + halves])
        halves = np.concatenate([halves, halves])
        budget = np.concatenate([budget[keep] * 0.5, budget[keep] * 0.5])
    raise QuadratureError(
        f"adaptive Gauss-Kronrod did not converge to tol={tol} within {MAX_DEPTH} levels "
        f"({centers.size} panels still open)"
    )
