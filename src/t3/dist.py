"""Univariate component densities, their gamma-weighted mixture, analytic
tempering, exact sampling, and an adaptive-Simpson quadrature oracle.

Two component families are provided: Gaussians (the synthetic-experiment
world) and uniform intervals (the family on which the forget-error lower
bound is attained exactly).  All objects are immutable after construction
and safe to share across concurrent workers; rng state is always passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import _kernels
from ._kernels import as_array

WINDOW_STDDEVS = 12.0  # +-12 max-stddev window truncates Gaussian mass ~1e-30
MAX_DEPTH = 20  # subdivision levels before quadrature gives up
MAX_EVALUATIONS = 1_000_000  # integrand values (points x rows) per quadrature


class QuadratureError(RuntimeError):
    """Adaptive Simpson hit its depth or evaluation limit without converging,
    or the integrand returned a non-finite value."""


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

    def density(self, z):
        return np.exp(self.log_density(z))

    def log_density(self, z):
        z = as_array(z)
        return _kernels.gauss_logpdf(z, float(self.mean), float(self.variance))

    def sample(self, rng: np.random.Generator, n: int, out=None) -> np.ndarray:
        """n draws, into ``out`` when given; bitwise rng.normal(mean, sd, n)."""
        out = _draw_buffer(n, out)
        rng.standard_normal(out=out)
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

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)


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

    def density(self, z):
        z = as_array(z)
        inside = (z >= self.lo) & (z <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def log_density(self, z):
        z = as_array(z)
        inside = (z >= self.lo) & (z <= self.hi)
        return np.where(inside, -math.log(self.hi - self.lo), -math.inf)

    def sample(self, rng: np.random.Generator, n: int, out=None) -> np.ndarray:
        """n draws, into ``out`` when given; bitwise rng.uniform(lo, hi, n)."""
        out = _draw_buffer(n, out)
        rng.random(out=out)
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


def _draw_buffer(n: int, out):
    if out is None:
        return np.empty(n)
    if out.shape != (n,) or out.dtype != np.float64:
        raise ValueError(f"need a float64 buffer of shape ({n},), got {out.dtype} {out.shape}")
    return out


class DrawBuffers(NamedTuple):
    """Caller-owned arrays of one length n that Mixture.sample_labeled draws
    into: the label uniforms, n draws from each component and the retain
    mask.  Once z is assembled (in z_f), u and z_r are free for reuse."""

    u: np.ndarray
    z_r: np.ndarray
    z_f: np.ndarray
    s: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "DrawBuffers":
        return cls(np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool))


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

    def density(self, z):
        return np.exp(self.log_density(z))

    def log_density(self, z):
        z = as_array(z)
        a = math.log1p(-self.gamma) + self.retain.log_density(z)
        b = math.log(self.gamma) + self.forget.log_density(z)
        return np.logaddexp(a, b)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sample_labeled(rng, n)[0]

    def sample_labeled(self, rng: np.random.Generator, n: int, out: Optional[DrawBuffers] = None):
        """Draw (z, s) pairs: the label s ~ Bernoulli(1 - gamma) first
        (s True means retain), then z from the labeled component.  Both
        components draw n values and z keeps the labeled one.  The draws go
        into ``out`` when given (z is returned in out.z_f, s is out.s), else
        into fresh DrawBuffers; the bits are the same either way."""
        u, z_r, z_f, s = DrawBuffers.empty(n) if out is None else out
        rng.random(out=_draw_buffer(n, u))
        np.less(u, 1.0 - self.gamma, out=s)
        self.retain.sample(rng, n, out=z_r)
        self.forget.sample(rng, n, out=z_f)
        np.copyto(z_f, z_r, where=s)
        return z_f, s


def integration_window(m: Mixture, T: float = 1.0) -> tuple[float, float]:
    """[min mean - 12*max stddev, max mean + 12*max stddev] of the mixture
    components after tempering by T, widened to cover uniform supports."""
    comps = (m.retain, m.forget)
    means, stds = [], []
    lo_edges, hi_edges = [], []
    for c in comps:
        if isinstance(c, GaussianComponent):
            means.append(c.mean)
            stds.append(math.sqrt(T * c.variance))
        else:
            means.append(0.5 * (c.lo + c.hi))
            stds.append(c.stddev())
            lo_edges.append(c.lo)
            hi_edges.append(c.hi)
    smax = max(stds)
    lo = min(means) - WINDOW_STDDEVS * smax
    hi = max(means) + WINDOW_STDDEVS * smax
    if lo_edges:
        lo = min(lo, min(lo_edges))
        hi = max(hi, max(hi_edges))
    return lo, hi


def quadrature_seeds(m: Mixture, T: float = 1.0) -> tuple[float, ...]:
    """Breakpoints that pre-split the integration interval: uniform support
    edges (where integrands jump) and Gaussian cores (where they spike)."""
    pts: list[float] = []
    for c in (m.retain, m.forget):
        if isinstance(c, UniformComponent):
            pts.extend((c.lo, c.hi))
        else:
            s = math.sqrt(T * c.variance)
            pts.extend((c.mean - 6.0 * s, c.mean - s, c.mean, c.mean + s, c.mean + 6.0 * s))
    return tuple(sorted(pts))


def quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> Union[float, np.ndarray]:
    """Adaptive composite Simpson integral of f over [lo, hi].

    ``f`` is evaluated on whole batches of points: it takes a 1-d float64
    array of n points and returns either a float64 array of shape (n,) or a
    (k, n) block holding k integrands (rows) at those points.  A 1-d
    integrand returns a float, a 2-d one a (k,) array of the row integrals.
    ``tol`` is the absolute error target of every row.  The interval is
    pre-split at any ``breakpoints`` lying strictly inside (lo, hi); each
    piece is then refined adaptively, halving its error budget per split,
    with Richardson extrapolation of the accepted panels.  A panel is
    accepted only once its error estimate meets the budget in every row, so
    a one-row block integrates exactly as the same 1-d integrand does.
    ``f`` is called once for the pieces' ends and midpoints, then once per
    refinement level, at the left and right quarter points of every open
    panel together, so a quadrature that stops after L levels makes 1 + L
    calls.

    Raises :class:`QuadratureError` at the first non-finite integrand value
    (naming its row and point), if any panel is still unconverged after
    MAX_DEPTH subdivisions, or if the next level would take the integrand
    values (points times rows) past MAX_EVALUATIONS (the depth limit bounds
    each panel, this cap the number of open ones).
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    edges = [lo] + sorted({float(b) for b in breakpoints if lo < b < hi}) + [hi]
    edges = np.asarray(edges, dtype=np.float64)
    n_seg = len(edges) - 1

    a = edges[:-1].copy()
    b = edges[1:].copy()
    # Nudge interior edges one ulp inward so integrands with jumps at the
    # breakpoints (uniform supports) present their one-sided values to Simpson.
    a[1:] = np.nextafter(a[1:], np.inf)
    b[:-1] = np.nextafter(b[:-1], -np.inf)
    mid = 0.5 * (a + b)

    def block(z, values):
        # every evaluation as a (k, n) block, checked finite
        values = np.asarray(values, dtype=np.float64).reshape(-1, z.size)
        if not np.isfinite(values).all():
            r, i = np.argwhere(~np.isfinite(values))[0]
            raise QuadratureError(
                f"integrand returned {values[r, i]} in row {r} at z={float(z[i])!r}"
            )
        return values

    z = np.concatenate([a, mid, b])
    values = f(z)
    vector = np.ndim(values) == 2
    fa, fm, fb = np.split(block(z, values), 3, axis=1)
    k = fa.shape[0]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    budget = np.full(n_seg, tol / n_seg)

    total = np.zeros(k)
    evaluations = 3 * n_seg * k
    for depth in range(MAX_DEPTH + 1):
        evaluations += 2 * a.size * k
        if evaluations > MAX_EVALUATIONS:
            raise QuadratureError(
                f"adaptive Simpson would pass {MAX_EVALUATIONS} integrand evaluations "
                f"at depth {depth} ({a.size} panels of {k} rows still open, tol={tol})"
            )
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        z = np.concatenate([lm, rm])
        flm, frm = np.split(block(z, f(z)), 2, axis=1)
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        s2 = left + right
        err = (s2 - whole) / 15.0
        done = (np.abs(err) <= budget).all(axis=0)
        total += np.sum((s2 + err)[:, done], axis=1)
        if bool(np.all(done)):
            return total if vector else float(total[0])
        keep = ~done
        # split surviving panels into their two halves
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        fa = np.concatenate([fa[:, keep], fm[:, keep]], axis=1)
        fb = np.concatenate([fm[:, keep], fb[:, keep]], axis=1)
        mid = np.concatenate([lm[keep], rm[keep]])
        fm = np.concatenate([flm[:, keep], frm[:, keep]], axis=1)
        whole = np.concatenate([left[:, keep], right[:, keep]], axis=1)
        budget = np.concatenate([budget[keep] * 0.5, budget[keep] * 0.5])
    raise QuadratureError(
        f"adaptive Simpson did not converge to tol={tol} within {MAX_DEPTH} levels "
        f"({a.size} panels still open)"
    )
