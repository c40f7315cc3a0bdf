"""Distance engines on the configuration space.

Three routes to the spectral distance between states:

* the closed form for neighbouring basis states,
* the general lower-bound formula tr(drho^2)/||[D, pi(drho)]||, and
* a projected subgradient ascent over the Lipschitz ball for the true
  supremum, which certifies that the lower bound is (numerically) attained.

Plus the quantized polar angle and the continuum arc-length comparator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .halfint import ladder_radicand
from .sphere import SphereDomainError, _adjacent_step, _halfint, _matrix_of, _row
from .triple import SpectralTriple, _commutator, lipschitz_seminorm


class OptimizerError(RuntimeError):
    """Ascent failed to converge; .best_value still holds a valid lower bound."""

    def __init__(self, message, best_value=None):
        super().__init__(message)
        self.best_value = best_value


@dataclass
class DistanceResult:
    value: float
    method: str  # closed_form | norm_pipeline | optimizer
    certificate: Optional[np.ndarray] = None
    ball_residual: Optional[float] = None
    iterations: Optional[int] = None  # optimizer only: the best start's iterations
    stop: Optional[str] = None  # optimizer only: "stalled" or "zero_gradient"


def adjacent_distance_closed_form(n, n3, lam: float = 1.0) -> float:
    """Distance between |n3+1> and |n3> pure states: lam sqrt(n(n+1)) / sqrt(n(n+1) - n3(n3+1))."""
    n, n3 = _adjacent_step(n, n3)
    nn1 = float(n.times_self_plus_one())
    rad = float(ladder_radicand(n, n3))
    return lam * math.sqrt(nn1) / math.sqrt(rad)


def distance_lower_bound(triple: SpectralTriple, rho, rho2) -> DistanceResult:
    """tr(drho^2)/||[D, pi(drho)]|| with drho = rho2 - rho.

    Also returns the scaled displacement as a certificate sitting exactly on
    the Lipschitz ball boundary.
    """
    drho = _matrix_of(rho2) - _matrix_of(rho)
    num = float(np.real(np.trace(drho @ drho)))
    if num == 0.0 and np.abs(drho).max() == 0.0:
        return DistanceResult(0.0, "norm_pipeline", None, None)
    h = lipschitz_seminorm(triple, drho)
    if h == 0.0:
        # cannot happen for the irreducible config triple; for the quantum triple,
        # whose commutant is I (x) M_dim (the right action), the distance is +infinity
        raise ArithmeticError("nonzero displacement with zero seminorm: infinite distance")
    cert = drho / h
    return DistanceResult(num / h, "norm_pipeline", cert, abs(lipschitz_seminorm(triple, cert) - 1.0))


def quantized_polar_angle(n, n3) -> float:
    """arcsin(n3 / sqrt(n(n+1))), the latitude carried by basis state n3.

    Note this measures from the equator; the conventional polar angle would
    use arccos. Kept as is deliberately.
    """
    n = _halfint(n)
    n3 = _halfint(n3)
    _row(n, n3)
    return math.asin(float(n3) / math.sqrt(float(n.times_self_plus_one())))


def arc_length_step(n, n3, lam: float = 1.0) -> float:
    """Continuum arc length for a unit step in n3: lam sqrt(n(n+1)) / sqrt(n(n+1) - n3^2)."""
    n = _halfint(n)
    n3 = _halfint(n3)
    nn1 = float(n.times_self_plus_one())
    rad = nn1 - float(n3) ** 2
    if rad <= 0:
        raise SphereDomainError("|n3| >= sqrt(n(n+1)): arc step undefined")
    return lam * math.sqrt(nn1) / math.sqrt(rad)


# ---------------------------------------------------------------------------
# projected subgradient ascent for the Connes supremum

def _hermitize_traceless(a):
    """Traceless Hermitian part of a matrix or of each matrix in a stack."""
    h = (a + a.conj().swapaxes(-1, -2)) / 2.0
    d = h.shape[-1]
    return h - np.einsum("...ii->...", h)[..., None, None] / d * np.eye(d)


def _normalize(a):
    return a / np.linalg.norm(a, axis=(-2, -1), keepdims=True)


def _seminorm_batch(triple, a):
    """h = ||[D, pi(a)]|| per slice, from eigenvalues alone.

    [D, pi(a)] is anti-Hermitian, so i[D, pi(a)] is Hermitian and its
    operator norm is the largest eigenvalue modulus.
    """
    lam = np.linalg.eigvalsh(1j * _commutator(triple, a))
    return np.maximum(-lam[:, 0], lam[:, -1])


def _ratio_batch(triple, drho, a):
    """R = tr(drho a)/h, h = ||[D, pi(a)]|| and the subgradient G of h, per slice of a.

    G averages the Hermitian traceless direction of W_i = outer(u_i, conj(vh_i))
    over the top singular set of [D, pi(a)]; the map W -> G is linear, so the
    sum of the W_i^dag goes through it once.
    """
    dim = triple.algebra_dim
    D = triple.dirac
    u, s, vh = np.linalg.svd(_commutator(triple, a))
    h = s[:, 0]
    top = s >= h[:, None] * (1.0 - 1e-8)  # the (near-)degenerate top set
    w = vh.swapaxes(-1, -2) @ (top[:, :, None] * u.conj().swapaxes(-1, -2))
    q = w @ D - D @ w
    q = q[:, :dim, :dim] + q[:, dim:, dim:]
    G = _hermitize_traceless(q) / top.sum(axis=1)[:, None, None]
    val = np.einsum("ij,bji->b", drho, a).real
    return val / h, G, h, val


# the 30 rungs of one iteration's halving ladder, tried in rounds of these many
_LADDER_CHUNKS = np.array([1, 2, 4, 8, 15])
_LADDER_START = np.concatenate([[0], np.cumsum(_LADDER_CHUNKS)])  # first rung per chunk
_HALF = 0.5 ** np.arange(_LADDER_START[-1] + 1)
_PATIENCE = 50  # stalled iterations before a start stops


def connes_distance_optimized(triple: SpectralTriple, rho, rho2, max_iters: int = 20000,
                              tol: float = 1e-10, seed: int = 42,
                              restarts: int = 8) -> DistanceResult:
    """Maximize tr(drho a) over Hermitian a with ||[D, pi(a)]|| <= 1.

    The objective is linear and the constraint positively homogeneous, so we
    ascend R(a) = tr(drho a)/||[D, pi(a)]|| on the unit Frobenius sphere of
    traceless Hermitian matrices and rescale at the end. Starts from the
    displacement itself plus ``restarts`` seeded random directions.

    Each start keeps its own rule: a step of 0.1, times 1.3 on acceptance,
    up to 30 halvings per iteration, and a stop after 50 stalled iterations
    or at ``max_iters``. Within an iteration the point and the gradient are
    fixed, so the candidates normalize(a + step 0.5^j grad), j = 0..29, do
    not depend on each other. The starts run in lockstep rounds; each round
    tries the next chunk of every active start's ladder (chunks of 1, 2, 4,
    8 and 15 rungs) in one stack and accepts the first j whose ratio beats
    R. A rejected candidate needs only h, taken from the eigenvalues of the
    Hermitian i[D, pi(a)]; the accepted ones then get their ratio and
    subgradient from one stacked SVD.

    A start with no accepted rung in a round, one of whose rungs left a
    bitwise unchanged (a + step 0.5^j grad == a), is retired in that round.
    Rounding is monotone and later steps are smaller by powers of two, and
    a, grad and R stay fixed after a whole rejection, so every later rung is
    that same rejected candidate. Its remaining whole rejections are counted
    without being run, up to 50 stalls or ``max_iters``, whichever comes
    first ("stalled" on a tie), so every reported number is the one the
    rung-by-rung loop gives.

    The best start's matrix is rescaled with the dense
    ``lipschitz_seminorm``, which also gives the ball
    residual; its iteration count and stop reason ("stalled" or
    "zero_gradient") are reported. If that start stopped at ``max_iters``,
    OptimizerError is raised with the rescaled value as ``best_value``.
    """
    drho = _matrix_of(rho2) - _matrix_of(rho)
    if np.abs(drho).max() == 0.0:
        return DistanceResult(0.0, "optimizer", None, None)
    dim = triple.algebra_dim

    # each restart draws dim^2 real parts, then dim^2 imaginary parts
    z = np.random.default_rng(seed).standard_normal((restarts, 2, dim, dim))
    a = _normalize(_hermitize_traceless(np.concatenate([drho[None], z[:, 0] + 1j * z[:, 1]])))
    R, G, h, val = _ratio_batch(triple, drho, a)
    n = len(a)
    step, R_prev, grad = np.full(n, 0.1), R.copy(), np.empty_like(a)
    stall, iters, chunk = np.zeros((3, n), dtype=int)
    stop = np.full(n, "" if max_iters > 0 else "max_iters", dtype=object)  # "" while active
    new = np.arange(n)  # starts beginning an iteration
    while True:
        new = new[stop[new] == ""]
        # gradient of the ratio, then tangent projection on the sphere
        hn = h[new, None, None]
        g = _hermitize_traceless((drho * hn - val[new, None, None] * G[new]) / (hn * hn))
        grad[new] = g - np.einsum("bij,bij->b", a[new].conj(), g).real[:, None, None] * a[new]
        stop[new[np.linalg.norm(grad[new], axis=(-2, -1)) == 0.0]] = "zero_gradient"
        R_prev[new], chunk[new] = R[new], 0
        act = np.flatnonzero(stop == "")
        if not act.size:
            break
        # the next chunk of rungs j of every active start's ladder, as one stack
        sizes = _LADDER_CHUNKS[chunk[act]]
        owner = np.repeat(act, sizes)
        offset = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        j = _LADDER_START[chunk[owner]] + offset
        base = a[owner]
        moved = base + (step[owner] * _HALF[j])[:, None, None] * grad[owner]
        cand = _normalize(moved)
        Rc = np.einsum("ij,bji->b", drho, cand).real / _seminorm_batch(triple, cand)
        up = np.flatnonzero(Rc > R[owner])
        acc, first = np.unique(owner[up], return_index=True)  # owner is sorted
        win = up[first]
        if acc.size:
            R[acc], G[acc], h[acc], val[acc] = _ratio_batch(triple, drho, cand[win])
            a[acc] = cand[win]
            step[acc] = step[acc] * _HALF[j[win]] * 1.3
        # a start with no accepted rung, one of which left `a` bitwise unchanged,
        # would repeat that rejected candidate on every later rung and ladder:
        # its remaining whole rejections are counted here instead of run
        frozen = np.zeros(n, dtype=bool)
        frozen[owner[(moved == base).all(axis=(-2, -1))]] = True
        frozen[acc] = False
        act = act[~frozen[act]]
        dead = np.flatnonzero(frozen)
        k = np.minimum(_PATIENCE - stall[dead], max_iters - iters[dead])
        iters[dead] += k
        stall[dead] += k
        stop[dead] = np.where(stall[dead] >= _PATIENCE, "stalled", "max_iters")
        chunk[act] += 1
        chunk[acc] = 0
        out = act[chunk[act] == len(_LADDER_CHUNKS)]  # the whole ladder was rejected
        step[out] *= _HALF[-1]
        gain = (R[acc] - R_prev[acc]) / np.maximum(np.abs(R[acc]), 1.0)
        stall[acc] = np.where(gain < tol, stall[acc] + 1, 0)
        stall[out] += 1
        new = np.concatenate([acc, out])  # iterations that ended this round
        iters[new] += 1
        stop[new[iters[new] >= max_iters]] = "max_iters"
        stop[new[stall[new] >= _PATIENCE]] = "stalled"

    best = int(np.argmax(R))
    if not np.isfinite(R[best]):
        raise OptimizerError("ascent produced no finite ratio", best_value=None)
    a_star = a[best] / lipschitz_seminorm(triple, a[best])
    value = float(np.real(np.trace(drho @ a_star)))
    if stop[best] == "max_iters":
        raise OptimizerError("best start stopped at max_iters = %d without converging"
                             % max_iters, best_value=value)
    residual = abs(lipschitz_seminorm(triple, a_star) - 1.0)
    return DistanceResult(value, "optimizer", a_star, residual, int(iters[best]), stop[best])
