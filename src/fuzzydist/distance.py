"""Distance engines on the configuration space.

Three routes to the spectral distance between states:

* the closed form for neighbouring basis states,
* the general lower-bound formula tr(drho^2)/||[D, pi(drho)]||, and
* the true supremum over the Lipschitz ball: exact, as a 1-D Kantorovich sum,
  for displacements diagonal in the n.x eigenbasis (n along their spin-1 part),
  which covers every pair at n = 1/2, and from a projected subgradient ascent
  otherwise. A displacement whose trace exceeds rounding is at infinite distance.

Plus the quantized polar angle and the continuum arc-length comparator.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .halfint import ladder_radicand
from .linalg import SYMMETRY_TOL
from .sphere import SphereDomainError, _adjacent_step, _halfint, _lam, _matrix_of, _row
from .triple import SpectralTriple, _commutator, lipschitz_seminorm


class OptimizerError(RuntimeError):
    """Ascent failed to converge; .best_value still holds a valid lower bound."""

    def __init__(self, message, best_value=None):
        super().__init__(message)
        self.best_value = best_value


@dataclass
class DistanceResult:
    value: float
    method: str  # norm_pipeline | diagonal_exact | optimizer (the ascent)
    certificate: Optional[np.ndarray] = None
    ball_residual: Optional[float] = None
    iterations: Optional[int] = None  # the ascent's best start's iterations; 0 if exact
    stop: Optional[str] = None  # "stalled" or "zero_gradient" (ascent), "exact" (diagonal)


def adjacent_distance_closed_form(n, n3, lam: float = 1.0) -> float:
    """Distance between |n3+1> and |n3> pure states: lam sqrt(n(n+1)) / sqrt(n(n+1) - n3(n3+1))."""
    n, n3 = _adjacent_step(n, n3)
    nn1 = float(n.times_self_plus_one())
    rad = float(ladder_radicand(n, n3))
    return _lam(lam) * math.sqrt(nn1) / math.sqrt(rad)


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
    return _lam(lam) * math.sqrt(nn1) / math.sqrt(rad)


# ---------------------------------------------------------------------------
# projected subgradient ascent for the Connes supremum

def _hermitize_traceless(a):
    """Traceless Hermitian part of a matrix or of each matrix in a stack."""
    h = (a + a.conj().swapaxes(-1, -2)) / 2.0
    d = h.shape[-1]
    return h - np.einsum("...ii->...", h)[..., None, None] / d * np.eye(d)


def _normalize(a):
    """a over its Frobenius norm per slice, by the expression np.linalg.norm evaluates."""
    return a / np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1), keepdims=True))


def _ratio_batch(triple, drho, a, c=None):
    """R = tr(drho a)/h, h = ||[D, pi(a)]|| and the subgradient G of h, per slice of a;
    c, if given, is the stack [D, pi(a)] already formed.

    G averages the Hermitian traceless direction of W_i = outer(u_i, conj(vh_i))
    over the top singular set of [D, pi(a)]; the map W -> G is linear, so the
    sum of the W_i^dag goes through it once.
    """
    dim = triple.algebra_dim
    D = triple.dirac
    u, s, vh = np.linalg.svd(_commutator(triple, a) if c is None else c)
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
_TOL = 1e-10  # an accepted step gaining less than this, relative to max(|R|, 1), stalls
_MAX_ITERS = 20000  # iterations per start; the best start reaching it raises OptimizerError
_RESTARTS = 8  # seeded random starts beside the displacement itself
_STOPS = ("", "stalled", "zero_gradient", "max_iters")  # a start's stop code names; "" runs
_STALLED, _ZERO_GRADIENT, _OUT_OF_ITERS = 1, 2, 3


def connes_distance_optimized(triple: SpectralTriple, rho, rho2, seed: int = 42) -> DistanceResult:
    """Maximize tr(drho a) over Hermitian a, ||[D, pi(a)]|| <= 1, drho = rho2 - rho: exactly if
    drho is diagonal in the n.x eigenbasis (_diagonal_supremum), else by _ascend, the one user
    of seed. ArithmeticError if |tr drho| exceeds rounding: a + t I then raises
    tr(drho a) without bound, so the distance is infinite. On the quantum triple the same
    holds for its right marginal, the partial trace over the left index, as I (x) B
    commutes with D_q. drho = 0 is exact at 0, with no potential."""
    m, m2 = _matrix_of(rho), _matrix_of(rho2)
    drho = m2 - m
    scale = np.abs(drho).max()
    if not np.isfinite(scale):
        raise SphereDomainError("displacement has a non-finite entry")
    if scale == 0.0:
        return DistanceResult(0.0, "diagonal_exact", None, None, 0, "exact")
    t = np.trace(drho)
    if abs(t) > SYMMETRY_TOL * max(1.0, abs(np.trace(m)), abs(np.trace(m2))):
        raise ArithmeticError("displacement of trace %.3e: infinite distance" % abs(t))
    if triple.representation == "quantum":
        dim = triple.sphere.dim
        right = np.abs(np.einsum("ijik->jk", drho.reshape((dim,) * 4))).max()
        if right > SYMMETRY_TOL * scale:
            raise ArithmeticError("right marginal of size %.3e: infinite distance" % right)
    drho0 = drho - t / len(drho) * np.eye(len(drho))  # the exact route drops the rounding trace
    V, r = None, drho0  # exactly diagonal: the n3 basis itself, V = I with no eigh
    if (drho - np.diag(np.diagonal(drho))).any():
        xs = (triple.sphere.x1, triple.sphere.x2, triple.sphere.x3)
        # v_i = Re tr(drho x_i); the quantum triple's algebra M_(dim^2) keeps the ascent
        v = [np.vdot(x, drho).real for x in xs] if triple.representation == "config" else []
        if any(v):  # columns by descending eigenvalue, the row order of n3
            V = np.linalg.eigh(np.tensordot(v, xs, 1))[1][:, ::-1]
            r = V.conj().T @ drho0 @ V
        if V is None or np.abs(r - np.diag(np.diagonal(r))).max() > SYMMETRY_TOL * scale:
            return _ascend(triple, drho, _MAX_ITERS, seed, _RESTARTS)
    return _diagonal_supremum(triple, drho0, np.diagonal(r).real, V)


def _diagonal_supremum(triple, drho, d, V) -> DistanceResult:
    """sum_k w_k |F_k|, F = cumsum(d): the exact supremum for traceless drho = V diag(d) V^dag,
    V an eigenbasis of n.x by descending eigenvalue (None: the identity, n along x3).

    e^{it sigma3/2} (x) e^{it J3} commutes with D, so averaging over t makes some optimal a
    diagonal. [D, pi(diag f)] is a one-step shift in the spinor off-diagonal blocks, so the
    ball is |f_k - f_(k+1)| <= w_k = 1/||[D, pi(P_k)]||, P_k = diag(1, .., 1, 0, .., 0) with
    k + 1 ones. [D, pi(P_k)] is x+[k, k+1]/(lam r) and its conjugate, so w_k = lam r/x+[k, k+1]
    is read from the band, the lam-free ratio r/x+ first (lam r leaves the float range at
    lam = 1e+-200), and summation by parts gives the value at a = sum_k w_k sign(F_k) P_k
    (D'Andrea & Martinetti, SIGMA 6 (2010) 057). The SU(2) rotation U_(1/2) (x) U_n taking
    x3 to n.x also commutes with D, and V = U_n up to phases that drop out of V diag V^dag,
    so the potential for drho is V a V^dag; its dense ball residual checks the weights and V.

    On the quantum triple (V None, zero right marginal) d is the weight matrix w[i, j] of
    drho, left index i, flattened. D_q = D_c (x) I commutes with I (x) |j><j|, so compressing
    a to right sector j leaves its seminorm at most 1 and is a config problem for column j.
    The supremum is the config sum over the columns, attained by sum_j a_j (x) |j><j|."""
    s = triple.sphere
    F = np.cumsum(d.reshape(s.dim, -1), axis=0)  # one column per right sector j
    g = np.append(s.radius / s._xplus * s.lam, 0.0)[:, None] * np.sign(F)  # w_k sign(F_k)
    a = np.diag(np.cumsum(g[::-1], axis=0)[::-1].ravel())  # sum_j a_j (x) |j><j|, row-major
    if V is not None:
        a = V @ a @ V.conj().T
        a = (a + a.conj().T) / 2.0
    return DistanceResult(float(np.real(np.trace(drho @ a))), "diagonal_exact", a,
                          abs(lipschitz_seminorm(triple, a) - 1.0), 0, "exact")


def _starts(drho, seed, restarts):
    """The ascent's starts on the unit sphere of traceless Hermitian matrices: drho itself, then
    ``restarts`` random directions from random.Random(seed), seed an integer >= 0.

    Each restart takes dim^2 real parts, then dim^2 imaginary parts, in the shape
    (restarts, 2, dim, dim). They are random.gauss's Box-Muller pairs, formed in numpy from
    the uniforms random() would return, read in one randbytes call; numpy's cos, sin and log
    may differ from the math module's in the last bit. A process that reaches the ascent
    therefore need not import numpy.random."""
    seed = operator.index(seed)
    if seed < 0:  # Random(-s) repeats the stream of s
        raise ValueError("seed must be >= 0, got %d" % seed)
    dim = drho.shape[-1]
    k = restarts * dim * dim  # gauss pairs: two uniforms, two 32-bit words each, per pair
    w = np.frombuffer(random.Random(seed).randbytes(16 * k), dtype="<u4").reshape(k, 2, 2)
    u = ((w[..., 0] >> 5) * 67108864.0 + (w[..., 1] >> 6)) * 2.0 ** -53  # random(), bitwise
    x2pi, g2rad = 2.0 * math.pi * u[:, 0], np.sqrt(-2.0 * np.log(1.0 - u[:, 1]))
    z = np.stack([np.cos(x2pi) * g2rad, np.sin(x2pi) * g2rad], axis=-1)
    z = z.reshape(restarts, 2, dim, dim)
    return _normalize(_hermitize_traceless(np.concatenate([drho[None], z[:, 0] + 1j * z[:, 1]])))


def _ascend(triple, drho, max_iters, seed, restarts) -> DistanceResult:
    """Maximize tr(drho a) over Hermitian a with ||[D, pi(a)]|| <= 1, for any drho.

    The objective is linear and the constraint positively homogeneous, so we
    ascend R(a) = tr(drho a)/||[D, pi(a)]|| on the unit Frobenius sphere of
    traceless Hermitian matrices and rescale at the end. Starts from the
    displacement itself plus ``restarts`` seeded random directions (_starts).

    Each start keeps its own rule: a step of 0.1, times 1.3 on acceptance,
    up to 30 halvings per iteration, and a stop after 50 stalled iterations
    or at ``max_iters``. Within an iteration the point and the gradient are
    fixed, so the candidates normalize(a + step 0.5^j grad), j = 0..29, do
    not depend on each other. The starts run in lockstep rounds; each round
    tries the next chunk of every active start's ladder (chunks of 1, 2, 4,
    8 and 15 rungs) and forms their commutators [D, pi(a)] once, as one
    stack. It accepts the first j whose ratio beats R, screening with h from
    the eigenvalues of the Hermitian i[D, pi(a)]; the accepted rungs get
    their ratio, subgradient and next gradient from one SVD of their slices
    of that stack. A start whose whole ladder is rejected keeps its gradient.

    A start with no accepted rung in a round, one of whose rungs left a
    bitwise unchanged (a + step 0.5^j grad == a), is retired in that round.
    Rounding is monotone and later steps are smaller by powers of two, and
    a, grad and R stay fixed after a whole rejection, so every later rung is
    that same rejected candidate. Its remaining whole rejections are counted
    without being run, up to 50 stalls or ``max_iters``, whichever comes
    first ("stalled" on a tie), so every reported number is the one the
    rung-by-rung loop gives. Stop reasons are integer codes while the starts
    run, named from _STOPS on return.

    The best start's matrix is rescaled with the dense ``lipschitz_seminorm``,
    which also gives the ball residual; its iteration count and stop reason
    ("stalled" or "zero_gradient") are reported. If that start stopped at ``max_iters``,
    OptimizerError is raised with the rescaled value as ``best_value``.
    """
    a = _starts(drho, seed, restarts)
    R, G, h, val = _ratio_batch(triple, drho, a)
    n = len(a)
    step, grad = np.full(n, 0.1), np.empty_like(a)
    stall, iters, chunk = np.zeros((3, n), dtype=int)
    stop = np.full(n, 0 if max_iters > 0 else _OUT_OF_ITERS)  # codes into _STOPS, 0 while active
    acc, a_acc = np.arange(n), a  # the starts just accepted and their points, as G, h and val
    while True:
        if acc.size:  # gradient of the ratio, then tangent projection on the sphere
            hn = h[:, None, None]
            g = _hermitize_traceless((drho * hn - val[:, None, None] * G) / (hn * hn))
            g -= np.einsum("bij,bij->b", a_acc.conj(), g).real[:, None, None] * a_acc
            grad[acc] = g
            zero = np.add.reduce((g.conj() * g).real, axis=(-2, -1)) == 0.0
            if zero.any():
                stop[acc[zero & (stop[acc] == 0)]] = _ZERO_GRADIENT
        act = (stop == 0).nonzero()[0]
        if not act.size:
            break
        # the next chunk of rungs j of every active start's ladder, as one stack
        owner, half = act, np.ones(act.size)  # 0.5^j, 1 for every start at chunk 0
        if chunk[act].any():
            sizes = _LADDER_CHUNKS[chunk[act]]
            owner = np.repeat(act, sizes)
            offset = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            half = _HALF[_LADDER_START[chunk[owner]] + offset]
        base = a[owner]
        moved = base + (step[owner] * half)[:, None, None] * grad[owner]
        cand = _normalize(moved)
        c = _commutator(triple, cand)
        ev = np.linalg.eigvalsh(1j * c)  # i[D, pi(a)] is Hermitian
        Rc = np.einsum("ij,bji->b", drho, cand).real / np.maximum(-ev[:, 0], ev[:, -1])
        up = (Rc > R[owner]).nonzero()[0]
        o = owner[up]  # sorted, as owner is: keep each owner's first winning rung
        win = up[o != np.concatenate(([-1], o[:-1]))]
        acc = owner[win]
        if acc.size:
            a_acc = cand[win]
            Ra, G, h, val = _ratio_batch(triple, drho, a_acc, c[win])
            gain = (Ra - R[acc]) / np.maximum(np.abs(Ra), 1.0)
            stall[acc], iters[acc] = np.where(gain < _TOL, stall[acc] + 1, 0), iters[acc] + 1
            R[acc], a[acc], step[acc] = Ra, a_acc, step[acc] * half[win] * 1.3
        # a start with no accepted rung, one of which left `a` bitwise unchanged, would repeat
        # that rejection on every later rung: its remaining ones are counted, not run
        same = (moved == base).all(axis=(-2, -1))
        if same.any():
            frozen = np.bincount(owner[same], minlength=n) > 0
            frozen[acc] = False
            act, dead = act[~frozen[act]], frozen.nonzero()[0]
            k = np.minimum(_PATIENCE - stall[dead], max_iters - iters[dead])
            iters[dead], stall[dead] = iters[dead] + k, stall[dead] + k
            stop[dead] = np.where(stall[dead] >= _PATIENCE, _STALLED, _OUT_OF_ITERS)
        chunk[act] += 1
        chunk[acc] = 0
        out = act[chunk[act] == len(_LADDER_CHUNKS)]  # the whole ladder was rejected
        if out.size:
            chunk[out], step[out] = 0, step[out] * _HALF[-1]
            stall[out], iters[out] = stall[out] + 1, iters[out] + 1
        live = stop == 0  # of these, only starts whose iteration ended can newly stop
        stop[live & (iters >= max_iters)] = _OUT_OF_ITERS
        stop[live & (stall >= _PATIENCE)] = _STALLED

    best = int(np.argmax(R))
    if not np.isfinite(R[best]):
        raise OptimizerError("ascent produced no finite ratio", best_value=None)
    a_star = a[best] / lipschitz_seminorm(triple, a[best])
    value = float(np.real(np.trace(drho @ a_star)))
    if stop[best] == _OUT_OF_ITERS:
        raise OptimizerError("best start stopped at max_iters = %d without converging"
                             % max_iters, best_value=value)
    residual = abs(lipschitz_seminorm(triple, a_star) - 1.0)
    return DistanceResult(value, "optimizer", a_star, residual, int(iters[best]), _STOPS[stop[best]])
