"""Distance engines on the configuration and quantum spaces.

Three routes to the spectral distance between states:

* the closed form for neighbouring basis states,
* the general lower-bound formula tr(drho^2)/||[D, pi(drho)]||, and
* the true supremum over the Lipschitz ball, written once for D = D_c (x) I_k: k = 1 on the
  config triple and k = dim on the quantum one, read from the size of drho, never from the
  triple's label. It is exact, as a 1-D Kantorovich sum per right sector, for displacements
  diagonal in the frame V (x) I_k, V the n.x eigenbasis (n along the spin-1 part v of
  tr_R drho), which covers every config pair at n = 1/2 and every product of a rotated
  diagonal config pair with a diagonal right state. Otherwise it comes from a projected
  subgradient ascent (connes_distance_optimized) or as a certified interval from a
  log-barrier method (_certified_supremum), both run at lam = 1 and scaled by lam.
  Diagonal means off-diagonal within SYMMETRY_TOL max|drho| times the rounding of n,
  min(dim max(1, max|tr_R drho|/|v|), 1e3) with v at lam = 1, capped so that a rounding-sized
  v, whose frame is arbitrary, goes to the ascent or the barrier. A k x k marginal tr_L drho
  (the trace at k = 1) above rounding is at infinite distance.

Plus the quantized polar angle and the continuum arc-length comparator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .halfint import _quarters, ladder_radicand
from .linalg import SYMMETRY_TOL
from .sphere import SphereDomainError, _adjacent_step, _halfint, _lam, _matrix_of, _random, _row
from .triple import (SpectralTriple, _at_unit_scale, _commutator, _hermitian_element,
                     lipschitz_seminorm)


class OptimizerError(RuntimeError):
    """Ascent or barrier failed to converge; .best_value still holds a valid lower bound."""

    def __init__(self, message, best_value=None):
        super().__init__(message)
        self.best_value = best_value


@dataclass
class DistanceResult:
    value: float  # the supremum, or a lower bound on it (norm_pipeline, optimizer, barrier)
    method: str  # norm_pipeline | diagonal_exact | optimizer (the ascent) | barrier; either triple
    certificate: Optional[np.ndarray] = None
    ball_residual: Optional[float] = None
    iterations: Optional[int] = None  # ascent: its best start's iterations; barrier: Newton steps
    stop: Optional[str] = None  # "stalled"/"zero_gradient" (ascent), "exact", "certified" (barrier)
    upper: Optional[float] = None  # value if exact, the dual bound (barrier), else None


def adjacent_distance_closed_form(n, n3, lam: float = 1.0) -> float:
    """Distance between |n3+1> and |n3> pure states: lam sqrt(n(n+1)) / sqrt(n(n+1) - n3(n3+1))."""
    n, n3 = _adjacent_step(n, n3)
    return _lam(lam) * math.sqrt(n.times_self_plus_one()) / math.sqrt(ladder_radicand(n, n3))


def distance_lower_bound(triple: SpectralTriple, rho, rho2) -> DistanceResult:
    """tr(drho^2)/||[D, pi(drho)]|| with drho = rho2 - rho, under the seminorm's input rule
    (_hermitian_element).

    Also returns the scaled displacement as a certificate sitting exactly on
    the Lipschitz ball boundary.
    """
    drho = _hermitian_element(triple, _matrix_of(rho2) - _matrix_of(rho))
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
    n, n3 = _halfint(n), _halfint(n3)
    _row(n, n3)
    return math.asin(float(n3) / math.sqrt(n.times_self_plus_one()))


def arc_length_step(n, n3, lam: float = 1.0) -> float:
    """Continuum arc length for a unit step in n3: lam sqrt(n(n+1)) / sqrt(n(n+1) - n3^2)."""
    n, n3 = _halfint(n), _halfint(n3)
    rad = (_quarters(n.twice) - n3.twice ** 2) / 4  # n(n+1) - n3^2, one integer numerator
    if rad <= 0:
        raise SphereDomainError("|n3| >= sqrt(n(n+1)): arc step undefined")
    return _lam(lam) * math.sqrt(n.times_self_plus_one()) / math.sqrt(rad)


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
_FRAME_SLACK = 1e3  # the most the n.x frame test widens SYMMETRY_TOL for rounding in n


def connes_distance_optimized(triple: SpectralTriple, rho, rho2, seed: int = 42) -> DistanceResult:
    """Maximize tr(drho a) over Hermitian a, ||[D, pi(a)]|| <= 1, drho = rho2 - rho: exactly if
    drho is diagonal in the frame V (x) I_k of _supremum, else by _ascend, the one user of seed;
    the input rules are _supremum's."""
    return _supremum(triple, rho, rho2, lambda tr, d: _ascend(tr, d, _MAX_ITERS, seed, _RESTARTS))


def _certified_supremum(triple: SpectralTriple, rho, rho2) -> DistanceResult:
    """The supremum of connes_distance_optimized as a certified interval [value, upper]: exact
    if drho is diagonal in the frame V (x) I_k, else by _barrier, on either triple; the input
    rules are _supremum's."""
    return _supremum(triple, rho, rho2, _barrier)


def _supremum(triple, rho, rho2, fallback) -> DistanceResult:
    """The supremum of tr(drho a) over the Lipschitz ball, drho = rho2 - rho, for D = D_c (x) I_k
    (k = 1 on the config triple, dim on the quantum one): _diagonal_supremum if drho is diagonal
    in the frame V (x) I_k, V an n.x eigenbasis, else fallback(triple at lam = 1, drho), whose
    value, certificate, upper and OptimizerError.best_value are then scaled by lam, as D
    scales as 1/lam. drho obeys the seminorm's input rule: SphereDomainError unless it is
    square, finite and Hermitian within SYMMETRY_TOL (_hermitian_element), as in
    distance_lower_bound. ArithmeticError if the k x k marginal tr_L drho (tr drho at k = 1)
    exceeds rounding: I (x) B commutes with D, so a + I (x) B raises tr(drho a) without bound
    and the distance is infinite. drho = 0 is exact at 0, with no potential."""
    m, m2 = _matrix_of(rho), _matrix_of(rho2)
    drho = _hermitian_element(triple, m2 - m)
    scale = np.abs(drho).max()
    if scale == 0.0:
        return DistanceResult(0.0, "diagonal_exact", None, None, 0, "exact", 0.0)
    dim = triple.sphere.dim
    blocks = drho.reshape(dim, len(drho) // dim, dim, -1)  # [i, p, j, q]: left i, j; right p, q
    marginal = np.trace(blocks, axis1=0, axis2=2)  # tr_L drho, k x k: tr drho at k = 1
    if np.abs(marginal).max() > SYMMETRY_TOL * max(1.0, abs(np.trace(m)), abs(np.trace(m2))):
        raise ArithmeticError("marginal of size %.3e: infinite distance" % np.abs(marginal).max())
    # the exact route drops the rounding part I (x) tr_L drho / dim
    drho0 = (blocks - np.eye(dim)[:, None, :, None] * marginal[:, None, :] / dim).reshape(m.shape)
    V, r = None, drho0  # exactly diagonal: the n3 basis itself, V = I with no eigh
    if (drho - np.diag(np.diagonal(drho))).any():
        unit, lam = _at_unit_scale(triple), triple.sphere.lam
        xs = (unit.sphere.x1, unit.sphere.x2, unit.sphere.x3)
        reduced = np.trace(blocks, axis1=1, axis2=3)  # tr_R drho, dim x dim
        v = [np.vdot(x, reduced).real for x in xs]  # v_i = Re tr(tr_R(drho) x_i) at lam = 1
        if any(v):  # columns by descending eigenvalue, the row order of n3
            V = np.linalg.eigh(np.tensordot(v, xs, 1))[1][:, ::-1]
            r = _sandwich(V.conj().T, drho0, V)
            # rounding in n = v/|v| and V grows as dim max|tr_R drho|/|v| (measured at 2n <= 40)
            slack = min(dim * max(1.0, np.abs(reduced).max() / math.hypot(*v)), _FRAME_SLACK)
        if V is None or np.abs(r - np.diag(np.diagonal(r))).max() > SYMMETRY_TOL * scale * slack:
            try:
                got = fallback(unit, drho)
            except OptimizerError as err:  # a lower bound at lam = 1, so lam times it here
                err.best_value = None if err.best_value is None else err.best_value * lam
                raise
            return replace(got, value=got.value * lam, upper=got.upper and got.upper * lam,
                           certificate=None if got.certificate is None else got.certificate * lam)
    return _diagonal_supremum(triple, drho0, np.diagonal(r).real, V)


def _sandwich(L, a, R):
    """(L (x) I_k) a (R (x) I_k) for a (dim k) x (dim k) matrix a and dim x dim L and R: one
    product per right block a[:, p, :, q], so at k = 1 the products L @ a @ R themselves."""
    blocks = a.reshape(len(L), len(a) // len(L), len(L), -1).transpose(1, 3, 0, 2)
    return (L @ blocks @ R).transpose(2, 0, 3, 1).reshape(a.shape)


def _diagonal_supremum(triple, drho, d, V) -> DistanceResult:
    """sum_k w_k |F_k|, F = cumsum(d): the exact supremum for drho = W diag(d) W^dag with zero
    marginal tr_L drho, W = V (x) I_k, V an eigenbasis of n.x by descending eigenvalue (None:
    the identity, n along x3).

    e^{it sigma3/2} (x) e^{it J3} commutes with D, so averaging over t makes some optimal a
    diagonal. [D, pi(diag f)] is a one-step shift in the spinor off-diagonal blocks, so the
    ball is |f_k - f_(k+1)| <= w_k = 1/||[D, pi(P_k)]||, P_k = diag(1, .., 1, 0, .., 0) with
    k + 1 ones. [D, pi(P_k)] is x+[k, k+1]/(lam r) and its conjugate, so w_k = lam r/x+[k, k+1]
    is read from the band, the lam-free ratio r/x+ first (lam r leaves the float range at
    lam = 1e+-200), and summation by parts gives the value at a = sum_k w_k sign(F_k) P_k
    (D'Andrea & Martinetti, SIGMA 6 (2010) 057). The SU(2) rotation U_(1/2) (x) U_n taking
    x3 to n.x also commutes with D, and V = U_n up to phases that drop out of V diag V^dag,
    so the potential for drho is V a V^dag; its dense ball residual checks the weights and V.

    At k > 1 (the quantum triple) d is the weight matrix w[i, j] of drho, left index i,
    flattened, and U_(1/2) (x) U_n (x) I commutes with D = D_c (x) I, so W = V (x) I. D also
    commutes with I (x) |j><j|, so compressing a to right sector j leaves its seminorm at most
    1 and is a config problem for column j. The supremum is the config sum over the columns,
    attained by W (sum_j a_j (x) |j><j|) W^dag. At k = 1 this is the config route itself."""
    s = triple.sphere
    F = np.cumsum(d.reshape(s.dim, -1), axis=0)  # one column per right sector j
    g = np.append(s.radius / s._xplus * s.lam, 0.0)[:, None] * np.sign(F)  # w_k sign(F_k)
    a = np.diag(np.cumsum(g[::-1], axis=0)[::-1].ravel())  # sum_j a_j (x) |j><j|, row-major
    if V is not None:
        a = _sandwich(V, a, V.conj().T)
        a = (a + a.conj().T) / 2.0
    value = float(np.real(np.trace(drho @ a)))
    return DistanceResult(value, "diagonal_exact", a, abs(lipschitz_seminorm(triple, a) - 1.0), 0,
                          "exact", value)


def _starts(drho, seed, restarts):
    """The ascent's starts on the unit sphere of traceless Hermitian matrices: drho itself, then
    ``restarts`` random directions from random.Random(seed), seed an integer >= 0 (_random).

    Each restart takes dim^2 random.gauss draws for its real parts, then dim^2 for its
    imaginary parts, in the shape (restarts, 2, dim, dim); no numpy.random is involved."""
    dim, gauss = drho.shape[-1], _random(seed).gauss
    z = np.array([gauss(0.0, 1.0) for _ in range(restarts * 2 * dim * dim)])
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


# ---------------------------------------------------------------------------
# log-barrier path following: a certified interval for the Connes supremum

_GROW = 8.0  # the barrier weight t grows by this factor at every centred point
_CENTRED = 0.25  # Newton decrement below which a point is centred: full steps, and t grows
_GAP = 1e-9  # stop once upper - lower <= _GAP lower
_NEWTON_CAP = 200  # Newton steps before OptimizerError; the coherent pairs at 2n <= 4 take < 80


def _traceless_basis(dim):
    """Orthonormal basis of the traceless Hermitian dim x dim matrices: (E_ij + E_ji)/sqrt 2 for
    i < j, then i(E_ji - E_ij)/sqrt 2, then diag(1, .., 1, -k, 0, .., 0)/sqrt(k(k + 1)) with
    k ones, k = 1..dim-1."""
    i, j = np.triu_indices(dim, 1)
    r = np.arange(len(i))
    sym = np.zeros((len(i), dim, dim), dtype=complex)
    sym[r, i, j] = sym[r, j, i] = math.sqrt(0.5)
    anti = np.zeros_like(sym)
    anti[r, i, j], anti[r, j, i] = -1j * math.sqrt(0.5), 1j * math.sqrt(0.5)
    k = np.arange(1, dim)[:, None]
    cols = np.arange(dim)
    diag = ((cols < k) - k * (cols == k)) / np.sqrt(k * (k + 1.0))
    return np.concatenate([sym, anti, diag[:, :, None] * np.eye(dim)])


def _barrier(triple, drho) -> DistanceResult:
    """Certified supremum of tr(drho a) over the Lipschitz ball of D = D_c (x) I_k, drho of zero
    marginal tr_L drho within rounding, by log-barrier path following (Vandenberghe & Boyd,
    SIAM Rev. 38 (1996)).

    a = sum_k x_k B_k over the basis B_i (x) C_j, B_i over _traceless_basis(dim) and C_j over
    _traceless_basis(k) and I/sqrt(k), at k = 1 the traceless basis itself. It is orthonormal
    and spans the Hermitian a with tr_L a = 0, the complement of the seminorm's kernel I (x) M_k
    (the commutant of D), so the Hessian below is regular; c has no part along the kernel,
    where tr(drho (I (x) C)) = tr(tr_L(drho) C) is rounding. The problem is max c.x, c_k = tr(drho B_k)/s with
    s = max|drho|, subject to -I <= K(x) <= I, K(x) = sum_k x_k M_k, M_k = i[D, pi(B_k)].
    Newton steps minimize -t c.x - log det(I - K) - log det(I + K), damped by 1/(1 + decrement)
    until the decrement is below _CENTRED, where t grows by _GROW. Every iterate is strictly
    feasible, so c.x/||K|| is a lower bound, attained by a/||K||.

    The upper bound is the barrier dual (P - Q)/t, P = (I - K)^-1 and Q = (I + K)^-1, taken at
    the Newton point x + dx to first order, (P - Q + P dK P + Q dK Q)/t with dK = K(dx): by
    the Newton equation it satisfies <Z, M_k> = c_k, and the Gram pseudo-inverse moves it back
    onto that plane after rounding. Then c.x' = <Z, K(x')> <= ||Z||_* for every feasible x', so
    the nuclear norm ||Z||_* bounds the supremum. It is formed at each centred point and the
    smallest is kept. (P - Q)/t itself, projected, left gaps up to 1.7e-8 when each stage ended
    at a decrement of 1e-3, and Newton stalls on rounding before a decrement of 1e-6.) Stops once
    upper - lower <= _GAP lower, and raises OptimizerError, the lower bound as best_value, if
    that takes more than _NEWTON_CAP Newton steps.

    Returns the lower bound as value, its potential a/||[D, pi(a)]|| (rescaled by the dense
    seminorm) with its ball residual, the Newton steps taken, and the upper bound as upper."""
    scale = np.abs(drho).max()
    k = len(drho) // triple.sphere.dim
    right = np.concatenate([_traceless_basis(k), np.eye(k)[None] / math.sqrt(k)])
    B = np.kron(_traceless_basis(triple.sphere.dim), right)  # B_i (x) C_j, by every axis
    M = 1j * _commutator(triple, B)
    c = np.einsum("ij,kji->k", drho, B).real / scale
    N = len(M[0])
    flat = M.reshape(len(B), -1)
    gram_inv = np.linalg.pinv((flat.conj() @ flat.T).real)  # <M_k, M_l> in every basis
    x = best = np.zeros(len(B))
    lam, U = np.zeros(N), np.eye(N)
    t, lower, upper = 1.0, -math.inf, math.inf
    for steps in range(_NEWTON_CAP + 1):
        norm = np.abs(lam).max()
        if norm > 0.0 and c @ x / norm > lower:
            lower, best = c @ x / norm, x
        p, q = 1.0 / (1.0 - lam), 1.0 / (1.0 + lam)  # P and Q in the eigenbasis U of K
        Mt = U.conj().T @ M @ U
        dphi = np.diagonal(Mt, axis1=1, axis2=2).real @ (p - q)  # <P - Q, M_k>
        Mt = Mt.reshape(len(B), -1)
        w = (np.outer(p, p) + np.outer(q, q)).ravel()
        hess = ((Mt * w) @ Mt.conj().T).real  # tr(P M_k P M_l) + tr(Q M_k Q M_l)
        g = dphi - t * c
        dx = np.linalg.solve(hess, -g)
        dec = math.sqrt(max(-(g @ dx), 0.0))  # the Newton decrement
        if dec <= _CENTRED:  # bound the supremum from the dual at x + dx
            Z = np.diag(p - q).ravel() + w * (dx @ Mt)  # t Z, in the eigenbasis of K
            Z = (Z + (gram_inv @ (t * c - (Mt.conj() @ Z).real)) @ Mt) / t
            upper = min(upper, np.abs(np.linalg.eigvalsh(Z.reshape(N, N))).sum())
        if upper - lower <= _GAP * lower or steps == _NEWTON_CAP:
            break
        if dec <= _CENTRED:  # then move t on along the path
            t *= _GROW
            g = dphi - t * c
            dx = np.linalg.solve(hess, -g)
            dec = math.sqrt(max(-(g @ dx), 0.0))
        step = 1.0 / (1.0 + dec) if dec > _CENTRED else 1.0
        while True:  # in exact arithmetic the first step is feasible; x itself always is
            lam, U = np.linalg.eigh(((x + step * dx) @ flat).reshape(N, N))
            if np.abs(lam).max() < 1.0:
                break
            step /= 2.0
        x = x + step * dx
    a = np.tensordot(best, B, 1)
    a_star = a / lipschitz_seminorm(triple, a)
    value = float(np.real(np.trace(drho @ a_star)))
    if not upper - lower <= _GAP * lower:
        raise OptimizerError("barrier gap still open after %d Newton steps: upper - lower = "
                             "%.1e lower" % (_NEWTON_CAP, (upper - lower) / lower), best_value=value)
    return DistanceResult(value, "barrier", a_star, abs(lipschitz_seminorm(triple, a_star) - 1.0),
                          steps, "certified", float(upper * scale))
