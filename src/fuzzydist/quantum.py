"""Distances on the quantum (operator) Hilbert space.

The quantum Hilbert space has the basis |n3, l3) of configuration-space matrix
units, left label n3 and right label l3. Every state and displacement used
here is diagonal in that basis, so it is stored as its (2n+1) x (2n+1) weight
matrix w[i, j] (left n3 in row i, right l3 in column j, both descending), and
a path of probability rows P(n3), P(n3+1), ... as one (steps+1) x (2n+1)
array. Pure displacements between neighbouring left sectors admit closed-form
commutator norms with two branches, depending on whether the right sectors of
the two states coincide. Mixed states rho(n3) = sum_l P_l(n3) |n3, l)(n3, l|
carry a probability profile over the right sector; their distance functional
uses the Hilbert-Schmidt (Frobenius) norm of the Dirac commutator, evaluated
for every step of a path at once by _step_functional. mixed_commutator_norms
measures it against the nuclear norm.

The quantum Dirac operator acts on the left index only, D_q = D_c (x) I_right,
so for a diagonal displacement [D_q, pi(drho)] is a direct sum of config
blocks, one per right sector j (_step_blocks). The oracles work on those
blocks and build no dim^2 x dim^2 matrix; the dense quantum triple of
triple.py is kept as a small-n test oracle, fed np.diag(w.ravel()). I (x)
|l><l| commutes with D_q, so between distinct right sectors the Connes
distance is +infinity and the values here are the lower-bound formula
2/seminorm.

sigma.x is real in the |n3> basis: x3 and x+- are real bands, and sigma2 and
x2 are both imaginary. So build_dirac's D_c is real symmetric float64, w is
real, every block is real antisymmetric, and the SVDs run in real arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .distance import adjacent_distance_closed_form
from .halfint import HalfInteger, _quarters, ladder_radicand
from .sphere import (FuzzySphere, SphereDomainError, _adjacent_step, _halfint, _labels, _lam,
                     _random, _row, _steps)
from .triple import SpectralTriple, _commutator, build_dirac


class MinimizationError(RuntimeError):
    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# pure-state two-branch distance

def _literal_radicand(n: HalfInteger, n3: HalfInteger) -> float:
    """n(n+1) - n3^2 + |n3|, one integer numerator over 4 rounded once."""
    return (_quarters(n.twice) - n3.twice ** 2 + 2 * abs(n3.twice)) / 4


def _symmetrized_radicand(n: HalfInteger, n3: HalfInteger) -> float:
    """n(n+1) - min v(v+1), v = n3 - 1, n3, n3 + 1: one integer numerator over 4 rounded once."""
    return (_quarters(n.twice) - min(_quarters(n3.twice + d) for d in (-2, 0, 2))) / 4


def same_sector_seminorm(n, lam: float, n3) -> float:
    """||[D, pi(drho_q)]|| when both states share the right sector."""
    n, n3 = _adjacent_step(n, n3)
    return (2.0 * math.sqrt(ladder_radicand(n, n3))
            / (_lam(lam) * math.sqrt(n.times_self_plus_one())))


def distinct_sector_seminorm_literal(n, lam: float, n3) -> float:
    """The distinct-right-sector closed form sqrt(n(n+1) - n3^2 + |n3|)/(lam sqrt(n(n+1))).

    Matches the eigensolver oracle only for n3 >= -1; see
    distinct_branch_report for the measured domain of validity.
    """
    n, n3 = _adjacent_step(n, n3)
    return math.sqrt(_literal_radicand(n, n3)) / (_lam(lam) * math.sqrt(n.times_self_plus_one()))


def distinct_sector_seminorm_symmetrized(n, lam: float, n3) -> float:
    """Reflection-symmetric completion of the distinct-sector norm.

    sqrt(n(n+1) - min(n3(n3-1), n3(n3+1), (n3+1)(n3+2))) / (lam sqrt(n(n+1))).
    Agrees with the eigensolver oracle at every (n, n3) tested, including the
    n3 < -1 region where the literal form does not.
    """
    n, n3 = _adjacent_step(n, n3)
    return (math.sqrt(_symmetrized_radicand(n, n3))
            / (_lam(lam) * math.sqrt(n.times_self_plus_one())))


def quantum_pure_distance(n, lam: float, n3, right_same: bool) -> float:
    """Closed-form value for the pure states |n3+1, r)(n3+1, r| and |n3, r')(n3, r'|.

    right_same selects the branch: r = r' gives the configuration-space Connes
    distance adjacent_distance_closed_form (compressing to sector r loses
    nothing); r != r' the lower-bound formula 2/seminorm with the literal
    radicand, not a Connes distance.
    """
    if right_same:
        return adjacent_distance_closed_form(n, n3, lam)
    return 2.0 / distinct_sector_seminorm_literal(n, lam, n3)


def quantum_pure_distance_symmetrized(n, lam: float, n3) -> float:
    """Distinct-sector lower-bound formula 2/seminorm, symmetrized; not a Connes distance."""
    return 2.0 / distinct_sector_seminorm_symmetrized(n, lam, n3)


def quantum_seminorm_oracle(n, lam: float, n3, n3p, l3p) -> float:
    """Eigensolver norm of [D, pi(drho_q)] for the explicit displacement.

    drho_q = |n3+1, l3p)(n3+1, l3p| - |n3, n3p)(n3, n3p|, no closed forms
    involved anywhere: the top singular value over its right-sector blocks.
    """
    n, n3 = _adjacent_step(n, n3)
    lam = _lam(lam)
    e = np.eye(n.twice + 1)
    _, blocks = _step_blocks(n, n3, e[_row(n, l3p, "l3p")], e[_row(n, n3p, "n3p")])
    return float(np.linalg.svd(blocks, compute_uv=False).max()) / lam


@functools.lru_cache(maxsize=64)
def _config_triple(two_n: int) -> SpectralTriple:
    """The config triple at spin two_n/2 and lam = 1, its float64 D_c made read-only, shared
    by every oracle call at that 2n; D_c scales as 1/lam, so the oracles apply lam at the end."""
    tr = build_dirac(FuzzySphere(HalfInteger(two_n), 1.0), "config")
    tr.dirac.setflags(write=False)
    return tr


def _step_blocks(n: HalfInteger, n3: HalfInteger, pu: np.ndarray, pd: np.ndarray):
    """Weights w and right-sector blocks of [D_q, pi(drho)] at lam = 1 for a checked step
    n3 -> n3+1; at scale lam the blocks are these over lam. Forming them at lam kept powers
    of lam that left the float range at lam = 1e+-200.

    drho = sum_l pu[l] |n3+1, l)(n3+1, l| - pd[l] |n3, l)(n3, l| = sum w[i, j] |i, j)(i, j|.
    D_q = D_c (x) I_right acts on the left index only, so right sector j
    contributes the config block [D_c, pi_c(diag w[:, j])]. The zero sectors
    are skipped and the rest go through the commutator kernel as one stack.
    """
    dim = n.twice + 1
    i = _row(n, n3)
    w = np.zeros((dim, dim))
    w[i - 1], w[i] = pu, -pd                        # n3 + 1 is the row above n3
    cols = w[:, w.any(axis=0)].T
    diags = np.zeros((len(cols), dim, dim))
    diags.reshape(len(cols), dim * dim)[:, ::dim + 1] = cols    # diag(w[:, j]) per sector j
    return w, _commutator(_config_triple(n.twice), diags)


def distinct_branch_report(n) -> List[dict]:
    """Measured comparison of the distinct-sector closed form with the oracle, at lam = 1.

    One entry per n3; literal_matches goes False exactly on n3 <= -3/2 where
    the literal radicand disagrees, while the symmetrized form tracks the
    oracle everywhere. Both match when within 1e-10 of the oracle, relative
    to max(oracle, 1).
    """
    tol = 1e-10
    out = []
    for n3 in _steps(n):
        # any right-sector pair with l3p != n3p exercises the distinct branch;
        # use (n3p, l3p) = (n3, n3+1) which exists for every valid step
        oracle = quantum_seminorm_oracle(n, 1.0, n3, n3, n3 + HalfInteger(2))
        lit = distinct_sector_seminorm_literal(n, 1.0, n3)
        sym = distinct_sector_seminorm_symmetrized(n, 1.0, n3)
        out.append({
            "n3": str(n3),
            "oracle": oracle,
            "literal": lit,
            "symmetrized": sym,
            "literal_matches": abs(lit - oracle) <= tol * max(oracle, 1.0),
            "symmetrized_matches": abs(sym - oracle) <= tol * max(oracle, 1.0),
        })
    return out


# ---------------------------------------------------------------------------
# probability profiles

def _data_rows(text: str):
    """Yield (1-based line number, floats) per data line; blank lines and '#' comments skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                yield lineno, [float(tok) for tok in line.split()]
            except ValueError as exc:
                raise SphereDomainError("line %d: %s" % (lineno, exc)) from None


def _check_row(v: np.ndarray, where: str):
    """SphereDomainError led by `where` unless row v is finite, >= 0 and sums to 1 within 1e-9."""
    if not np.isfinite(v).all():
        raise SphereDomainError("%s: non-finite probability" % where)
    if v.min() < 0:
        raise SphereDomainError("%s: negative probability" % where)
    if abs(v.sum() - 1.0) > 1e-9:
        raise SphereDomainError("%s: row sums to %.12g, not 1" % (where, v.sum()))


class ProbabilityProfile:
    """P_{l3}(n3): one probability vector per left-sector label n3.

    Rows are keyed by 2 n3, an integer in -2n..2n with the parity of 2n.
    Vectors run over l3 descending from +n to -n, matching the row order of
    every other basis in the package. Each vector is finite, nonnegative and
    sums to 1 within 1e-9 (_check_row), and is stored rescaled to sum 1.
    """

    def __init__(self, n, rows: Dict[int, np.ndarray]):
        self.n = _halfint(n)
        m = len(_labels(self.n))
        self.rows = {}
        for t, vec in rows.items():
            _row(self.n, HalfInteger(t), "profile row at n3")
            v = np.asarray(vec, dtype=float)
            if v.shape != (m,):
                raise SphereDomainError("profile row at n3 = %s has %d entries, need %d"
                                        % (HalfInteger(t), v.size, m))
            _check_row(v, "n3 = %s" % HalfInteger(t))
            self.rows[t] = v / v.sum()

    @classmethod
    def uniform(cls, n) -> "ProbabilityProfile":
        labels = _labels(n)
        return cls(n, dict.fromkeys(labels, np.full(len(labels), 1.0 / len(labels))))

    @classmethod
    def delta(cls, n, peak_l3) -> "ProbabilityProfile":
        labels = _labels(n)
        row = np.zeros(len(labels))
        row[_row(n, peak_l3, "peak l3")] = 1.0
        return cls(n, dict.fromkeys(labels, row))

    @classmethod
    def from_text(cls, text: str, n) -> "ProbabilityProfile":
        """Parse the plain-text table: one row per n3, descending from +n.

        Whitespace-separated reals, 2n+1 per row, 2n+1 rows; blank lines and
        '#' comments are skipped. Errors carry 1-based line numbers.
        """
        labels = _labels(n)
        m = len(labels)
        vectors = []
        for lineno, vals in _data_rows(text):
            if len(vals) != m:
                raise SphereDomainError("line %d: expected %d entries, got %d"
                                        % (lineno, m, len(vals)))
            vectors.append((lineno, np.array(vals)))
        if len(vectors) != m:
            raise SphereDomainError("expected %d profile rows, got %d" % (m, len(vectors)))
        for lineno, vec in vectors:
            _check_row(vec, "line %d" % lineno)
        return cls(n, {t: vec for (_, vec), t in zip(vectors, labels)})

    def at(self, n3) -> np.ndarray:
        t = _halfint(n3).twice
        if t not in self.rows:
            raise SphereDomainError("profile has no row at n3 = %s" % HalfInteger(t))
        return self.rows[t]

    def _path(self, n: HalfInteger, labels) -> np.ndarray:
        """Rows at the 2 n3 values in labels of spin n as one array; raises unless the profile
        is one of spin n, and at() raises for a missing row."""
        if self.n.twice != n.twice:
            raise SphereDomainError("profile is for n = %s, not n = %s" % (self.n, n))
        rows = self.rows
        return np.array([rows[t] if t in rows else self.at(HalfInteger(t)) for t in labels])


# ---------------------------------------------------------------------------
# mixed-state distance functional

def _step_functional(nn1: float, x: np.ndarray, t0: int):
    """Num, S and (cu, cd, cx) for every step of the path of profile rows x, nn1 = n(n+1).

    Row r of x is P(n3) at n3 = t0/2 + r, so step r runs n3 -> n3+1 with
    pu = x[r+1], pd = x[r]: Num = |pu|^2 + |pd|^2 and
    S = cu |pu|^2 + cd |pd|^2 + cx pu.pd with cu = n(n+1) - (n3+1)^2,
    cd = n(n+1) - n3^2 and cx = n(n+1) - n3(n3+1), all exact in floats.
    The step's distance is (lam sqrt(n(n+1))/2) Num/sqrt(S). Leading axes of
    x index independent paths, each computed exactly as if alone.
    """
    n3 = np.arange(t0 / 2.0, t0 / 2.0 + x.shape[-2])   # n3 of each row
    c = nn1 - n3 * n3
    cu, cd, cx = c[1:], c[:-1], nn1 - n3[:-1] * n3[1:]
    sq = (x[..., None, :] @ x[..., :, None])[..., 0, 0]             # |P|^2 per row, as np.dot
    cross = (x[..., 1:, None, :] @ x[..., :-1, :, None])[..., 0, 0]  # pu.pd per step
    su, sd = sq[..., 1:], sq[..., :-1]
    return su + sd, cu * su + cd * sd + cx * cross, (cu, cd, cx)


def _path_labels(n: HalfInteger, n_i: HalfInteger, n_f: HalfInteger) -> range:
    """2 n3 of every row on the path n_i -> n_f, ascending; both ends must be basis states."""
    i, f = _row(n, n_i, "n_i"), _row(n, n_f, "n_f")
    if f >= i:
        raise SphereDomainError("need -n <= n_i < n_f <= n")
    return _labels(n)[f:i + 1][::-1]


def trace_norm_distance(n, lam: float, n3, profile: ProbabilityProfile) -> float:
    """Mixed-state distance for the step n3 -> n3+1.

    Numerator sum_l [P_l(n3+1)^2 + P_l(n3)^2]; denominator the closed-form
    commutator norm with prefactor 2/(lam sqrt(n(n+1))). Equals
    (lam sqrt(n(n+1))/2) Num/sqrt(S).
    """
    n, n3 = _adjacent_step(n, n3)
    return path_distance(n, lam, profile, n3, n3 + HalfInteger(2))


def mixed_commutator_norms(n, lam: float, n3, profile: ProbabilityProfile) -> dict:
    """Norms of the explicit [D, pi(drho_q)] plus the closed-form display value.

    The display (prefactor 2/(lam r) times sqrt(S)) coincides with the
    Frobenius norm of the commutator; the nuclear norm is profile-independent
    and differs, so it cannot be the norm the display means. The commutator
    norms come from one SVD of the stacked right-sector blocks. Returned keys:
    display, frobenius, nuclear, operator, numerator, numerator_closed.
    """
    n, n3 = _adjacent_step(n, n3)
    lam = _lam(lam)
    x = profile._path(n, (n3.twice, n3.twice + 2))
    w, blocks = _step_blocks(n, n3, x[1], x[0])
    sv = np.linalg.svd(blocks, compute_uv=False)
    nn1 = n.times_self_plus_one()
    num, s, _ = _step_functional(nn1, x, n3.twice)
    return {
        "display": 2.0 / (lam * math.sqrt(nn1)) * math.sqrt(s[0]),
        "frobenius": float(np.sqrt(np.sum(sv * sv))) / lam,
        "nuclear": float(sv.sum()) / lam,
        "operator": float(sv.max()) / lam,
        "numerator": float(np.sum(w * w)),
        "numerator_closed": float(num[0]),
    }


def mixed_distance_oracle(n, lam: float, n3, profile: ProbabilityProfile) -> float:
    """Distance recomputed from the explicit commutator, no closed forms and no SVD."""
    n, n3 = _adjacent_step(n, n3)
    lam = _lam(lam)
    w, blocks = _step_blocks(n, n3, *profile._path(n, (n3.twice + 2, n3.twice)))
    return float(np.sum(w * w)) / float(np.linalg.norm(blocks)) * lam


# ---------------------------------------------------------------------------
# stationarity certificate for the minimizing profile

@dataclass
class MinimizationCertificate:
    delta: np.ndarray          # symmetric tridiagonal, rows n3 descending n_f..n_i
    alpha: np.ndarray          # least-squares multipliers, one per row
    residual: float            # max over l3 of ||delta P_l3 - 2 alpha||_inf at lam = 1


def delta_matrix(n, lam: float, profile: ProbabilityProfile, n_i, n_f) -> MinimizationCertificate:
    """Stationarity matrix for the path distance from n_i to n_f.

    delta is the gradient's operator: _path_grad with the profile's step terms held
    fixed is linear in the rows, delta is that map, and delta P_l3 is the gradient's
    column l3. The stationarity condition for a minimizing profile is
    delta P_{l3} = 2 alpha with alpha independent of l3; the residual reports how far
    the given profile is from it. delta and alpha are linear in lam, so both are formed
    at lam = 1 and scaled once; the residual is the lam = 1 one, which reads the same at
    every lam (lam times it would overflow at lam = 1e200 and underflow at 1e-200).
    """
    n, n_i, n_f = _halfint(n), _halfint(n_i), _halfint(n_f)
    lam = _lam(lam)
    x = profile._path(n, _path_labels(n, n_i, n_f))
    _, k, h, cs = _path_terms(n.times_self_plus_one(), 1.0, x, n_i.twice)
    D = _path_grad(np.eye(len(x)), k, h, cs)[::-1, ::-1]   # rows n3 descending, like every basis
    prod = D @ x[::-1]                 # column l3 holds delta P_l3
    alpha = prod.mean(axis=1) / 2.0    # least-squares alpha is the l3 average
    residual = float(np.abs(prod - 2.0 * alpha[:, None]).max())
    return MinimizationCertificate(D * lam, alpha * lam, residual)


# ---------------------------------------------------------------------------
# path-distance minimization over profiles

def path_distance(n, lam: float, profile: ProbabilityProfile, n_i, n_f) -> float:
    """Sum of per-step distances along n_i -> n_f."""
    n, n_i, n_f = _halfint(n), _halfint(n_i), _halfint(n_f)
    x = profile._path(n, _path_labels(n, n_i, n_f))
    return float(_path_terms(n.times_self_plus_one(), _lam(lam), x, n_i.twice)[0])


def _path_terms(nn1, lam, x, t0):
    """One evaluation of the path functional on raw (unvalidated) probability rows x, row r
    at n3 = t0/2 + r: (distance, k, h, (cu, cd, cx)), the distance one value per path of the
    leading axes. Each step adds d = c Num/sqrt(S) with c = lam r/2; k = c/sqrt(S) and
    h = c Num/(2 S^{3/2}) are its terms in dd/dp = 2k p - h dS/dp (_path_grad)."""
    num, s, cs = _step_functional(nn1, x, t0)
    c = lam * math.sqrt(nn1) / 2.0
    cn, rs = c * num, np.sqrt(s)
    return (cn / rs).sum(axis=-1), c / rs, cn / (2.0 * s ** 1.5), cs


def _path_grad(x, k, h, cs) -> np.ndarray:
    """Gradient of the path distance at rows x from its terms (_path_terms): each step adds
    2k p - h dS/dp to its two rows p = pu, pd, with dS/dpu = 2 cu pu + cx pd and
    dS/dpd = 2 cd pd + cx pu. Linear in x for fixed terms, so delta_matrix is this map."""
    cu, cd, cx = (c[:, None] for c in cs)
    k, h = k[..., None], h[..., None]
    pu, pd = x[..., 1:, :], x[..., :-1, :]
    g = np.zeros_like(x)
    g[..., 1:, :] += 2.0 * k * pu - h * (2.0 * cu * pu + cx * pd)
    g[..., :-1, :] += 2.0 * k * pd - h * (2.0 * cd * pd + cx * pu)
    return g


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v (last axis) onto the probability simplex."""
    m = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    rho = m - 1 - np.argmax((u + (1.0 - css) / np.arange(1, m + 1) > 0)[..., ::-1], axis=-1)
    theta = (1.0 - np.take_along_axis(css, rho[..., None], axis=-1)) / (rho[..., None] + 1.0)
    return np.clip(v + theta, 0.0, None)


_DESCENT_ITERS = 2000  # iterations per start before MinimizationError
_DESCENT_STOPS = ("", "small_step", "no_descent", "max_iters")  # stop code names; "" runs
_SMALL_STEP, _NO_DESCENT, _OUT_OF_ITERS = 1, 2, 3


def _dirichlet_rows(seed, shape) -> np.ndarray:
    """Dirichlet(1, ..., 1) draws along the last axis of an array of the given shape: the
    expovariate(1.0) stream of random.Random(seed) (_random), in row-major order, each row
    divided by its sum."""
    rnd = _random(seed)
    e = np.array([rnd.expovariate(1.0) for _ in range(math.prod(shape))]).reshape(shape)
    return e / e.sum(axis=-1, keepdims=True)


def minimize_path_distance(n, lam: float, n_i, n_f, starts: int = 20, seed: int = 42) -> dict:
    """Minimize the path distance over profiles on the product of simplices.

    Projected gradient descent with Armijo backtracking on the analytic
    gradient _path_grad, from the uniform profile and starts - 1 seeded
    Dirichlet ones (_dirichlet_rows); starts < 1 raises SphereDomainError.
    Each start's rule: try its step t once per round; on the Armijo test
    accept, t *= 1.5 and take a new gradient, else t *= 0.5. It stops on an
    accepted step below 1e-12 ("small_step"), after 40 rejections in a row
    ("no_descent"), or unconverged after _DESCENT_ITERS iterations.
    The starts run in lockstep as one (starts, npts, m) stack, each with its
    rule unchanged: the helpers keep leading axes independent, so every start
    takes bitwise the steps it would alone; stop reasons are integer codes
    until they are named from _DESCENT_STOPS. Returns {"profile", "distance",
    "iterations", "stop"} of the first start of least distance; the minimizer
    found is the uniform profile. If that start did not converge,
    MinimizationError carries its distance and rows.
    """
    n, n_i, n_f = _halfint(n), _halfint(n_i), _halfint(n_f)
    lam = _lam(lam)
    if starts < 1:
        raise SphereDomainError("starts must be >= 1, got %r" % (starts,))
    labels = _path_labels(n, n_i, n_f)
    npts, m, t0 = len(labels), n.twice + 1, n_i.twice
    nn1 = n.times_self_plus_one()

    x = np.concatenate([np.full((1, npts, m), 1.0 / m),
                        _dirichlet_rows(seed, (starts - 1, npts, m))])
    fx, k, h, cs = _path_terms(nn1, lam, x, t0)
    g = _path_grad(x, k, h, cs)
    ns = len(x)
    step, rungs, iters = np.ones(ns), np.zeros(ns, int), np.full(ns, min(1, _DESCENT_ITERS))
    stop = np.full(ns, 0 if _DESCENT_ITERS > 0 else _OUT_OF_ITERS)  # codes into _DESCENT_STOPS
    while (live := np.flatnonzero(stop == 0)).size:
        xl, tl = x[live], step[live]
        cand = _project_simplex(xl - tl[:, None, None] * g[live])
        fc, k, h, _ = _path_terms(nn1, lam, cand, t0)
        gap = xl - cand
        ok = fc <= fx[live] - 1e-4 * np.sum(gap * gap, axis=(-2, -1)) / np.maximum(tl, 1e-16)
        acc, rej = live[ok], live[~ok]
        x[acc], fx[acc] = cand[ok], fc[ok]
        step[acc] *= 1.5
        step[rej] *= 0.5
        rungs[acc] = 0
        rungs[rej] += 1
        stop[rej[rungs[rej] == 40]] = _NO_DESCENT
        stop[acc[np.abs(gap[ok]).max(axis=(-2, -1)) < 1e-12]] = _SMALL_STEP
        stop[acc[(stop[acc] == 0) & (iters[acc] == _DESCENT_ITERS)]] = _OUT_OF_ITERS
        keep = stop[acc] == 0
        more = acc[keep]
        iters[more] += 1
        g[more] = _path_grad(x[more], k[ok][keep], h[ok][keep], cs)

    b = int(np.argmin(fx))
    if stop[b] == _OUT_OF_ITERS:
        raise MinimizationError("descent did not converge in %d iterations" % _DESCENT_ITERS,
                                best={"distance": float(fx[b]), "profile_rows": x[b]})
    profile = ProbabilityProfile(n, {t: x[b, r] for r, t in enumerate(labels)})
    return {"profile": profile, "distance": float(fx[b]), "iterations": int(iters[b]),
            "stop": _DESCENT_STOPS[stop[b]]}


def _uniform_radicand(n: HalfInteger, n3: HalfInteger) -> float:
    """3[n(n+1) - n3(n3+1) - 1/3] = 3 rad - 1, one integer numerator over 4 rounded once."""
    return (3 * (_quarters(n.twice) - _quarters(n3.twice)) - 4) / 4


def uniform_minimized_distance(n, lam: float, n3) -> float:
    """Per-step distance with the uniform profile P = 1/(2n+1):

    (1/sqrt(2n+1)) lam sqrt(n(n+1)) / sqrt(3[n(n+1) - n3(n3+1) - 1/3]).
    """
    n, n3 = _adjacent_step(n, n3)
    m = n.twice + 1
    return (_lam(lam) * math.sqrt(n.times_self_plus_one())
            / (math.sqrt(m) * math.sqrt(_uniform_radicand(n, n3))))


# ---------------------------------------------------------------------------
# thermal profiles

@dataclass
class EnergySpectrum:
    """Energy levels E_{l3}, ordered l3 descending like every profile row."""

    levels: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.levels, dtype=float)
        if e.ndim != 1 or e.size < 1 or not np.all(np.isfinite(e)):
            raise SphereDomainError("spectrum must be a nonempty finite 1-d array")
        self.levels = e

    @classmethod
    def default(cls, n, lam: float = 1.0) -> "EnergySpectrum":
        """Zeeman-like linear spectrum E_{l3} = lam * l3."""
        lam = _lam(lam)
        return cls(np.array([lam * t / 2.0 for t in _labels(n)]))

    @classmethod
    def from_text(cls, text: str) -> "EnergySpectrum":
        rows = list(_data_rows(text))
        if len(rows) != 1:
            raise SphereDomainError("spectrum file must contain exactly one data row, got %d"
                                    % len(rows))
        return cls(np.array(rows[0][1]))


def _beta(beta: float) -> float:
    """beta, unless it is not finite or below 0 (SphereDomainError)."""
    if not (beta >= 0 and np.isfinite(beta)):
        raise SphereDomainError("beta must be finite and >= 0")
    return beta


def partition_function(spectrum: EnergySpectrum, beta: float) -> float:
    """Z(beta) = sum exp(-beta E), plain evaluation; SphereDomainError where Z leaves the float
    range (overflows, or underflows to 0)."""
    with np.errstate(over="ignore"):
        z = float(np.exp(-_beta(beta) * spectrum.levels).sum())
    if not 0.0 < z < math.inf:
        raise SphereDomainError("Z(beta) at beta = %r leaves the float range" % (beta,))
    return z


def thermal_profile(spectrum: EnergySpectrum, beta: float) -> np.ndarray:
    """Boltzmann weights exp(-beta E)/Z, computed with a max shift so large
    beta*E never overflows."""
    w = np.exp(-_beta(beta) * (spectrum.levels - spectrum.levels.min()))
    return w / w.sum()


def thermal_prefactor(spectrum: EnergySpectrum, beta: float) -> float:
    """sqrt(Z(2 beta))/Z(beta), the l2 norm of thermal_profile. Lives in [1/sqrt(M), 1]."""
    return float(np.linalg.norm(thermal_profile(spectrum, beta)))


def thermal_distance(n, lam: float, n3, spectrum: EnergySpectrum, beta: float) -> float:
    """Per-step distance with the thermal profile (same temperature at all n3):

    sqrt(Z(2 beta))/Z(beta) * lam sqrt(n(n+1)) / sqrt(3[n(n+1) - n3(n3+1) - 1/3]).

    Identical to trace_norm_distance evaluated on the thermal profile.
    """
    n, n3 = _adjacent_step(n, n3)
    if spectrum.levels.size != n.twice + 1:
        raise SphereDomainError("spectrum has %d levels, sphere needs %d"
                                % (spectrum.levels.size, n.twice + 1))
    return (thermal_prefactor(spectrum, beta) * _lam(lam) * math.sqrt(n.times_self_plus_one())
            / math.sqrt(_uniform_radicand(n, n3)))
