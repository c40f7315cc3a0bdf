"""Distances on the quantum (operator) Hilbert space.

States here are density matrices over the vectorized operator basis
|n3, n3'), i.e. matrix units of the configuration space flattened row-major
to vectors of length dim^2. Pure displacements between neighbouring left
sectors admit closed-form commutator norms with two branches, depending on
whether the right sectors of the two states coincide. Mixed states carry a
probability profile over the right sector, and their distance functional
uses the Hilbert-Schmidt (Frobenius) norm of the Dirac commutator; see
mixed_commutator_norms for the measured comparison against the nuclear norm.

The quantum Dirac operator acts on the left index only, D_q = D_c (x) I_right,
and the displacements the oracles build are diagonal in |i, j), so
[D_q, pi(drho)] is a direct sum of config blocks, one per right sector j
(_step_blocks). The oracles work on those blocks and build no dim^2 x dim^2
matrix; the dense quantum triple of triple.py is kept as a small-n test
oracle. I (x) |l><l| commutes with D_q, so between distinct right sectors the
Connes distance is +infinity and the values here are the lower-bound formula
2/seminorm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

import numpy as np

from .halfint import HalfInteger
from .sphere import FuzzySphere, SphereDomainError, _halfint
from .triple import build_dirac


class MinimizationError(RuntimeError):
    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# vectorized basis

def quantum_basis_vector(sphere: FuzzySphere, n3, n3p) -> np.ndarray:
    """Unit vector for |n3, n3'): the matrix unit E_{n3, n3'} flattened row-major."""
    i = sphere.index_of(n3)
    j = sphere.index_of(n3p)
    v = np.zeros(sphere.dim ** 2, dtype=complex)
    v[i * sphere.dim + j] = 1.0
    return v


def quantum_projector(sphere: FuzzySphere, n3, n3p) -> np.ndarray:
    v = quantum_basis_vector(sphere, n3, n3p)
    return np.outer(v, v.conj())


@dataclass
class QuantumState:
    sphere: FuzzySphere
    matrix: np.ndarray

    def __post_init__(self):
        d2 = self.sphere.dim ** 2
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (d2, d2):
            raise SphereDomainError("quantum state must be %dx%d" % (d2, d2))
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise SphereDomainError("quantum state is not Hermitian")
        if abs(m.trace() - 1.0) > 1e-12:
            raise SphereDomainError("quantum state trace != 1")
        self.matrix = m


# ---------------------------------------------------------------------------
# pure-state two-branch distance

def _nn1(n: HalfInteger) -> Fraction:
    return n.times_self_plus_one()


def _step(n, n3):
    """(n, n3) as half-integers, checked to label a step n3 -> n3+1 at spin n."""
    n, n3 = _halfint(n), _halfint(n3)
    if n3.twice < -n.twice or n3.twice > n.twice - 2:
        raise SphereDomainError("need -n <= n3 <= n-1 for a step, got n3 = %s" % n3)
    return n, n3


def same_sector_seminorm(n, lam: float, n3) -> float:
    """||[D, pi(drho_q)]|| when both states share the right sector."""
    n = _halfint(n)
    n3 = _halfint(n3)
    rad = _nn1(n) - _nn1(n3)
    return 2.0 * math.sqrt(float(rad)) / (lam * math.sqrt(float(_nn1(n))))


def distinct_sector_seminorm_literal(n, lam: float, n3) -> float:
    """The distinct-right-sector closed form sqrt(n(n+1) - n3^2 + |n3|)/(lam sqrt(n(n+1))).

    Matches the eigensolver oracle only for n3 >= -1; see
    distinct_branch_report for the measured domain of validity.
    """
    n = _halfint(n)
    n3 = _halfint(n3)
    rad = _nn1(n) - Fraction(n3.twice * n3.twice, 4) + Fraction(abs(n3.twice), 2)
    return math.sqrt(float(rad)) / (lam * math.sqrt(float(_nn1(n))))


def distinct_sector_seminorm_symmetrized(n, lam: float, n3) -> float:
    """Reflection-symmetric completion of the distinct-sector norm.

    sqrt(n(n+1) - min(n3(n3-1), n3(n3+1), (n3+1)(n3+2))) / (lam sqrt(n(n+1))).
    Agrees with the eigensolver oracle at every (n, n3) tested, including the
    n3 < -1 region where the literal form does not.
    """
    n = _halfint(n)
    n3 = _halfint(n3)
    one = HalfInteger(2)
    cands = (_nn1(n3 - one), _nn1(n3), _nn1(n3 + one))
    rad = _nn1(n) - min(cands)
    return math.sqrt(float(rad)) / (lam * math.sqrt(float(_nn1(n))))


def quantum_pure_distance(n, lam: float, n3, right_same: bool) -> float:
    """Closed-form value for the pure states |n3+1, r)(n3+1, r| and |n3, r')(n3, r'|.

    right_same selects the branch: r = r' gives the configuration-space Connes
    distance (compressing to sector r loses nothing); r != r' the lower-bound
    formula 2/seminorm with the literal radicand, not a Connes distance.
    """
    n, n3 = _step(n, n3)
    nn1 = float(_nn1(n))
    if right_same:
        rad = float(_nn1(n) - _nn1(n3))
        return lam * math.sqrt(nn1) / math.sqrt(rad)
    rad = float(_nn1(n) - Fraction(n3.twice * n3.twice, 4) + Fraction(abs(n3.twice), 2))
    return 2.0 * lam * math.sqrt(nn1) / math.sqrt(rad)


def quantum_pure_distance_symmetrized(n, lam: float, n3) -> float:
    """Distinct-sector lower-bound formula 2/seminorm, symmetrized; not a Connes distance."""
    n, n3 = _step(n, n3)
    return 2.0 / distinct_sector_seminorm_symmetrized(n, lam, n3)


def quantum_seminorm_oracle(n, lam: float, n3, n3p, l3p) -> float:
    """Eigensolver norm of [D, pi(drho_q)] for the explicit displacement.

    drho_q = |n3+1, l3p)(n3+1, l3p| - |n3, n3p)(n3, n3p|, no closed forms
    involved anywhere: the top singular value over its right-sector blocks.
    """
    n, n3 = _step(n, n3)
    sphere = FuzzySphere(n, lam)
    e = np.eye(sphere.dim)
    _, blocks = _step_blocks(sphere, n3, e[sphere.index_of(l3p)], e[sphere.index_of(n3p)])
    return float(np.linalg.svd(blocks, compute_uv=False).max())


def _step_blocks(sphere: FuzzySphere, n3: HalfInteger, pu: np.ndarray, pd: np.ndarray):
    """Weights w and right-sector blocks of [D_q, pi(drho)] for one step n3 -> n3+1.

    drho = sum_l pu[l] |n3+1, l)(n3+1, l| - pd[l] |n3, l)(n3, l| = sum w[i, j] |i, j)(i, j|.
    Right sector j contributes the block [D_c, pi_c(diag w[:, j])]; the zero
    ones are skipped. Its entry (r, c) is D_c[r, c] (v[c] - v[r]) with
    v = (w[:, j], w[:, j]), so the stack is one broadcast product with D_c.
    """
    w = np.zeros((sphere.dim, sphere.dim))
    w[sphere.index_of(n3 + HalfInteger(2))] = pu
    w[sphere.index_of(n3)] = -pd
    v = np.tile(w[:, np.any(w != 0.0, axis=0)].T, 2)
    return w, build_dirac(sphere, "config", 0).dirac * (v[:, None, :] - v[:, :, None])


def distinct_branch_report(n, lam: float = 1.0, tol: float = 1e-10) -> List[dict]:
    """Measured comparison of the distinct-sector closed form with the oracle.

    One entry per n3; literal_matches goes False exactly on n3 <= -3/2 where
    the literal radicand disagrees, while the symmetrized form tracks the
    oracle everywhere.
    """
    n = _halfint(n)
    out = []
    for t in range(-n.twice, n.twice - 1, 2):
        n3 = HalfInteger(t)
        # any right-sector pair with l3p != n3p exercises the distinct branch;
        # use (n3p, l3p) = (n3, n3+1) which exists for every valid step
        oracle = quantum_seminorm_oracle(n, lam, n3, n3, n3 + HalfInteger(2))
        lit = distinct_sector_seminorm_literal(n, lam, n3)
        sym = distinct_sector_seminorm_symmetrized(n, lam, n3)
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

class ProbabilityProfile:
    """P_{l3}(n3): one probability vector per left-sector label n3.

    Vectors run over l3 descending from +n to -n, matching the row order of
    every other basis in the package. Each vector is nonnegative and sums
    to one.
    """

    def __init__(self, n, rows: Dict[int, np.ndarray]):
        self.n = _halfint(n)
        m = self.n.twice + 1
        self.rows = {}
        for t, vec in rows.items():
            v = np.asarray(vec, dtype=float)
            if v.shape != (m,):
                raise SphereDomainError("profile row at n3 = %s has %d entries, need %d"
                                        % (HalfInteger(t), v.size, m))
            if v.min() < -1e-12:
                raise SphereDomainError("negative probability at n3 = %s" % HalfInteger(t))
            s = v.sum()
            if abs(s - 1.0) > 1e-9:
                raise SphereDomainError("probabilities at n3 = %s sum to %.12g, not 1"
                                        % (HalfInteger(t), s))
            self.rows[t] = np.clip(v, 0.0, None) / s

    @classmethod
    def uniform(cls, n, n3_values=None) -> "ProbabilityProfile":
        n = _halfint(n)
        m = n.twice + 1
        if n3_values is None:
            ts = range(-n.twice, n.twice + 1, 2)
        else:
            ts = [_halfint(v).twice for v in n3_values]
        return cls(n, {t: np.full(m, 1.0 / m) for t in ts})

    @classmethod
    def delta(cls, n, peak_l3, n3_values=None) -> "ProbabilityProfile":
        n = _halfint(n)
        m = n.twice + 1
        peak = _halfint(peak_l3)
        idx = (n.twice - peak.twice) // 2
        if idx < 0 or idx >= m:
            raise SphereDomainError("peak l3 = %s out of range" % peak)
        row = np.zeros(m)
        row[idx] = 1.0
        if n3_values is None:
            ts = range(-n.twice, n.twice + 1, 2)
        else:
            ts = [_halfint(v).twice for v in n3_values]
        return cls(n, {t: row.copy() for t in ts})

    @classmethod
    def from_text(cls, text: str, n) -> "ProbabilityProfile":
        """Parse the plain-text table: one row per n3, descending from +n.

        Whitespace-separated reals, 2n+1 per row, 2n+1 rows; blank lines and
        '#' comments are skipped. Errors carry 1-based line numbers.
        """
        n = _halfint(n)
        m = n.twice + 1
        vectors = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                vals = [float(tok) for tok in line.split()]
            except ValueError as exc:
                raise SphereDomainError("line %d: %s" % (lineno, exc)) from None
            if len(vals) != m:
                raise SphereDomainError("line %d: expected %d entries, got %d"
                                        % (lineno, m, len(vals)))
            vectors.append((lineno, np.array(vals)))
        if len(vectors) != m:
            raise SphereDomainError("expected %d profile rows, got %d" % (m, len(vectors)))
        rows = {}
        for (lineno, vec), t in zip(vectors, range(n.twice, -n.twice - 1, -2)):
            if vec.min() < 0:
                raise SphereDomainError("line %d: negative probability" % lineno)
            if abs(vec.sum() - 1.0) > 1e-9:
                raise SphereDomainError("line %d: row sums to %.12g, not 1" % (lineno, vec.sum()))
            rows[t] = vec
        return cls(n, rows)

    def at(self, n3) -> np.ndarray:
        t = _halfint(n3).twice
        if t not in self.rows:
            raise SphereDomainError("profile has no row at n3 = %s" % HalfInteger(t))
        return self.rows[t]

    def has(self, n3) -> bool:
        return _halfint(n3).twice in self.rows


def mixed_state(sphere: FuzzySphere, n3, profile: ProbabilityProfile) -> QuantumState:
    """rho_q(n3) = sum_l3 P_{l3}(n3) |n3, l3)(n3, l3|."""
    probs = profile.at(n3)
    m = np.zeros((sphere.dim ** 2, sphere.dim ** 2), dtype=complex)
    for idx, l3 in enumerate(sphere.n3_values()):
        if probs[idx] != 0.0:
            m += probs[idx] * quantum_projector(sphere, n3, l3)
    return QuantumState(sphere, m)


# ---------------------------------------------------------------------------
# mixed-state distance functional

def _step_coefficients(n: HalfInteger, n3: HalfInteger):
    """(cu, cd, cx) of S = cu |pu|^2 + cd |pd|^2 + cx pu.pd for the step n3 -> n3+1."""
    nn1 = _nn1(n)
    up = n3 + HalfInteger(2)
    cu = float(nn1 - Fraction(up.twice ** 2, 4))      # n(n+1) - (n3+1)^2
    cd = float(nn1 - Fraction(n3.twice ** 2, 4))      # n(n+1) - n3^2
    cx = float(nn1 - _nn1(n3))                        # n(n+1) - n3(n3+1)
    return cu, cd, cx


def _step_quadratics(n: HalfInteger, n3: HalfInteger, pu: np.ndarray, pd: np.ndarray):
    """(Num, S) for one step n3 -> n3+1 with upper/lower probability rows."""
    cu, cd, cx = _step_coefficients(n, n3)
    num = float(np.dot(pu, pu) + np.dot(pd, pd))
    s = float(np.dot(pu, pu) * cu + np.dot(pd, pd) * cd + np.dot(pu, pd) * cx)
    return num, s


def trace_norm_distance(n, lam: float, n3, profile: ProbabilityProfile) -> float:
    """Mixed-state distance for the step n3 -> n3+1.

    Numerator sum_l [P_l(n3+1)^2 + P_l(n3)^2]; denominator the closed-form
    commutator norm with prefactor 2/(lam sqrt(n(n+1))). Equals
    (lam sqrt(n(n+1))/2) Num/sqrt(S).
    """
    n, n3 = _step(n, n3)
    pu = profile.at(n3 + HalfInteger(2))
    pd = profile.at(n3)
    num, s = _step_quadratics(n, n3, pu, pd)
    if s <= 0:
        raise SphereDomainError("degenerate profile at n3 = %s (zero quadratic form)" % n3)
    nn1 = float(_nn1(n))
    return (lam * math.sqrt(nn1) / 2.0) * num / math.sqrt(s)


def mixed_commutator_norms(n, lam: float, n3, profile: ProbabilityProfile) -> dict:
    """Norms of the explicit [D, pi(drho_q)] plus the closed-form display value.

    The display (prefactor 2/(lam r) times sqrt(S)) coincides with the
    Frobenius norm of the commutator; the nuclear norm is profile-independent
    and differs, so it cannot be the norm the display means. The commutator
    norms come from one SVD of the stacked right-sector blocks. Returned keys:
    display, frobenius, nuclear, operator, numerator, numerator_closed.
    """
    n, n3 = _step(n, n3)
    pu = profile.at(n3 + HalfInteger(2))
    pd = profile.at(n3)
    w, blocks = _step_blocks(FuzzySphere(n, lam), n3, pu, pd)
    sv = np.linalg.svd(blocks, compute_uv=False)
    num, s = _step_quadratics(n, n3, pu, pd)
    nn1 = float(_nn1(n))
    return {
        "display": 2.0 / (lam * math.sqrt(nn1)) * math.sqrt(s),
        "frobenius": float(np.sqrt(np.sum(sv * sv))),
        "nuclear": float(sv.sum()),
        "operator": float(sv.max()),
        "numerator": float(np.sum(w * w)),
        "numerator_closed": num,
    }


def mixed_distance_oracle(n, lam: float, n3, profile: ProbabilityProfile) -> float:
    """Distance recomputed from the explicit commutator, no closed forms and no SVD."""
    n, n3 = _step(n, n3)
    w, blocks = _step_blocks(FuzzySphere(n, lam), n3, profile.at(n3 + HalfInteger(2)),
                             profile.at(n3))
    return float(np.sum(w * w)) / float(np.linalg.norm(blocks))


# ---------------------------------------------------------------------------
# stationarity certificate for the minimizing profile

@dataclass
class MinimizationCertificate:
    delta: np.ndarray          # symmetric tridiagonal, rows n3 descending n_f..n_i
    alpha: np.ndarray          # least-squares multipliers, one per row
    residual: float            # max over l3 of ||delta P_l3 - 2 alpha||_inf
    row_labels: list           # HalfInteger n3 per row


def delta_matrix(n, lam: float, profile: ProbabilityProfile, n_i, n_f) -> MinimizationCertificate:
    """Stationarity matrix for the path distance from n_i to n_f.

    Diagonal a(n3) and couplings b(n3) are assembled from the per-step
    quadratics; the stationarity condition for a minimizing profile is
    delta P_{l3} = 2 alpha with alpha independent of l3. The residual
    reports how far the given profile is from satisfying it.
    """
    n = _halfint(n)
    n_i = _halfint(n_i)
    n_f = _halfint(n_f)
    if not (-n.twice <= n_i.twice < n_f.twice <= n.twice):
        raise SphereDomainError("need -n <= n_i < n_f <= n")
    if (n_f.twice - n_i.twice) % 2 != 0:
        raise SphereDomainError("n_f - n_i must be an integer number of unit steps")
    npts = (n_f.twice - n_i.twice) // 2 + 1
    m = n.twice + 1
    nn1 = _nn1(n)
    lr = lam * math.sqrt(float(nn1))

    # per-step f and g, keyed by the lower label (twice value)
    fs, gs = {}, {}
    for t in range(n_i.twice, n_f.twice, 2):
        n3 = HalfInteger(t)
        pu = profile.at(HalfInteger(t + 2))
        pd = profile.at(n3)
        num, s = _step_quadratics(n, n3, pu, pd)
        if s <= 0:
            raise SphereDomainError("degenerate profile at n3 = %s (zero quadratic form)" % n3)
        gs[t] = 1.0 / math.sqrt(s)
        fs[t] = (num / 2.0) / s ** 1.5

    def f_at(t):
        return fs.get(t, 0.0)

    def g_at(t):
        return gs.get(t, 0.0)

    labels = [HalfInteger(n_f.twice - 2 * r) for r in range(npts)]
    D = np.zeros((npts, npts))
    for r, n3 in enumerate(labels):
        t = n3.twice
        c0 = float(nn1 - Fraction(t * t, 4))          # n(n+1) - n3^2
        D[r, r] = lr * (g_at(t) + g_at(t - 2) - c0 * (f_at(t) + f_at(t - 2)))
        if t < n_f.twice:
            # coupling for the step n3 -> n3+1 sits above this row
            cx = float(nn1 - _nn1(n3))
            b = -lr * cx * f_at(t)
            D[r, r - 1] = b
            D[r - 1, r] = b
    # P_l3 vectors over the path rows, one per l3
    P = np.zeros((npts, m))
    for r, n3 in enumerate(labels):
        P[r, :] = profile.at(n3)
    prod = D @ P                       # column l3 holds delta P_l3
    alpha = prod.mean(axis=1) / 2.0    # least-squares alpha is the l3 average
    residual = float(np.abs(prod - 2.0 * alpha[:, None]).max())
    return MinimizationCertificate(D, alpha, residual, labels)


# ---------------------------------------------------------------------------
# path-distance minimization over profiles

def path_distance(n, lam: float, profile: ProbabilityProfile, n_i, n_f) -> float:
    """Sum of per-step distances along n_i -> n_f."""
    n = _halfint(n)
    n_i = _halfint(n_i)
    n_f = _halfint(n_f)
    total = 0.0
    for t in range(n_i.twice, n_f.twice, 2):
        total += trace_norm_distance(n, lam, HalfInteger(t), profile)
    return total


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.clip(v + theta, 0.0, None)


def minimize_path_distance(n, lam: float, n_i, n_f, starts: int = 20, seed: int = 42,
                           max_iters: int = 2000) -> dict:
    """Minimize the path distance over profiles on the product of simplices.

    Projected gradient descent with Armijo backtracking on the analytic
    gradient _raw_path_grad. Returns {"profile", "distance", "iterations"}
    for the best start. The minimizer found is the uniform profile.
    """
    n = _halfint(n)
    n_i = _halfint(n_i)
    n_f = _halfint(n_f)
    if not n_i < n_f:
        raise SphereDomainError("need n_i < n_f")
    npts = (n_f.twice - n_i.twice) // 2 + 1
    m = n.twice + 1
    labels = [n_i.twice + 2 * r for r in range(npts)]

    rng = np.random.default_rng(seed)
    inits = [np.full((npts, m), 1.0 / m)]
    for _ in range(max(0, starts - 1)):
        inits.append(np.vstack([rng.dirichlet(np.ones(m)) for _ in range(npts)]))

    best = None
    for x in inits:
        fx = _raw_path(n, lam, x, labels)
        t = 1.0
        iters = 0
        converged = False
        for iters in range(1, max_iters + 1):
            g = _raw_path_grad(n, lam, x, labels)
            moved = False
            for _bt in range(40):
                cand = np.vstack([_project_simplex(x[r] - t * g[r]) for r in range(npts)])
                fc = _raw_path(n, lam, cand, labels)
                gap = x - cand
                if fc <= fx - 1e-4 * float(np.sum(gap * gap)) / max(t, 1e-16):
                    step_inf = float(np.abs(gap).max())
                    x, fx = cand, fc
                    t *= 1.5
                    moved = True
                    break
                t *= 0.5
            if not moved or step_inf < 1e-12:
                converged = True
                break
        if best is None or fx < best[0]:
            best = (fx, x, iters, converged)

    fx, x, iters, converged = best
    if not converged:
        raise MinimizationError("descent did not converge in %d iterations" % max_iters,
                                best={"distance": fx, "profile_rows": x})
    profile = ProbabilityProfile(n, {t: x[r] for r, t in enumerate(labels)})
    return {"profile": profile, "distance": fx, "iterations": iters}


def _raw_path(n, lam, x, labels) -> float:
    """Path distance for raw (unvalidated) probability rows."""
    total = 0.0
    for r in range(len(labels) - 1):
        n3 = HalfInteger(labels[r])
        num, s = _step_quadratics(n, n3, x[r + 1], x[r])
        if s <= 0:
            return np.inf
        total += (lam * math.sqrt(float(_nn1(n))) / 2.0) * num / math.sqrt(s)
    return total


def _raw_path_grad(n, lam, x, labels) -> np.ndarray:
    """Gradient of _raw_path: each step adds d = c Num/sqrt(S) with c = lam r/2, so
    dd/dp = c (2p/sqrt(S) - Num (dS/dp)/(2 S^{3/2})) for its two rows p = pu, pd."""
    c = lam * math.sqrt(float(_nn1(n))) / 2.0
    g = np.zeros_like(x)
    for r in range(len(labels) - 1):
        n3, pu, pd = HalfInteger(labels[r]), x[r + 1], x[r]
        cu, cd, cx = _step_coefficients(n, n3)
        num, s = _step_quadratics(n, n3, pu, pd)
        k = c / math.sqrt(s)
        h = c * num / (2.0 * s ** 1.5)
        g[r + 1] += 2.0 * k * pu - h * (2.0 * cu * pu + cx * pd)
        g[r] += 2.0 * k * pd - h * (2.0 * cd * pd + cx * pu)
    return g


def uniform_minimized_distance(n, lam: float, n3) -> float:
    """Per-step distance with the uniform profile P = 1/(2n+1):

    (1/sqrt(2n+1)) lam sqrt(n(n+1)) / sqrt(3[n(n+1) - n3(n3+1) - 1/3]).
    """
    n, n3 = _step(n, n3)
    nn1 = _nn1(n)
    rad = 3 * (nn1 - _nn1(n3)) - 1   # 3[n(n+1) - n3(n3+1) - 1/3], exact
    if rad <= 0:
        raise SphereDomainError("degenerate radicand at n3 = %s" % n3)
    m = n.twice + 1
    return (lam * math.sqrt(float(nn1))) / (math.sqrt(m) * math.sqrt(float(rad)))


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
        n = _halfint(n)
        return cls(np.array([lam * (n.twice - 2 * i) / 2.0 for i in range(n.twice + 1)]))

    @classmethod
    def from_text(cls, text: str) -> "EnergySpectrum":
        rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append((lineno, [float(tok) for tok in line.split()]))
            except ValueError as exc:
                raise SphereDomainError("line %d: %s" % (lineno, exc)) from None
        if len(rows) != 1:
            raise SphereDomainError("spectrum file must contain exactly one data row, got %d"
                                    % len(rows))
        return cls(np.array(rows[0][1]))


def partition_function(spectrum: EnergySpectrum, beta: float) -> float:
    """Z(beta) = sum exp(-beta E). Plain evaluation; fine for moderate beta*E."""
    return float(np.exp(-beta * spectrum.levels).sum())


def thermal_profile(spectrum: EnergySpectrum, beta: float) -> np.ndarray:
    """Boltzmann weights exp(-beta E)/Z, computed with a max shift so large
    beta*E never overflows."""
    if not (beta >= 0 and np.isfinite(beta)):
        raise SphereDomainError("beta must be finite and >= 0")
    w = np.exp(-beta * (spectrum.levels - spectrum.levels.min()))
    return w / w.sum()


def thermal_prefactor(spectrum: EnergySpectrum, beta: float) -> float:
    """sqrt(Z(2 beta))/Z(beta), shift-normalized. Lives in [1/sqrt(M), 1]."""
    if not (beta >= 0 and np.isfinite(beta)):
        raise SphereDomainError("beta must be finite and >= 0")
    e = spectrum.levels - spectrum.levels.min()
    w1 = np.exp(-beta * e).sum()
    w2 = np.exp(-2.0 * beta * e).sum()
    return float(math.sqrt(w2) / w1)


def thermal_distance(n, lam: float, n3, spectrum: EnergySpectrum, beta: float) -> float:
    """Per-step distance with the thermal profile (same temperature at all n3):

    sqrt(Z(2 beta))/Z(beta) * lam sqrt(n(n+1)) / sqrt(3[n(n+1) - n3(n3+1) - 1/3]).

    Identical to trace_norm_distance evaluated on the thermal profile.
    """
    n, n3 = _step(n, n3)
    if spectrum.levels.size != n.twice + 1:
        raise SphereDomainError("spectrum has %d levels, sphere needs %d"
                                % (spectrum.levels.size, n.twice + 1))
    nn1 = _nn1(n)
    rad = 3 * (nn1 - _nn1(n3)) - 1
    return thermal_prefactor(spectrum, beta) * lam * math.sqrt(float(nn1)) / math.sqrt(float(rad))
