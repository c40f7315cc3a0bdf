"""Named validation checks aggregating every module's invariants.

Each check is a pure function of the seed returning (passed, max_deviation,
note); its name is stated once, in @_check, and run_checks wraps the result
in a CheckResult. The CLI `validate` command runs the registry in a fixed
order and fails on the first regression. Checks that exist to surface a
measured discrepancy (branch validity domains, norm identification,
connection normalization) pass when the measurement matches the documented
finding and fail if the code ever drifts from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coherent, continuum, distance, quantum, sphere, triple
from .halfint import HalfInteger

_REGISTRY = []


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    note: str


def _check(name):
    def wrap(fn):
        _REGISTRY.append((name, fn))
        return fn
    return wrap


def check_names():
    return [name for name, _ in _REGISTRY]


def run_checks(names=None, seed: int = 42):
    """Run the named checks in registry order; names=None runs them all, [] none."""
    wanted = None if names is None else set(names)
    out = []
    for name, fn in _REGISTRY:
        if wanted is not None and name not in wanted:
            continue
        out.append(CheckResult(name, *fn(seed)))
    if wanted:
        missing = wanted - {r.name for r in out}
        if missing:
            raise sphere.SphereDomainError("unknown checks: %s" % ", ".join(sorted(missing)))
    return out


def _worst(*values, pick=max):
    """pick(values), or nan if any value is nan: max and min drop a nan that is not first."""
    return math.nan if any(map(math.isnan, values)) else pick(values)


# ---------------------------------------------------------------------------
# configuration space

@_check("sphere-algebra")
def _sphere_algebra(seed):
    worst = 0.0
    for t in range(1, 26):  # n = 1/2 .. 25/2
        for lam in (1.0, 2.0) if t in (2, 7) else (1.0,):
            s = sphere.build_space(HalfInteger(t), lam)
            lam2 = lam * lam
            xs = (s.x1, s.x2, s.x3)
            for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                dev = np.abs(xs[i] @ xs[j] - xs[j] @ xs[i] - 1j * lam * xs[k]).max() / lam2
                worst = _worst(worst, float(dev))
            cas = xs[0] @ xs[0] + xs[1] @ xs[1] + xs[2] @ xs[2]
            dev = np.abs(cas - lam2 * s.casimir * np.eye(s.dim)).max() / (lam2 * s.casimir)
            worst = _worst(worst, float(dev))
            # ladder annihilation at the poles is exact
            worst = _worst(worst, float(np.abs(s.xplus[:, 0]).max()),
                           float(np.abs(s.xminus[:, -1]).max()))
    return worst <= 1e-12, worst, "su(2) closure, Casimir, pole annihilation for n <= 25/2"


@_check("sphere-winding")
def _sphere_winding(seed):
    worst = 0.0
    for t in (1, 2, 3, 4):
        n = HalfInteger(t)
        cutoff = t + 2
        fock = sphere.TwoModeFock(cutoff, 1.0)
        s = sphere.build_space(n, 1.0)
        interior = fock.interior_indices()
        # every matrix unit of the algebra has winding 0
        for a in range(s.dim):
            for b in range(s.dim):
                op = np.zeros((s.dim, s.dim), dtype=complex)
                op[a, b] = 1.0
                emb = fock.embed_sphere_operator(s, op)
                comm = sphere.k_adjoint_action(cutoff, emb, 1.0)
                worst = _worst(worst, float(np.abs(comm[np.ix_(interior, interior)]).max()))
        # a single creation operator has winding 1: [N, chi1dag] = (lam/2) chi1dag
        chi1dag = fock.chi1.conj().T
        comm = sphere.k_adjoint_action(cutoff, chi1dag, 1.0)
        dev = np.abs((comm - 0.5 * chi1dag)[np.ix_(interior, interior)]).max()
        worst = _worst(worst, float(dev))
    mono = sphere.winding_number(sphere.FockMonomial(2, 1, 0, 0))
    passed = worst <= 1e-12 and mono == 3
    return (passed, worst,
            "interior [N, op] vanishes for algebra elements, (lam/2)-shifts monomials")


@_check("jordan-schwinger")
def _jordan_schwinger(seed):
    worst = 0.0
    for t, lam in ((1, 1.0), (2, 1.0), (3, 0.7), (4, 0.5)):
        rep = sphere.jordan_schwinger_check(HalfInteger(t), lam, cutoff=10)
        worst = _worst(worst, rep["max_deviation"] / lam)
        if rep["block_dim"] != t + 1:
            return False, worst, "wrong block dimension"
    return (worst <= 1e-12, worst,
            "oscillator bilinears reproduce the direct matrices, n <= 2, cutoff 10")


# ---------------------------------------------------------------------------
# spectral triple and configuration distances

@_check("dirac-spectrum")
def _dirac_spectrum(seed):
    worst = 0.0
    for t in (1, 2, 3, 4, 6):
        s = sphere.build_space(HalfInteger(t), 1.0)
        tr = triple.build_dirac(s, "config")
        vals = np.linalg.eigvalsh(tr.dirac)
        (pos, mpos), (neg, mneg) = triple.dirac_eigenvalue_pattern(HalfInteger(t), 1.0)
        expect = np.sort(np.concatenate([np.full(mpos, pos), np.full(mneg, neg)]))
        worst = _worst(worst, float(np.abs(vals - expect).max()))
    return worst <= 1e-10, worst, "k=0 spectrum is (1/r){n, -(n+1)} with multiplicities 2n+2, 2n"


@_check("distance-closed-vs-pipeline")
def _distance_pipeline(seed):
    worst = 0.0
    pairs = 0
    for t in range(1, 17):  # n = 1/2 .. 8
        n = HalfInteger(t)
        s = sphere.build_space(n, 1.0)
        tr = triple.build_dirac(s, "config")
        for n3 in sphere._steps(n):
            closed = distance.adjacent_distance_closed_form(n, n3, 1.0)
            lb = distance.distance_lower_bound(
                tr, sphere.pure_state(s, n3), sphere.pure_state(s, n3 + HalfInteger(2)))
            worst = _worst(worst, abs(lb.value - closed) / closed)
            pairs += 1
    return (worst <= 1e-10, worst,
            "closed form vs norm pipeline, %d adjacent pairs, n <= 8" % pairs)


@_check("distance-symmetries")
def _distance_symmetries(seed):
    worst = 0.0
    for (t, t3) in ((2, 0), (3, -1), (5, 3), (8, -4)):
        n, n3 = HalfInteger(t), HalfInteger(t3)
        d1 = distance.adjacent_distance_closed_form(n, n3, 1.0)
        d2 = distance.adjacent_distance_closed_form(n, n3, 2.0)
        worst = _worst(worst, abs(d2 - 2.0 * d1) / d2)
        refl = distance.adjacent_distance_closed_form(n, -n3 - HalfInteger(2), 1.0)
        worst = _worst(worst, abs(refl - d1) / d1)
        s = sphere.build_space(n, 1.0)
        tr = triple.build_dirac(s, "config")
        lb1 = distance.distance_lower_bound(
            tr, sphere.pure_state(s, n3), sphere.pure_state(s, n3 + HalfInteger(2)))
        s2 = sphere.build_space(n, 2.0)
        tr2 = triple.build_dirac(s2, "config")
        lb2 = distance.distance_lower_bound(
            tr2, sphere.pure_state(s2, n3), sphere.pure_state(s2, n3 + HalfInteger(2)))
        worst = _worst(worst, abs(lb2.value - 2.0 * lb1.value) / lb2.value)
    return worst <= 1e-10, worst, "lambda linearity and n3 reflection, closed form and pipeline"


@_check("distance-optimizer")
def _distance_optimizer(seed):
    worst_gap = 0.0
    worst_ball = 0.0
    spin_half_value = None
    for t in (1, 2, 3):
        n = HalfInteger(t)
        s = sphere.build_space(n, 1.0)
        tr = triple.build_dirac(s, "config")
        for n3 in sphere._steps(n):
            rho = sphere.pure_state(s, n3)
            rho2 = sphere.pure_state(s, n3 + HalfInteger(2))
            lb = distance.distance_lower_bound(tr, rho, rho2)
            opt = distance.connes_distance_optimized(tr, rho, rho2, seed=seed)
            if opt.method != "diagonal_exact" or abs(opt.value - lb.value) > 1e-12 * lb.value:
                return (False, abs(opt.value - lb.value),
                        "exact route missed the lower bound at n=%s n3=%s" % (n, n3))
            worst_gap = _worst(worst_gap, abs(opt.value - lb.value))
            worst_ball = _worst(worst_ball, opt.ball_residual)
            if t == 1:
                spin_half_value = opt.value
    target = math.sqrt(3.0) / 2.0
    passed = (worst_ball <= 1e-12 and spin_half_value is not None
              and abs(spin_half_value - target) <= 1e-6)
    return (passed, worst_gap,
            "supremum matches lower bound, ball residual %.1e; spin-1/2 value %.9f"
            % (worst_ball, spin_half_value))


# ---------------------------------------------------------------------------
# coherent states

@_check("coherent-overlap")
def _coherent_overlap(seed):
    worst = 0.0
    grid = np.linspace(-1.0, 1.0, 5)
    for t in (1, 2, 3, 4):
        s = sphere.build_space(HalfInteger(t), 1.0)
        for re in grid:
            for im in grid:
                z = complex(re, im)
                st = coherent.coherent_state(s, z)
                expect = (1.0 + abs(z) ** 2) ** (-t)  # (1+|z|^2)^(-2n)
                worst = _worst(worst, abs(st.overlap_with_top() - expect))
    return worst <= 1e-10, worst, "|<n,n|z>|^2 = (1+|z|^2)^(-2n) on a 5x5 grid, n <= 2"


@_check("coherent-block-norm")
def _coherent_block_norm(seed):
    worst = 0.0
    for t in (1, 2, 4, 6):
        s = sphere.build_space(HalfInteger(t), 1.0)
        dz = 1e-4
        drho = coherent.coherent_drho(s, dz)
        got = coherent.ladder_commutator_norm(s, drho)
        nf = t / 2.0
        expect = math.sqrt(4.0 * nf * (3.0 * nf - 1.0)) * dz
        worst = _worst(worst, abs(got - expect) / expect)
    return worst <= 1e-10, worst, "ladder commutator norm sqrt(4n(3n-1))|dz| at the north pole"


@_check("coherent-distance")
def _coherent_distance(seed):
    worst = 0.0
    for t in (1, 2, 4):
        n = HalfInteger(t)
        for z in (0j, 0.5 + 0j, 0.3 + 0.4j):
            num = coherent.coherent_distance_numeric(n, 1.0, 1e-4, z)
            expect = coherent.coherent_metric_coefficient(n, 1.0, z) * 1e-4
            worst = _worst(worst, abs(num - expect) / expect)
    # projector finite differences carry a real discretization bias:
    # linear in |dz| at n = 1/2, quadratic for n >= 1
    fd_half = coherent.coherent_distance_fd(HalfInteger(1), 1.0, 1e-4) / 1e-4
    c_half = coherent.coherent_metric_coefficient(HalfInteger(1), 1.0, 0j)
    fd_bias = abs(fd_half - c_half) / c_half
    rich = coherent.richardson_distance_coefficient(HalfInteger(1), 1.0)
    rich_dev = abs(rich - c_half) / c_half
    passed = worst <= 1e-4 and fd_bias <= 2e-4 and rich_dev <= 1e-6
    return (passed, worst,
            "numeric route exact; raw FD bias %.2e, Richardson %.2e" % (fd_bias, rich_dev))


@_check("coherent-sup-gap")
def _coherent_sup_gap(seed):
    # the closed form divides by the ladder commutator norm, the Connes
    # distance takes a supremum over the full Lipschitz ball; the two
    # functionals coincide only at n = 1. At n = 3/2 the certified interval
    # must meet [1.2342597834, 1.2342597838]: a constant that two log-barrier
    # solvers outside this package certified. Neither solver is in the
    # repository, so the constant cannot be regenerated from it; inside the
    # package the interval is checked only by its own dual bound
    lo, hi = {}, {}
    for t in (1, 2, 3):
        rep = coherent.coherent_route_report(HalfInteger(t), 1.0)
        lo[t], hi[t] = rep["sup_to_closed_ratio"], rep["sup_upper_to_closed_ratio"]
    dev_half = abs(lo[1] - 0.5)
    dev_one = _worst(abs(lo[2] - 1.0), abs(hi[2] - 1.0))
    width = (hi[3] - lo[3]) / lo[3]
    passed = (dev_half <= 1e-5 and dev_one <= 1e-5 and width <= 1e-8
              and lo[3] <= 1.2342597838 and hi[3] >= 1.2342597834)
    return (passed, _worst(dev_half, dev_one),
            "sup/closed = %.6f at n = 1/2, in [%.10f, %.10f] at n = 1, [%.10f, %.10f] at n = 3/2"
            % (lo[1], lo[2], hi[2], lo[3], hi[3]))


@_check("coherent-resolution-identity")
def _coherent_resolution(seed):
    res = coherent.resolution_of_identity_residual(HalfInteger(2), grid=200)
    return res <= 1e-3, res, "completeness integral on a 200x200 grid at n=1"


@_check("coherent-large-n-scaling")
def _coherent_large_n(seed):
    # the asymptote is approached like 2/(3n): still 1.33e-2 at n = 50,
    # first below 1e-2 at n = 67
    dev50 = coherent.large_n_scaling_deviation(HalfInteger(100))
    dev67 = coherent.large_n_scaling_deviation(HalfInteger(134))
    law = 0.0
    for t in (100, 200, 400):
        nf = t / 2.0
        dev = coherent.large_n_scaling_deviation(HalfInteger(t))
        law = _worst(law, abs(dev * 3.0 * nf / 2.0 - 1.0))
    passed = dev50 > 1e-2 and dev67 < 1e-2 and law < 0.02
    return (passed, dev50,
            "deviation 2/(3n): %.4f%% at n=50, %.4f%% at n=67" % (100 * dev50, 100 * dev67))


# ---------------------------------------------------------------------------
# quantum space

@_check("quantum-same-branch")
def _quantum_same_branch(seed):
    worst = 0.0
    for t in (1, 2, 3, 5, 8):  # n up to 4
        n = HalfInteger(t)
        for n3 in sphere._steps(n):
            r3 = min(n3 + HalfInteger(2), n)  # any shared right sector
            oracle = quantum.quantum_seminorm_oracle(n, 1.0, n3, r3, r3)
            closed = quantum.same_sector_seminorm(n, 1.0, n3)
            worst = _worst(worst, abs(oracle - closed) / closed)
    return (worst <= 1e-10, worst,
            "shared right sector reproduces the configuration-space norm, n <= 4")


@_check("quantum-distinct-branch")
def _quantum_distinct_branch(seed):
    worst_sym = 0.0
    mismatch = []
    expected_mismatch = []
    for t in (1, 2, 3, 4, 5, 6, 8):
        n = HalfInteger(t)
        for row in quantum.distinct_branch_report(n):
            if not row["symmetrized_matches"]:
                return (False, abs(row["symmetrized"] - row["oracle"]),
                        "symmetrized form missed the oracle at n=%s n3=%s" % (n, row["n3"]))
            worst_sym = _worst(worst_sym, abs(row["symmetrized"] - row["oracle"]))
            n3 = HalfInteger.parse(row["n3"])
            if not row["literal_matches"]:
                mismatch.append((str(n), row["n3"]))
            if n3.twice <= -3:
                expected_mismatch.append((str(n), row["n3"]))
    passed = mismatch == expected_mismatch
    return (passed, worst_sym,
            "literal form valid for n3 >= -1 only (%d known exceptions below); "
            "symmetrized form exact everywhere" % len(mismatch))


@_check("quantum-monotonicity")
def _quantum_monotonicity(seed):
    worst = 0.0
    ok = True
    for t in range(1, 17):
        n = HalfInteger(t)
        for n3 in sphere._steps(n):
            same = quantum.quantum_pure_distance(n, 1.0, n3, True)
            lit = quantum.quantum_pure_distance(n, 1.0, n3, False)
            sym = quantum.quantum_pure_distance_symmetrized(n, 1.0, n3)
            ok = ok and (lit >= same - 1e-12) and (sym >= same - 1e-12)
            worst = _worst(worst, same - lit, same - sym)
    return (ok, _worst(worst, 0.0),
            "distinct-sector distance dominates the shared-sector one, n <= 8")


@_check("mixed-norm-identification")
def _mixed_norms(seed):
    worst = 0.0
    nuclear_gap = np.inf
    for t in (1, 2, 3):
        n = HalfInteger(t)
        m = t + 1
        profs = [quantum.ProbabilityProfile.uniform(n),
                 quantum.ProbabilityProfile.delta(n, HalfInteger(t))]
        raw = quantum._dirichlet_rows(seed, (m, m))
        profs.append(quantum.ProbabilityProfile(n, dict(zip(sphere._labels(n), raw))))
        for prof in profs:
            for n3 in sphere._steps(n):
                norms = quantum.mixed_commutator_norms(n, 1.0, n3, prof)
                worst = _worst(worst, abs(norms["display"] - norms["frobenius"])
                               / norms["frobenius"])
                nuclear_gap = _worst(nuclear_gap,
                                     abs(norms["nuclear"] - norms["display"]) / norms["display"],
                                     pick=min)
                d_closed = quantum.trace_norm_distance(n, 1.0, n3, prof)
                d_oracle = quantum.mixed_distance_oracle(n, 1.0, n3, prof)
                worst = _worst(worst, abs(d_closed - d_oracle) / d_oracle)
    passed = worst <= 1e-10 and nuclear_gap > 0.1
    return (passed, worst,
            "display equals the Frobenius norm of the commutator; "
            "nuclear norm differs by >= %.0f%% and is profile-independent"
            % (100 * nuclear_gap))


@_check("mixed-worked-values")
def _mixed_worked(seed):
    n = HalfInteger(2)
    delta = quantum.ProbabilityProfile.delta(n, HalfInteger(2))
    uni = quantum.ProbabilityProfile.uniform(n)
    v1 = quantum.trace_norm_distance(n, 1.0, HalfInteger(0), delta)
    v2 = quantum.trace_norm_distance(n, 1.0, HalfInteger(0), uni)
    dev = _worst(abs(v1 - math.sqrt(2.0 / 5.0)), abs(v2 - math.sqrt(2.0 / 15.0)))
    return dev <= 1e-12, dev, "delta profile 0.632456, uniform 0.365148 at n=1, n3=0"


@_check("stationarity-residual")
def _stationarity(seed):
    worst_uniform = 0.0
    for t in (2, 3, 4):
        n = HalfInteger(t)
        uni = quantum.ProbabilityProfile.uniform(n)
        cert = quantum.delta_matrix(n, 1.0, uni, HalfInteger(-t), HalfInteger(t))
        worst_uniform = _worst(worst_uniform, cert.residual)
    n = HalfInteger(2)
    labels = sphere._labels(n)
    raw = quantum._dirichlet_rows(seed, (3, 3))
    pert = quantum.ProbabilityProfile(n, dict(zip(labels, raw)))
    cert_p = quantum.delta_matrix(n, 1.0, pert, HalfInteger(-2), HalfInteger(2))
    # delta P is the path distance's gradient: along a random direction that keeps every row
    # on the simplex, it must match a central difference of path_distance
    gauss = sphere._random(seed).gauss
    g = np.array([gauss(0.0, 1.0) for _ in range(raw.size)]).reshape(raw.shape)
    e = raw * (g - (raw * g).sum(axis=1, keepdims=True))  # zero row sums, zero where P is

    def path(rows):
        prof = quantum.ProbabilityProfile(n, dict(zip(labels, rows)))
        return quantum.path_distance(n, 1.0, prof, HalfInteger(-2), HalfInteger(2))

    h = 1e-6
    fd = (path(raw + h * e) - path(raw - h * e)) / (2.0 * h)
    grad = float(np.sum((cert_p.delta @ raw) * e))  # delta's rows run n3 descending, as labels do
    grad_dev = abs(grad - fd) / max(abs(fd), 1.0)
    passed = worst_uniform <= 1e-10 and cert_p.residual > 1e-4 and grad_dev <= 1e-7
    return (passed, worst_uniform,
            "uniform profile stationary (residual %.1e); perturbed profile not (%.3f), "
            "its delta P the central-difference gradient within %.1e"
            % (worst_uniform, cert_p.residual, grad_dev))


@_check("minimizer-recovers-uniform")
def _minimizer(seed):
    res = quantum.minimize_path_distance(HalfInteger(2), 1.0, HalfInteger(-2), HalfInteger(2),
                                         starts=20, seed=seed)
    dev = _worst(*(float(np.abs(row - 1.0 / 3.0).max()) for row in res["profile"].rows.values()))
    expect = 2.0 * quantum.uniform_minimized_distance(HalfInteger(2), 1.0, HalfInteger(0))
    # the path -1 -> 1 has steps at n3 = -1 and n3 = 0, same radicand by symmetry
    gap = abs(res["distance"] - expect)
    half = quantum.minimize_path_distance(HalfInteger(1), 1.0, HalfInteger(-1), HalfInteger(1),
                                          starts=5, seed=seed)
    dev_half = float(np.abs(half["profile"].at(HalfInteger(-1)) - 0.5).max())
    passed = dev <= 1e-4 and gap <= 1e-8 and dev_half <= 1e-4
    return (passed, dev,
            "20-start descent lands on P = 1/(2n+1) (dev %.1e), distance gap %.1e" % (dev, gap))


@_check("uniform-closed-form")
def _uniform_closed(seed):
    worst = 0.0
    for t in (1, 2, 3, 4, 6):
        n = HalfInteger(t)
        uni = quantum.ProbabilityProfile.uniform(n)
        for n3 in sphere._steps(n):
            a = quantum.uniform_minimized_distance(n, 1.0, n3)
            b = quantum.trace_norm_distance(n, 1.0, n3, uni)
            worst = _worst(worst, abs(a - b) / b)
    return (worst <= 1e-10, worst,
            "uniform-profile closed form equals the distance functional, n <= 3")


@_check("thermal-prefactor")
def _thermal_prefactor(seed):
    spectra = [quantum.EnergySpectrum(np.array([0.0, 1.0])),
               quantum.EnergySpectrum(np.array([0.0, 1.0, 2.0])),
               quantum.EnergySpectrum.default(HalfInteger(2), 1.0)]
    betas = np.concatenate([[0.0], np.linspace(0.1, 5.0, 25)])
    worst = 0.0
    ok = True
    for sp in spectra:
        m = sp.levels.size
        prev = None
        for b in betas:
            pf = quantum.thermal_prefactor(sp, float(b))
            ok = ok and (1.0 / math.sqrt(m) - 1e-12 <= pf <= 1.0 + 1e-12)
            z1 = quantum.partition_function(sp, float(b))
            z2 = quantum.partition_function(sp, 2.0 * float(b))
            ok = ok and (z2 <= z1 * z1 + 1e-12)
            if prev is not None:
                # smaller temperature = larger beta must not shrink the prefactor
                ok = ok and (pf >= prev - 1e-12)
            prev = pf
    two_level = quantum.thermal_prefactor(quantum.EnergySpectrum(np.array([0.0, 1.0])),
                                          math.log(2.0))
    worst = abs(two_level - math.sqrt(1.25) / 1.5)
    passed = ok and worst <= 1e-12
    return passed, worst, "bounds [1/sqrt(M), 1], monotone in beta, ln2 example %.9f" % two_level


@_check("thermal-distance")
def _thermal_distance(seed):
    worst = 0.0
    for t in (2, 3):
        n = HalfInteger(t)
        sp = quantum.EnergySpectrum.default(n, 1.0)
        for b in (0.0, 0.3, 1.0, 2.5):
            prof = quantum.ProbabilityProfile(
                n, dict.fromkeys(sphere._labels(n), quantum.thermal_profile(sp, b)))
            for n3 in sphere._steps(n):
                a = quantum.thermal_distance(n, 1.0, n3, sp, b)
                c = quantum.trace_norm_distance(n, 1.0, n3, prof)
                worst = _worst(worst, abs(a - c) / c)
    u = quantum.uniform_minimized_distance(HalfInteger(2), 1.0, HalfInteger(0))
    t0 = quantum.thermal_distance(HalfInteger(2), 1.0, HalfInteger(0),
                                  quantum.EnergySpectrum.default(HalfInteger(2), 1.0), 0.0)
    worst = _worst(worst, abs(t0 - u))
    return (worst <= 1e-10, worst,
            "partition-function form equals the profile functional; beta=0 is uniform")


# ---------------------------------------------------------------------------
# continuum geometry

@_check("continuum-hopf")
def _continuum_hopf(seed):
    rng = sphere._random(seed)
    worst = 0.0
    for _ in range(100):
        p = continuum.EulerPoint(rng.uniform(0.5, 2.0), rng.uniform(0.05, math.pi - 0.05),
                                 rng.uniform(0, 2 * math.pi), rng.uniform(0, 4 * math.pi))
        worst = _worst(worst, continuum.hopf_deviation(p))
        chi = continuum.euler_to_spinor(p)
        worst = _worst(worst, abs(float(np.real(np.vdot(chi, chi))) - p.r))
    rep = continuum.spinor_convention_report(samples=20, seed=seed)
    passed = worst <= 1e-12 and rep["conjugated"] > 0.1
    return (passed, worst,
            "projection lands on spherical coordinates; conjugated phases would not "
            "(deviation %.2f)" % rep["conjugated"])


@_check("continuum-metric")
def _continuum_metric(seed):
    rng = sphere._random(seed)
    worst = 0.0
    for _ in range(100):
        th = rng.uniform(0.1, math.pi - 0.1)
        ph = rng.uniform(0, 2 * math.pi)
        ps = rng.uniform(0, 4 * math.pi)
        g = continuum.s3_metric_fd(th, ph, ps)
        worst = _worst(worst, float(np.abs(g - continuum.s3_metric(th)).max()))
        det = np.linalg.det(continuum.s3_metric(th))
        worst_det = abs(det - math.sin(th) ** 2 / 64.0)
        worst = _worst(worst, worst_det)
    return (worst <= 1e-8, worst,
            "finite-difference reconstruction of the round metric, 100 points")


@_check("continuum-killing")
def _continuum_killing(seed):
    rng = sphere._random(seed)
    worst = 0.0
    for _ in range(100):
        th = rng.uniform(0.1, math.pi - 0.1)
        ph = rng.uniform(0, 2 * math.pi)
        worst = _worst(worst, continuum.killing_orthonormality_deviation(th, ph))
        g = continuum.s3_metric(th)
        k = continuum.killing_fields(th, ph)[3]
        worst = _worst(worst, abs(complex(np.einsum("mn,m,n->", g, k, k.conj())) - 0.25))
    return worst <= 1e-12, worst, "g(J_i, J_j) = delta_ij/4 and g(K, K) = 1/4 at 100 points"


@_check("continuum-clifford")
def _continuum_clifford(seed):
    rng = sphere._random(seed)
    worst = 0.0
    for _ in range(100):
        th = rng.uniform(0.1, math.pi - 0.1)
        ph = rng.uniform(0, 2 * math.pi)
        devs = continuum.clifford_algebra_deviations(th, ph)
        worst = _worst(worst, *devs.values())
    return (worst <= 1e-12, worst,
            "hermiticity, anticommutation, squares (csc^2 sits with sigma^theta)")


@_check("continuum-monopole")
def _continuum_monopole(seed):
    rng = sphere._random(seed)
    worst = 0.0
    for k in range(-3, 4):
        for _ in range(15):
            th = rng.uniform(0.1, math.pi - 0.1)
            diff = (continuum.monopole_connection(k, th, "plus")
                    - continuum.monopole_connection(k, th, "minus"))
            worst = _worst(worst, abs(diff + k))
            worst = _worst(worst, continuum.monopole_section_residual(k, th))
    return (worst <= 1e-8, worst,
            "chart difference is the pure gauge -k; sections rebuild both components")


@_check("continuum-connection")
def _continuum_connection(seed):
    rng = sphere._random(seed)
    worst = 0.0
    for _ in range(50):
        z = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        dz = 1e-6 * complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        worst = _worst(worst, continuum.connection_fd_deviation(z, dz))
    rep = continuum.connection_mismatch_report(seed=seed)
    passed = worst <= 1e-6 and abs(rep["mean_ratio"] + 2.0) <= 1e-9 and rep["spread"] <= 1e-9
    return (passed, worst,
            "closed form matches FD; the alternative normalization is exactly -2x "
            "(ratio %.6f)" % rep["mean_ratio"])


# ---------------------------------------------------------------------------
# representation bookkeeping

@_check("quantum-representation-choice")
def _representation_choice(seed):
    # the left-multiplication materialization reproduces the closed-form
    # commutator norms; the left-minus-right (adjoint) one does not, and is
    # therefore not what the distance formulas mean by the coordinate action
    n = HalfInteger(2)
    s = sphere.build_space(n, 1.0)
    left = triple.build_dirac(s, "quantum")
    w = np.zeros((s.dim, s.dim))   # |1, 1)(1, 1| - |0, 1)(0, 1| as a weight matrix
    w[s.index_of(HalfInteger(2)), s.index_of(HalfInteger(2))] = 1.0
    w[s.index_of(HalfInteger(0)), s.index_of(HalfInteger(2))] = -1.0
    drho = np.diag(w.ravel())
    got = triple.lipschitz_seminorm(left, drho)
    expect = quantum.same_sector_seminorm(n, 1.0, HalfInteger(0))
    dev_left = abs(got - expect) / expect

    eye = np.eye(s.dim)
    adj = np.zeros(left.dirac.shape, dtype=complex)
    for sig, x in zip(sphere._pauli(), (s.x1, s.x2, s.x3)):
        adj += np.kron(sig, np.kron(x, eye) - np.kron(eye, x.T))
    adj /= s.radius
    m = triple.SpectralTriple(s, "quantum", adj)
    dev_adj = abs(triple.lipschitz_seminorm(m, drho) - expect) / expect
    passed = dev_left <= 1e-10 and dev_adj > 0.1
    return (passed, dev_left,
            "left action matches closed forms; adjoint action misses by %.0f%%"
            % (100 * dev_adj))
