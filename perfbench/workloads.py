"""The three fuzzydist benchmark workloads: inputs, timed calls and checks.

Each workload is built from a seed, then run as passes.  A pass makes every
timed call of the workload once and checks each output against a reference
that does not come from the route being timed; ``run_pass`` returns one
message per item that failed its check or raised.

Nothing here imports numpy or fuzzydist at module level: ``build`` does, so
that the set-up time the benchmark reports covers those imports.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json

# The registry of `fuzzydist validate`, in the order the CLI must emit it.
VALIDATE_CHECKS = (
    "sphere-algebra", "sphere-winding", "jordan-schwinger", "dirac-spectrum",
    "distance-closed-vs-pipeline", "distance-symmetries", "distance-optimizer",
    "coherent-overlap", "coherent-block-norm", "coherent-distance", "coherent-sup-gap",
    "coherent-resolution-identity", "coherent-large-n-scaling", "quantum-same-branch",
    "quantum-distinct-branch", "quantum-monotonicity", "mixed-norm-identification",
    "mixed-worked-values", "stationarity-residual", "minimizer-recovers-uniform",
    "uniform-closed-form", "thermal-prefactor", "thermal-distance", "continuum-hopf",
    "continuum-metric", "continuum-killing", "continuum-clifford", "continuum-monopole",
    "continuum-connection", "quantum-representation-choice",
)

# connes-sup pairs on the config triple, as (kind, 2n, 2*n3 of the lower state).
# Adjacent and pole-to-pole pairs are diagonal; coherent pairs are not.
CONNES_PAIRS = (
    ("adjacent", 1, -1), ("adjacent", 3, -1), ("adjacent", 4, -4),
    ("poles", 2, None), ("poles", 4, None),
    ("coherent", 1, None), ("coherent", 2, None), ("coherent", 3, None),
)
COHERENT_DZ = 1e-4
# sup/closed-form ratio of the coherent displacement, per 2n, as (low, high);
# the same brackets the coherent-sup-gap check uses.
COHERENT_RATIO = {1: (0.5 - 1e-5, 0.5 + 1e-5), 2: (1.0 - 1e-5, 1.0 + 1e-5), 3: (1.10, 1.20)}

# quantum-sweep sizes: seminorm oracles at every 2n of SWEEP_2N, mixed-state
# norms at MIXED_2N.  Dense cost grows like dim^6, so 2n = 20 dominates.
SWEEP_2N = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
MIXED_2N = (2, 4, 8, 12, 16)
REL_TOL = 1e-10


def _rel_err(got, ref):
    return abs(got - ref) / abs(ref)


class Validate:
    """`fuzzydist validate --no-timestamp` through cli.main, one item per check."""

    modules = ("fuzzydist.cli", "fuzzydist.validate")

    def __init__(self, seed, perturb):
        if perturb:
            raise ValueError("validate compares pass flags, not numbers; --perturb does not apply")
        self.seed = seed
        self.cli = importlib.import_module("fuzzydist.cli")
        self.argv = ["validate", "--no-timestamp", "--seed", str(seed)]
        self.items = len(VALIDATE_CHECKS)
        self.details = {"argv": self.argv}

    def run_pass(self):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.argv)
            doc = json.loads(out.getvalue())
        except Exception as exc:  # every check counts as failed; the run reports it
            return ["validate raised %s: %s" % (type(exc).__name__, exc)] * self.items
        rows = doc.get("results", [])
        failures = []
        for i, name in enumerate(VALIDATE_CHECKS):
            row = rows[i] if i < len(rows) else {}
            if row.get("check") != name or row.get("passed") is not True:
                failures.append("row %d: expected %s passed, got %r" % (i, name, row))
        seed = doc.get("meta", {}).get("seed")
        if not failures and (code != 0 or len(rows) != self.items or seed != self.seed):
            failures.append("exit code %r, %d rows, meta.seed %r: %s"
                            % (code, len(rows), seed, err.getvalue().strip()))
        return failures


class ConnesSup:
    """connes_distance_optimized on the config triple over CONNES_PAIRS.

    References: the norm pipeline and the adjacent closed form (adjacent), the
    sum of adjacent closed forms (pole to pole), the pipeline lower bound and
    the known sup/closed ratios (coherent).  The seed drives the optimizer's
    random restarts.
    """

    modules = ("fuzzydist.sphere", "fuzzydist.triple", "fuzzydist.distance",
               "fuzzydist.coherent")

    def __init__(self, seed, perturb):
        self.seed = seed
        self.distance = importlib.import_module("fuzzydist.distance")
        sphere = importlib.import_module("fuzzydist.sphere")
        triple = importlib.import_module("fuzzydist.triple")
        coherent = importlib.import_module("fuzzydist.coherent")
        H = importlib.import_module("fuzzydist.halfint").HalfInteger
        self.pairs = []
        for i, (kind, two_n, t3) in enumerate(CONNES_PAIRS):
            s = sphere.build_space(H(two_n), 1.0)
            tr = triple.build_dirac(s, "config", 0)
            scale = 1.0 + perturb if i == 0 else 1.0
            if kind == "adjacent":
                rho, rho2 = sphere.pure_state(s, H(t3)), sphere.pure_state(s, H(t3 + 2))
                ref = self.distance.adjacent_distance_closed_form(H(two_n), H(t3), 1.0) * scale
            elif kind == "poles":
                rho, rho2 = sphere.pure_state(s, H(-two_n)), sphere.pure_state(s, H(two_n))
                ref = scale * sum(self.distance.adjacent_distance_closed_form(H(two_n), H(t), 1.0)
                                  for t in range(-two_n, two_n - 1, 2))
            else:
                rho = sphere.HSOperator(s, coherent.coherent_state(s, 0j).projector())
                rho2 = sphere.HSOperator(s, coherent.coherent_state(s, complex(COHERENT_DZ)).projector())
                ref = coherent.coherent_metric_coefficient(H(two_n), 1.0, 0j) * COHERENT_DZ * scale
            self.pairs.append((kind, two_n, t3, tr, rho, rho2, ref))
        self.items = len(self.pairs)
        diagonal = sum(1 for p in CONNES_PAIRS if p[0] != "coherent")
        self.details = {"pairs": [list(p) for p in CONNES_PAIRS],
                        "diagonal_share": diagonal / len(CONNES_PAIRS)}

    def _check(self, kind, two_n, tr, rho, rho2, ref, opt):
        lb = self.distance.distance_lower_bound(tr, rho, rho2).value
        if kind == "adjacent":
            if _rel_err(lb, ref) > REL_TOL:
                return "closed form %.17g vs pipeline %.17g" % (ref, lb)
            if not lb - 1e-6 <= opt <= lb + 1e-3:
                return "optimizer %.17g outside [lb - 1e-6, lb + 1e-3], lb %.17g" % (opt, lb)
        elif kind == "poles":
            if not ref - 1e-6 <= opt <= ref + 1e-3:
                return "optimizer %.17g outside [sum - 1e-6, sum + 1e-3], sum %.17g" % (opt, ref)
        else:
            # the ascent starts at the displacement itself, whose ratio is lb;
            # 1e-12 relative allows for the final rescaling's rounding
            if opt < lb * (1.0 - 1e-12):
                return "optimizer %.17g below the pipeline lower bound %.17g" % (opt, lb)
            low, high = COHERENT_RATIO[two_n]
            ratio = opt / ref
            if not low < ratio < high:
                return "sup/closed %.9f outside (%g, %g)" % (ratio, low, high)
        return None

    def run_pass(self):
        failures = []
        for kind, two_n, t3, tr, rho, rho2, ref in self.pairs:
            label = "%s 2n=%d%s" % (kind, two_n, "" if t3 is None else " 2n3=%d" % t3)
            try:
                opt = self.distance.connes_distance_optimized(tr, rho, rho2, seed=self.seed).value
                msg = self._check(kind, two_n, tr, rho, rho2, ref, opt)
            except Exception as exc:  # counted as a failed item
                msg = "raised %s: %s" % (type(exc).__name__, exc)
            if msg:
                failures.append("%s: %s" % (label, msg))
        return failures


class QuantumSweep:
    """Operator-space oracles at growing 2n, checked against their closed forms.

    The seed picks each step n3, the right sectors, the delta-profile peak and
    the Dirichlet profile; the matrix sizes are fixed by SWEEP_2N and MIXED_2N.
    """

    modules = ("fuzzydist.quantum",)

    def __init__(self, seed, perturb):
        np = importlib.import_module("numpy")
        self.q = importlib.import_module("fuzzydist.quantum")
        H = importlib.import_module("fuzzydist.halfint").HalfInteger
        rng = np.random.default_rng(seed)

        def step(two_n):
            return H(int(rng.choice(np.arange(-two_n, two_n - 1, 2))))

        def label(two_n):
            return H(int(rng.choice(np.arange(-two_n, two_n + 1, 2))))

        self.cases = []
        for two_n in SWEEP_2N:
            n = H(two_n)
            n3, r3 = step(two_n), label(two_n)
            self.cases.append(("same", n, n3, (r3, r3)))
            n3 = step(two_n)
            n3p, l3p = (H(int(t)) for t in rng.choice(np.arange(-two_n, two_n + 1, 2), 2, replace=False))
            self.cases.append(("distinct", n, n3, (n3p, l3p)))
        for two_n in MIXED_2N:
            n, m = H(two_n), two_n + 1
            raw = rng.dirichlet(np.ones(m), size=m)
            profiles = (
                ("uniform", self.q.ProbabilityProfile.uniform(n)),
                ("delta", self.q.ProbabilityProfile.delta(n, label(two_n))),
                ("dirichlet", self.q.ProbabilityProfile(
                    n, {t: raw[i] for i, t in enumerate(range(two_n, -two_n - 1, -2))})),
            )
            for name, prof in profiles:
                self.cases.append(("mixed-" + name, n, step(two_n), prof))
        self.perturb = perturb
        self.items = len(self.cases)
        self.details = {"cases": [[kind, str(n), str(n3)] for kind, n, n3, _ in self.cases]}

    def _check(self, kind, n, n3, arg, scale):
        q = self.q
        if kind == "same":
            got = q.quantum_seminorm_oracle(n, 1.0, n3, *arg)
            ref = q.same_sector_seminorm(n, 1.0, n3) * scale
            if _rel_err(got, ref) > REL_TOL:
                return "oracle %.17g vs same_sector_seminorm %.17g" % (got, ref)
        elif kind == "distinct":
            got = q.quantum_seminorm_oracle(n, 1.0, n3, *arg)
            ref = q.distinct_sector_seminorm_symmetrized(n, 1.0, n3) * scale
            if _rel_err(got, ref) > REL_TOL:
                return "oracle %.17g vs distinct_sector_seminorm_symmetrized %.17g" % (got, ref)
        else:
            norms = q.mixed_commutator_norms(n, 1.0, n3, arg)
            if _rel_err(norms["display"] * scale, norms["frobenius"]) > REL_TOL:
                return "display %.17g vs frobenius %.17g" % (norms["display"] * scale,
                                                             norms["frobenius"])
            got = q.mixed_distance_oracle(n, 1.0, n3, arg)
            ref = q.trace_norm_distance(n, 1.0, n3, arg)
            if _rel_err(got, ref) > REL_TOL:
                return "mixed_distance_oracle %.17g vs trace_norm_distance %.17g" % (got, ref)
        return None

    def run_pass(self):
        failures = []
        for i, (kind, n, n3, arg) in enumerate(self.cases):
            scale = 1.0 + self.perturb if i == 0 else 1.0
            try:
                msg = self._check(kind, n, n3, arg, scale)
            except Exception as exc:  # counted as a failed item
                msg = "raised %s: %s" % (type(exc).__name__, exc)
            if msg:
                failures.append("%s 2n=%d n3=%s: %s" % (kind, n.twice, n3, msg))
        return failures


WORKLOADS = {"validate": Validate, "connes-sup": ConnesSup, "quantum-sweep": QuantumSweep}


def build(name, seed, perturb=0.0):
    """Import the workload's modules and build its inputs from the seed."""
    cls = WORKLOADS[name]
    for mod in cls.modules:
        importlib.import_module(mod)
    return cls(seed, perturb)

