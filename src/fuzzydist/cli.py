"""Command-line front end.

Subcommands compute distance tables for each state family, run the oracle
cross-checks, and execute the validation registry. Output is JSON (default)
or CSV with floats printed to 17 significant digits, so repeated runs with
the same arguments are byte-identical once timestamps are suppressed. Only
validate and continuum-check take --seed, the seed of their checks' draws.

Every step subcommand emits one row per step n3 -> n3+1 through _sweep,
which fills the n and n3 columns. _config_row builds a config pair's row
(closed form, norm pipeline and, with --oracle, the exact Kantorovich supremum)
once: discrete emits it, table projects it.

The compute modules are imported lazily inside the handlers: FUZZYDIST_THREADS
must be translated into the BLAS thread-count variables before numpy loads.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

from . import __version__
from .halfint import HalfInteger

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


class UsageError(ValueError):
    pass


def _configure_threads():
    raw = os.environ.get("FUZZYDIST_THREADS")
    if raw is None or raw == "":
        return
    try:
        k = int(raw)
    except ValueError:
        raise UsageError("FUZZYDIST_THREADS must be an integer, got %r" % raw) from None
    if k < 1:
        raise UsageError("FUZZYDIST_THREADS must be >= 1, got %d" % k)
    for var in _THREAD_VARS:
        os.environ[var] = str(k)


# ---------------------------------------------------------------------------
# argument parsing

def _halfint_arg(text: str) -> HalfInteger:
    try:
        return HalfInteger.parse(text)
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError("not a half-integer: %r" % text) from None


def _complex_arg(text: str) -> complex:
    """Parse 'a+bi' (also plain reals and pure-imaginary 'bi'); both parts must be finite."""
    s = text.strip().replace(" ", "")
    if not s:
        raise argparse.ArgumentTypeError("empty complex number")
    if s[-1] in "iI":
        s = s[:-1] + "j"
        # bare 'i' / '+i' / '-i' need an explicit 1
        if s[:-1] in ("", "+", "-"):
            s = s[:-1] + "1j"
    try:
        z = complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError("not a complex number: %r" % text) from None
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError("not a finite complex number: %r" % text)
    return z


def _lambda_arg(text: str) -> float:
    try:
        lam = float(text)
    except ValueError:
        lam = math.nan
    if not 0 < lam < math.inf:
        raise argparse.ArgumentTypeError("not a positive finite number: %r" % text)
    return lam


def _seed_arg(text: str) -> int:
    """A seed is an integer >= 0: random.Random(-s) would repeat the stream of s."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError("not a non-negative integer: %r" % text)
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzydist",
        description="Spectral distances on fuzzy spheres, with oracle cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, steps=True):
        p.add_argument("--n", type=_halfint_arg, required=True,
                       help="spin label (half-integer, e.g. 1 or 3/2)")
        if steps:
            p.add_argument("--n3", type=_halfint_arg, default=None,
                           help="lower state label; default: all adjacent pairs")
        lam(p)
        output(p)

    def lam(p):
        p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=1.0,
                       help="noncommutativity scale, positive (default 1)")

    def output(p, seed=False):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this file")
        if seed:  # only the checks draw random numbers
            p.add_argument("--seed", type=_seed_arg, default=42,
                           help="seed of the checks' draws, an integer >= 0 (default 42)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from metadata (reproducible bytes)")

    p = sub.add_parser("discrete", help="adjacent pure-state distances on the sphere")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="also compute the exact supremum (diagonal Kantorovich route)")

    p = sub.add_parser("coherent", help="infinitesimal coherent-state distances")
    common(p, steps=False)
    p.add_argument("--z", type=_complex_arg, default=0j,
                   help="base point, stereographic label 'a+bi' (default 0)")
    p.add_argument("--dz", type=float, default=1e-4,
                   help="displacement magnitude (default 1e-4)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the displaced-projector finite-difference oracle")

    p = sub.add_parser("quantum-pure", help="operator-space pure-state distances")
    common(p)
    p.add_argument("--right-sector", choices=("same", "distinct"), default="same",
                   dest="right_sector")
    p.add_argument("--oracle", action="store_true",
                   help="also run the eigensolver oracle")

    p = sub.add_parser("quantum-mixed", help="mixed-state distances for a probability profile")
    common(p)
    p.add_argument("--profile", default="uniform",
                   help="'uniform' or a path to a profile table (default uniform)")
    p.add_argument("--oracle", action="store_true",
                   help="also evaluate the explicit commutator norms")

    p = sub.add_parser("thermal", help="thermal-profile distances")
    common(p)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--energies", default="default",
                   help="'default' (linear spectrum) or a path to a one-row table")
    p.add_argument("--oracle", action="store_true",
                   help="also evaluate the profile functional directly")

    p = sub.add_parser("continuum-check", help="run the commutative-geometry checks")
    output(p, seed=True)

    p = sub.add_parser("table", help="sweep n and emit the distance table")
    p.add_argument("--n-min", dest="n_min", type=_halfint_arg, required=True)
    p.add_argument("--n-max", dest="n_max", type=_halfint_arg, required=True)
    lam(p)
    p.add_argument("--oracle", action="store_true",
                   help="include the optimizer column, the exact diagonal supremum")
    output(p)

    p = sub.add_parser("validate", help="run the full validation registry")
    output(p, seed=True)

    return parser


# ---------------------------------------------------------------------------
# deterministic emitters

def _fmt(x: float) -> str:
    s = "%.17g" % float(x)
    # keep float-typed values recognizably float ("1.0", not "1")
    if s.lstrip("+-").isdigit():
        s += ".0"
    return s


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt(v)
    return json.dumps(str(v))


def _emit_json(meta: dict, rows: list) -> str:
    def cells(d):
        return ["%s: %s" % (json.dumps(k), _json_scalar(v)) for k, v in d.items()]

    lines = ["{", '  "meta": {', ",\n".join("    " + c for c in cells(meta)), "  },",
             '  "results": [']
    if rows:
        lines.append(",\n".join("    {%s}" % ", ".join(cells(row)) for row in rows))
    return "\n".join(lines + ["  ]", "}"]) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if not isinstance(v, str):
        return _json_scalar(v)
    if any(c in v for c in ",\"\n"):
        return '"' + v.replace('"', '""') + '"'
    return v


def _emit_csv(meta: dict, rows: list) -> str:
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(k)) for k in header))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# per-command handlers; each returns (extra_meta, rows, exit_code)

def _adjacent_labels(n: HalfInteger, n3):
    from .sphere import _adjacent_step, _steps
    return _steps(n) if n3 is None else [_adjacent_step(n, n3)[1]]


def _sweep(args, step_row, **meta):
    """Rows n, n3, then step_row(n3)'s cells for the --n3 step or every step at --n."""
    rows = [{"n": str(args.n), "n3": str(n3), **step_row(n3)}
            for n3 in _adjacent_labels(args.n, args.n3)]
    extra = {"n3": str(args.n3) if args.n3 is not None else None, **meta,
             "oracle": args.oracle}
    return extra, rows, 0


def _config_row(s, tr, n3, oracle: bool):
    """Cells of the config pair |n3> -> |n3+1> on sphere s with triple tr.

    Both states are basis projectors, so drho is diagonal and traceless: the oracle
    takes the exact Kantorovich route, which reads no seed and raises nothing.
    """
    from . import distance, sphere
    rho, rho2 = sphere.pure_state(s, n3), sphere.pure_state(s, n3 + HalfInteger(2))
    cf = distance.adjacent_distance_closed_form(s.n, n3, s.lam)
    lb = distance.distance_lower_bound(tr, rho, rho2)
    cells = {"distance": cf, "value": cf, "method": "closed_form", "norm_pipeline": lb.value,
             "ratio": lb.value / cf, "ball_residual": lb.ball_residual}
    if oracle:
        opt = distance.connes_distance_optimized(tr, rho, rho2)
        cells.update(optimizer=opt.value, optimizer_ball_residual=opt.ball_residual,
                     optimizer_method=opt.method, optimizer_stop=opt.stop)
    return cells


def _cmd_discrete(args):
    from . import sphere, triple
    s = sphere.build_space(args.n, args.lam)
    tr = triple.build_dirac(s, "config")
    return _sweep(args, lambda n3: _config_row(s, tr, n3, args.oracle))


def _cmd_coherent(args):
    from . import coherent
    n, lam, z = args.n, args.lam, args.z
    dz = args.dz
    if not dz > 0:
        raise UsageError("--dz must be positive")
    if dz > 1e-3:
        raise UsageError("--dz must be <= 1e-3 (first-order regime)")
    coeff = coherent.coherent_metric_coefficient(n, lam, z)
    closed = coeff * dz
    numeric = coherent.coherent_distance_numeric(n, lam, dz, z)
    zs = _fmt(z.real) + ("+" if z.imag >= 0 else "-") + _fmt(abs(z.imag)) + "i"
    row = {"n": str(n), "z": zs, "dz": dz, "distance": numeric, "value": numeric,
           "method": "norm_pipeline", "closed_form": closed,
           "metric_coefficient": coeff, "ratio": numeric / closed}
    if args.oracle:
        scale = 1.0 / coherent._one_plus_abs2(z)
        row["fd_oracle"] = coherent.coherent_distance_fd(n, lam, dz) * scale
        row["richardson_coefficient"] = coherent.richardson_distance_coefficient(n, lam) * scale
    extra = {"z": zs, "dz": dz, "oracle": args.oracle}
    return extra, [row], 0


def _cmd_quantum_pure(args):
    from . import quantum
    n, lam = args.n, args.lam
    same = args.right_sector == "same"
    method = "closed_form" if same else "lower_bound_formula"  # distinct: Connes distance is +inf

    def step_row(n3):
        d = quantum.quantum_pure_distance(n, lam, n3, same)
        row = {"right_sector": args.right_sector, "distance": d, "value": d, "method": method}
        if args.oracle:
            rights = (n, n) if same else (n3, n3 + HalfInteger(2))
            sem = quantum.quantum_seminorm_oracle(n, lam, n3, *rights)
            row["oracle"] = 2.0 / sem
            row["ratio"] = row["oracle"] / d
            if not same:
                row["symmetrized"] = quantum.quantum_pure_distance_symmetrized(n, lam, n3)
        return row

    return _sweep(args, step_row, right_sector=args.right_sector)


def _read_file(path: str, what: str, parse):
    """parse(text) of the --profile or --energies file at path, as a usage error if that fails."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError("cannot read %s file: %s" % (what, exc)) from None
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError("bad %s file %s: %s" % (what, path, exc)) from None


def _cmd_quantum_mixed(args):
    from . import quantum
    n, lam = args.n, args.lam
    if args.profile == "uniform":
        profile = quantum.ProbabilityProfile.uniform(n)
    else:
        profile = _read_file(args.profile, "profile",
                             lambda text: quantum.ProbabilityProfile.from_text(text, n))

    def step_row(n3):
        d = quantum.trace_norm_distance(n, lam, n3, profile)
        row = {"profile": args.profile, "distance": d, "value": d, "method": "closed_form"}
        if args.oracle:
            norms = quantum.mixed_commutator_norms(n, lam, n3, profile)
            row["oracle"] = quantum.mixed_distance_oracle(n, lam, n3, profile)
            row["ratio"] = row["oracle"] / d
            row["frobenius"] = norms["frobenius"]
            row["nuclear"] = norms["nuclear"]
            row["operator"] = norms["operator"]
            cert = quantum.delta_matrix(n, lam, profile, n3, n3 + HalfInteger(2))
            row["stationarity_residual"] = cert.residual
        return row

    return _sweep(args, step_row, profile=args.profile)


def _cmd_thermal(args):
    from . import quantum
    from .sphere import _labels
    n, lam = args.n, args.lam
    if args.energies == "default":
        spectrum = quantum.EnergySpectrum.default(n, lam)
    else:
        spectrum = _read_file(args.energies, "energies", quantum.EnergySpectrum.from_text)
    pf = quantum.thermal_prefactor(spectrum, args.beta)  # raises unless beta is finite and >= 0

    def step_row(n3):
        d = quantum.thermal_distance(n, lam, n3, spectrum, args.beta)
        row = {"beta": args.beta, "distance": d, "value": d, "method": "closed_form",
               "prefactor": pf}
        if args.oracle:
            weights = quantum.thermal_profile(spectrum, args.beta)
            prof = quantum.ProbabilityProfile(n, dict.fromkeys(_labels(n), weights))
            row["profile_functional"] = quantum.trace_norm_distance(n, lam, n3, prof)
            row["ratio"] = row["profile_functional"] / d
        return row

    return _sweep(args, step_row, beta=args.beta, energies=args.energies)


def _cmd_checks(args, prefix=""):
    """validate runs every registry check, continuum-check those named continuum-*."""
    from . import validate
    names = [name for name in validate.check_names() if name.startswith(prefix)]
    rows, code = [], 0
    for r in validate.run_checks(names=names, seed=args.seed):
        rows.append({"check": r.name, "passed": r.passed,
                     "max_deviation": r.max_deviation, "note": r.note})
        if not r.passed:
            print("fuzzydist: check failed: %s (max deviation %s)"
                  % (r.name, _fmt(r.max_deviation)), file=sys.stderr)
            code = 1
    return {}, rows, code


# table columns and the discrete cells they show; optimizer only with --oracle
_TABLE_COLUMNS = (("closed_form", "distance"), ("norm_pipeline", "norm_pipeline"),
                  ("optimizer", "optimizer"), ("ratio", "ratio"))


def _cmd_table(args):
    from . import sphere, triple
    n_min, n_max, lam = args.n_min, args.n_max, args.lam
    if n_min.twice < 1:
        raise UsageError("--n-min must be at least 1/2")
    if n_max.twice < n_min.twice:
        raise UsageError("--n-max must be >= --n-min")
    rows = []
    for t in range(n_min.twice, n_max.twice + 1):
        n = HalfInteger(t)
        s = sphere.build_space(n, lam)
        tr = triple.build_dirac(s, "config")
        for n3 in _adjacent_labels(n, None):
            cells = _config_row(s, tr, n3, args.oracle)
            row = {"n": str(n), "n3": str(n3)}
            row.update((col, cells[key]) for col, key in _TABLE_COLUMNS if key in cells)
            rows.append(row)
    extra = {"n_min": str(n_min), "n_max": str(n_max), "oracle": args.oracle}
    return extra, rows, 0


_HANDLERS = {
    "discrete": _cmd_discrete,
    "coherent": _cmd_coherent,
    "quantum-pure": _cmd_quantum_pure,
    "quantum-mixed": _cmd_quantum_mixed,
    "thermal": _cmd_thermal,
    "continuum-check": lambda args: _cmd_checks(args, "continuum-"),
    "table": _cmd_table,
    "validate": _cmd_checks,
}


def main(argv=None) -> int:
    try:
        _configure_threads()
    except UsageError as exc:
        print("fuzzydist: error: %s" % exc, file=sys.stderr)
        return 2

    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        extra, rows, code = _HANDLERS[args.command](args)
    except ValueError as exc:
        # UsageError, and domain errors raised by the library for inputs the grammar accepts
        print("fuzzydist: error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("fuzzydist: computation failed: %s" % exc, file=sys.stderr)
        return 1

    meta = {"command": args.command,
            "n": str(args.n) if hasattr(args, "n") else None,
            "lambda": args.lam if hasattr(args, "lam") else None,
            "seed": args.seed if hasattr(args, "seed") else None,
            "version": __version__}
    meta.update(extra)
    meta["format"] = args.format
    if not args.no_timestamp:
        import datetime
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()

    text = _emit_json(meta, rows) if args.format == "json" else _emit_csv(meta, rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("fuzzydist: error: cannot write %s: %s" % (args.out, exc), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
