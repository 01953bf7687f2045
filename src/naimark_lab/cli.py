"""Command-line surface: POVM file I/O, cost runs, bounds, certificates.

POVM files are JSON: {"d": 2, "elements": [[[re, im], ...], ...]} with m
rows of d coefficient pairs. Exit codes are stable across subcommands:
0 success, 1 semantic failure (invalid POVM, nonzero decision under
--assert-zero, d < 2 where forbidden), 2 I/O, parse, argument or capacity
errors. Commands raise; `main` alone prints the one `error:` line and
picks the code: InputRejected is 1, PovmFileError, ValueError and OSError
are 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .bounds import _ZERO_TOL_FLOOR, best_bound, zero_cost_decide_d2, zero_cost_necessary
from .naimark import _COMPLETE_TOL
from .optimize import (
    CostReport,
    OptimizerConfig,
    minimize,
    minimize_many,
    minimize_over_e,
    normalized_cost,
)
from .povm import Povm, random_haar, tensor, trine, validate
from .trine_analytic import derivative_sign_scan, trine_cost_exact, trine_curve

SEED_ENV_VAR = "NAIMARK_LAB_SEED"


class PovmFileError(Exception):
    """Raised when a POVM file cannot be read or does not parse."""


class InputRejected(Exception):
    """Raised for a well-formed input the command refuses: exit code 1."""


def _number(x) -> float:
    """A JSON number as a float; a string or a bool is not one."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"coefficients must be numbers, got {x!r}")
    return float(x)


def load_povm(path: str) -> Povm:
    """Read a POVM from a JSON file of [re, im] coefficient pairs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON or UTF-8, or an integer past 4300 digits
        raise PovmFileError(f"cannot read POVM file {path!r}: {exc}") from exc
    try:
        d = doc["d"]
        if type(d) is not int:  # a JSON integer: not 2.9, "2" or true
            raise TypeError(f"d must be an integer, got {d!r}")
        rows = [[complex(_number(re), _number(im)) for re, im in row] for row in doc["elements"]]
        matrix = np.array(rows, dtype=complex)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PovmFileError(f"malformed POVM file {path!r}: {exc}") from exc
    if d < 1 or matrix.ndim != 2 or matrix.shape[1] != d:
        raise PovmFileError(
            f"malformed POVM file {path!r}: expected d >= 1 and m rows of d = {d} coefficient pairs"
        )
    try:
        return Povm(matrix)
    except ValueError as exc:
        raise PovmFileError(f"malformed POVM file {path!r}: {exc}") from exc


def save_povm(P: Povm, path: str) -> None:
    """Write a POVM as JSON; float repr round-trips coefficients exactly."""
    doc = {
        "d": P.d,
        "elements": [[[z.real, z.imag] for z in row] for row in P.matrix],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _default_seed(flag_value: int | None) -> int:
    """--seed if given, else NAIMARK_LAB_SEED, else 0; never negative."""
    if flag_value is not None:
        if flag_value < 0:
            raise ValueError(f"--seed must be >= 0, got {flag_value}")
        return flag_value
    raw = os.environ.get(SEED_ENV_VAR, "0")
    if not raw.strip().isdecimal():
        raise ValueError(f"{SEED_ENV_VAR} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _check_tol(tol: float) -> None:
    if not tol >= 0:  # NaN fails too
        raise ValueError(f"--tol must be >= 0, got {tol}")


def _optimizer_config(restarts: int, seed: int) -> OptimizerConfig:
    """The search settings of --restarts and the resolved seed; checks the flag."""
    if restarts < 1:
        raise ValueError(f"--restarts must be >= 1, got {restarts}")
    return OptimizerConfig(restarts=restarts, seed=seed)


def _load_checked(path: str, tol: float) -> Povm:
    """Check tol, then load a POVM that must have d >= 2 and validate at tol."""
    _check_tol(tol)
    P = load_povm(path)
    if P.d < 2:
        raise InputRejected(f"this command requires a POVM with d >= 2 (got d = {P.d})")
    report = validate(P, tol=tol)
    if not report.ok:
        raise InputRejected(f"input POVM fails validation (residual {report.max_residual:.3e})")
    return P


def cmd_validate(args: argparse.Namespace) -> int:
    _check_tol(args.tol)
    P = load_povm(args.path)
    report = validate(P, tol=args.tol)
    print(f"d = {P.d}, m = {P.m}")
    print(f"max residual |M^dag M - I|: {report.max_residual:.6e}")
    if report.zero_norm_indices:
        labels = ", ".join(str(i + 1) for i in report.zero_norm_indices)
        print(f"zero-norm elements (1-based): {labels}")
    print("VALID" if report.ok else "INVALID")
    return 0 if report.ok else 1


def cmd_cost(args: argparse.Namespace) -> int:
    cfg = _optimizer_config(args.restarts, _default_seed(args.seed))
    if args.tol > _COMPLETE_TOL:  # a negative or NaN tol fails in _load_checked
        raise ValueError(
            f"--tol must be <= {_COMPLETE_TOL:g} for cost, whose Naimark completion needs "
            f"columns orthonormal within it; got {args.tol}"
        )
    P = _load_checked(args.path, args.tol)
    # --e alone is the one-point sweep E..E
    e_max = args.e if args.e_max is None else args.e_max
    report = minimize_over_e(P, args.e, e_max, cfg)
    bb = best_bound(P, seed=cfg.seed)
    if args.json:
        print(json.dumps(_cost_json(P, report, bb.value, bb.witness), indent=2))
        return 0
    print(f"best cost: {report.best_cost:.9f} ebits (e = {report.e_used})")
    print(f"normalized cost F = cost/log2(d): {normalized_cost(report):.9f}")
    ent = report.breakdown.per_outcome_entanglement
    wts = report.breakdown.weights
    for mu, (h, q) in enumerate(zip(ent, wts), start=1):
        print(f"  outcome {mu}: weight {q:.6f}, entanglement {h:.6f}")
    print(f"restarts: {report.restarts_run}, converged: {report.converged}")
    print(f"best known bound: {bb.value:.9f} (witness: {bb.witness})")
    return 0


def _cost_json(P: Povm, report: CostReport, bound_value: float, bound_witness: str) -> dict:
    return {
        "d": P.d,
        "m": P.m,
        "best_cost": report.best_cost,
        "e_used": report.e_used,
        "normalized_cost": normalized_cost(report),
        "per_outcome_entanglement": [float(x) for x in report.breakdown.per_outcome_entanglement],
        "weights": [float(x) for x in report.breakdown.weights],
        "restarts_run": report.restarts_run,
        "converged": report.converged,
        "restarts": [asdict(rec) for rec in report.restarts],
        "best_bound": {"value": bound_value, "witness": bound_witness},
    }


def cmd_bounds(args: argparse.Namespace) -> int:
    seed = _default_seed(None)
    P = _load_checked(args.path, 1e-9)
    bb = best_bound(P, seed=seed)
    print(f"element-count bound 1 - 1/m:        {bb.bound_element_count:.6f}")
    print(f"dimension bound H[(1-1/sqrt(d))/2]: {bb.bound_dimension:.6f}")
    print(f"best zeta-probe bound:              {bb.bound_zeta_best:.6f}")
    print(f"minimum: {bb.value:.6f} (witness: {bb.witness})")
    return 0


def cmd_zero_cert(args: argparse.Namespace) -> int:
    if 0 <= args.tol < _ZERO_TOL_FLOOR:  # a negative or NaN tol fails in _load_checked
        raise ValueError(
            f"--tol must be >= {_ZERO_TOL_FLOOR:g} for zero-cert, "
            f"below which float64 rounding decides; got {args.tol}"
        )
    P = _load_checked(args.path, args.tol)
    if P.d == 2:
        cert = zero_cost_decide_d2(P, tol=args.tol)
        merged_m = len(cert.per_element_margins)
        if merged_m != P.m:
            print(f"note: margins refer to the POVM after merging parallel elements (m = {merged_m})")
    else:
        cert = zero_cost_necessary(P, tol=args.tol)
    for mu, g in enumerate(cert.per_element_margins, start=1):
        print(f"margin mu = {mu}: {g:+.6f}")
    print(f"decision: {cert.decision.upper()}")
    if cert.pairing is not None:
        print("pairing:", ", ".join(f"({i + 1},{j + 1})" for i, j in cert.pairing))
    if cert.decision == "inconclusive" and P.d != 2:
        print("note: necessary condition only; the complete decision needs d = 2")
    if args.assert_zero and cert.decision != "zero":
        return 1
    return 0


def cmd_trine(args: argparse.Namespace) -> int:
    if args.grid < 1:
        raise ValueError("--grid must be >= 1")
    seed = _default_seed(None)
    # open the output before any work, so an unwritable path fails first
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        exact = trine_cost_exact()
        report = minimize(trine(), 2, OptimizerConfig(restarts=8, seed=seed))
        scan = derivative_sign_scan(10_000)
        curve = trine_curve(args.grid)
        writer = csv.writer(fh)
        writer.writerow(["theta", "E"])
        for theta, value in zip(curve.thetas, curve.values):
            writer.writerow([float(theta), float(value)])
    print(f"exact trine cost: {exact:.9f} ebits")
    print(
        f"optimizer cross-check (e = 2): {report.best_cost:.9f} "
        f"(delta {report.best_cost - exact:+.3e})"
    )
    print(
        f"E(theta) nondecreasing on [0, pi/3]: {scan.monotone}; "
        f"minimum at theta = {scan.min_at:.6f}"
    )
    print(f"curve written to {args.out} ({curve.thetas.size} rows)")
    return 0


def cmd_random_scan(args: argparse.Namespace) -> int:
    if args.m < args.d:
        raise ValueError("random-scan needs m >= d")
    if args.count < 0:
        raise ValueError("--count must be >= 0")
    if args.d < 2:
        raise InputRejected(f"random-scan requires d >= 2 (got d = {args.d})")
    if args.d * args.e < args.m:
        raise ValueError(f"--e {args.e} is too small: d*e = {args.d * args.e} < m = {args.m}")
    seed = _default_seed(args.seed)
    cfg = _optimizer_config(args.restarts, seed)
    # every best_bound probe is an achieved cost from e = m - d + 1 on: the chart
    # point I_r (x) zeta^T there costs bound_prop5(P, zeta); below that the
    # element-count and dimension caps are the bounds to hold the cost to
    use_best = args.e >= args.m - args.d + 1
    cap_name = "best_bound" if use_best else "min(bound_m, bound_d)"
    rows: list[tuple[int, float, float, float, float]] = []
    excesses: list[float] = []
    povms = [random_haar(args.d, args.m, seed + i) for i in range(args.count)]
    for i, (P, report) in enumerate(zip(povms, minimize_many(povms, args.e, cfg))):
        bb = best_bound(P, seed=seed + i)
        bound_m, bound_d = bb.bound_element_count, bb.bound_dimension
        rows.append((i, report.best_cost, bound_m, bound_d, bb.value))
        cap = bb.value if use_best else min(bound_m, bound_d)
        excesses.append(report.best_cost - cap)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed_index", "cost", "bound_m", "bound_d", "best_bound"])
        writer.writerows(rows)
    print(
        f"scanned {args.count} Haar-random POVMs "
        f"(d = {args.d}, m = {args.m}, e = {args.e}, seed = {seed})"
    )
    violations = sum(1 for x in excesses if x > 1e-6)
    if violations:
        print(
            f"WARNING: {violations} rows exceed {cap_name} + 1e-6 "
            f"(worst excess {max(excesses):.3e})"
        )
    elif rows:
        print(f"all rows satisfy cost <= {cap_name} + 1e-6")
    if args.d == 2 and args.e == 2 and rows:
        max_cost = max(r[1] for r in rows)
        verdict = "within" if max_cost <= 0.4960 + 1e-3 else "EXCEEDS"
        print(f"finding (d = 2, e = 2): max cost {max_cost:.6f} {verdict} 0.4960 + 1e-3")
    print(f"table written to {args.out}")
    return 0


def cmd_tensor(args: argparse.Namespace) -> int:
    A = load_povm(args.path_a)
    B = load_povm(args.path_b)
    if A.d < 2 or B.d < 2:
        raise InputRejected("tensor factors must have d >= 2")
    T = tensor(A, B)
    save_povm(T, args.out)
    print(f"wrote {args.out}: d = {T.d}, m = {T.m}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every main call: built once, since parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="naimark-lab",
        description="Entanglement cost of rank-1 POVMs via Naimark extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check that a file holds a valid POVM")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cost", help="minimize entanglement cost over extensions")
    p.add_argument("path")
    p.add_argument(
        "--e", type=int, default=None, help="smallest ancilla dimension; alone, the only one"
    )
    p.add_argument(
        "--e-max", dest="e_max", type=int, default=None, help="sweep ancilla dimension up to this"
    )
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9, help="validation tolerance")
    p.add_argument("--json", action="store_true", help="emit a machine-readable report")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("bounds", help="closed-form upper bounds on the cost")
    p.add_argument("path")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("zero-cert", help="zero-cost certificate / decision")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument(
        "--assert-zero", action="store_true", help="exit 1 unless the decision is zero"
    )
    p.set_defaults(func=cmd_zero_cert)

    p = sub.add_parser("trine", help="analytic trine report and cost curve")
    p.add_argument("--grid", type=int, default=600, help="curve resolution (grid+1 rows)")
    p.add_argument("--out", default="trine_curve.csv")
    p.set_defaults(func=cmd_trine)

    p = sub.add_parser("random-scan", help="cost vs bounds over Haar-random POVMs")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--e", type=int, default=2, help="ancilla dimension per instance")
    p.add_argument("--out", default="scan.csv")
    p.set_defaults(func=cmd_random_scan)

    p = sub.add_parser("tensor", help="tensor product of two POVM files")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("out")
    p.set_defaults(func=cmd_tensor)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputRejected as exc:
        code, message = 1, str(exc)
    except (PovmFileError, ValueError) as exc:
        code, message = 2, str(exc)
    except OSError as exc:
        code, message = 2, f"cannot write output: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
