"""Self-test of the benchmark's checks: good inputs pass, each bad input trips.

    python3 costbench/selftest.py

Exit code 0 when every case behaves; each case prints one line.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import naimark_lab as nl  # noqa: E402

import checks as ck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def perturbed(basis: np.ndarray, row: int, col: int, delta: float) -> np.ndarray:
    out = basis.copy()
    out[row, col] += delta
    return out


def main() -> int:
    P = nl.trine()
    M = P.matrix
    ext = nl.construct_default(P, 2).basis
    cost = ck.svd_cost(ext, M, 2)
    T = ck.trine_value()
    mix = workloads.two_basis_mixture(tracing.NullTracer(), 7)
    pairing = nl.zero_cost_decide_d2(mix).pairing
    margins = nl.zero_cost_necessary(P).per_element_margins
    curve = nl.trine_curve(999).values

    good = {
        "valid extension": lambda: ck.check_cost(cost, ext, M, 2, "good"),
        "trine cost T": lambda: ck.check_trine_cost(T, "good"),
        "valid pairing": lambda: ck.check_pairing(mix.matrix, pairing, "good"),
        "trine margins": lambda: ck.check_margins(M, margins, "nonzero", "good"),
        "rising curve": lambda: ck.check_rising_curve(curve, "good"),
    }
    bad = {
        "extension, block 0 perturbed by 1e-6": lambda: ck.check_extension(perturbed(ext, 0, 0, 1e-6), M, 2, "bad"),
        "extension, completion perturbed by 1e-6": lambda: ck.check_extension(perturbed(ext, 3, 3, 1e-6), M, 2, "bad"),
        "extension, idle row firing": lambda: ck.check_extension(ext[[0, 1, 3, 2]], M, 2, "bad"),
        "cost off by 1e-6": lambda: ck.check_cost(cost + 1e-6, ext, M, 2, "bad"),
        "cost above its cap": lambda: ck.check_cost_range(ck.cost_cap(2, 3) + 2e-6, 2, 3, "bad"),
        "negative cost": lambda: ck.check_cost_range(-1e-15, 2, 3, "bad"),
        "pairing of non-orthogonal elements": lambda: ck.check_pairing(mix.matrix, [(0, 2), (1, 3)], "bad"),
        "pairing missing an element": lambda: ck.check_pairing(mix.matrix, pairing[:1], "bad"),
        "zero decision without pairing": lambda: ck.check_pairing(mix.matrix, None, "bad"),
        "trine cost below its proven minimum": lambda: ck.check_trine_cost(T - 2e-9, "bad"),
        "trine cost far above T": lambda: ck.check_trine_cost(T + 2e-6, "bad"),
        "margins off by 1e-9": lambda: ck.check_margins(M, margins + 1e-9, "nonzero", "bad"),
        "inconclusive with negative margins": lambda: ck.check_margins(M, margins, "inconclusive", "bad"),
        "curve falling by 1e-9": lambda: ck.check_rising_curve(perturbed(curve[None], 0, 5, curve[4] - curve[5] - 1e-9)[0], "bad"),
        "curve not starting at T": lambda: ck.check_rising_curve(curve + 2e-9, "bad"),
    }
    wrong = 0
    for name, case in good.items():
        try:
            case()
            print(f"ok    passes: {name}")
        except ck.CheckFailed as exc:
            wrong += 1
            print(f"WRONG tripped: {name}: {exc}")
    for name, case in bad.items():
        try:
            case()
            wrong += 1
            print(f"WRONG passed: {name}")
        except ck.CheckFailed:
            print(f"ok    trips: {name}")
    print(f"{len(good) + len(bad) - wrong} of {len(good) + len(bad)} cases behave")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
