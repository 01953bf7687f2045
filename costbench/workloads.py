"""The three workloads: inputs made from a seed, one round of operations, checks.

An operation is a pair of callables. `run` makes the library calls and is
the timed part; `check` applies the checks of checks.py to what `run`
returned, times the row-entropy kernel on each returned extension, and
gives the operation's cost. Only public names of naimark_lab are used.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import naimark_lab as nl
from naimark_lab import cli

import checks as ck
from checks import require

CFG = nl.OptimizerConfig(restarts=4)
CFG_SIC = nl.OptimizerConfig(restarts=1)  # the e = 5 search alone takes ~2 s a restart
HAAR_SHAPES = ((2, 3), (2, 4), (3, 4))
HAAR_PER_SHAPE = 3
# A zero-cost split whose e = 4 search stalls above zero under the default
# method (so do seeds 501..503); a fixed input, so it fails in every run.
SPLIT_SEED = 500
SPLIT_ZERO = 1e-3
ANALYTIC_SHAPES = ((2, 3), (2, 4), (3, 4), (3, 5))
ANALYTIC_PER_SHAPE = 40
ANALYTIC_MIXTURES = 40


@dataclass
class Outcome:
    cost: float | None  # upper estimate of E_min; None for a trine scan
    failed: bool = False
    reports: tuple = ()  # CostReports the operation returned


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def framed(P: nl.Povm, rng: np.random.Generator) -> nl.Povm:
    """P after a Haar system unitary, random element phases and a random order.

    E_min is invariant under all three, so the seed changes the search
    path and its timing but not the minimum the search is after.
    """
    U = haar_unitary(P.d, rng)
    phases = np.exp(2j * np.pi * rng.random(P.m))
    return nl.Povm(phases[:, None] * P.matrix[rng.permutation(P.m)] @ U)


def two_basis_mixture(tr, seed: int) -> nl.Povm:
    """p U0 + (1 - p) U1 for two Haar qubit bases: zero cost by construction."""
    rng = np.random.default_rng(seed)
    U0 = haar_unitary(2, rng)
    U1 = haar_unitary(2, rng)
    p = float(rng.uniform(0.15, 0.85))
    return tr.call("povm.convex_combine", nl.convex_combine, nl.Povm(U0.conj()), nl.Povm(U1.conj()), p)


def split_one(tr, P: nl.Povm, seed: int) -> nl.Povm:
    """Split one seed-chosen outcome of P into two: still zero cost if P is."""
    rng = np.random.default_rng(seed)
    mu = int(rng.integers(P.m))
    q = float(rng.uniform(0.25, 0.75))
    splits = [[1.0]] * P.m
    splits[mu] = [q, 1 - q]
    return tr.call("povm.post_process", nl.post_process, P, splits)


def qubit_sic() -> nl.Povm:
    """Tetrahedron POVM: four elements |psi_k>/sqrt(2) with tetrahedral Bloch vectors."""
    rows = [np.array([1.0, 0.0])]
    for k in range(3):
        phi = 2 * np.pi * k / 3
        rows.append(np.array([1 / np.sqrt(3), np.sqrt(2 / 3) * np.exp(1j * phi)]))
    return nl.Povm(np.array(rows, dtype=complex) / np.sqrt(2))


def checked_input(tr, P: nl.Povm) -> nl.Povm:
    rep = tr.call("povm.validate", nl.validate, P)
    require(rep.ok, f"generated POVM fails validation (residual {rep.max_residual:.3e})")
    return P


def check_report(tr, rep, P: nl.Povm, label: str) -> None:
    """Returned extension and cost checked; the entropy kernel timed on it."""
    ext, e = rep.best_extension, rep.e_used
    ck.check_cost(rep.best_cost, ext.basis, P.matrix, e, label)
    kernel = f"naimark.extension_cost.d{P.d}m{P.m}e{e}"
    total = tr.call(kernel, nl.extension_cost, ext, ck.outcome_weights(P.matrix)).total
    require(abs(total - rep.best_cost) <= ck.COST_TOL, f"{label}: extension_cost {total!r} != best_cost")


def minimize_op(tr, kind: str, label: str, P: nl.Povm, e: int, split: bool = False) -> Op:
    def check(rep) -> Outcome:
        check_report(tr, rep, P, label)
        return Outcome(rep.best_cost, failed=split and rep.best_cost > SPLIT_ZERO, reports=(rep,))

    return Op(kind, label, lambda: tr.call("optimize.minimize", nl.minimize, P, e, CFG), check)


# ---------------------------------------------------------------- haar-scan


def haar_scan(tr, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(HAAR_PER_SHAPE):
        for d, m in HAAR_SHAPES:
            base = tr.call("povm.random_haar", nl.random_haar, d, m, 1000 * d + 10 * m + i)
            P = checked_input(tr, framed(base, rng))
            ops.append(haar_op(tr, f"haar d={d} m={m} #{i}", P))
    return ops


def haar_op(tr, label: str, P: nl.Povm) -> Op:
    def run():
        rep = tr.call("optimize.minimize", nl.minimize, P, 2, CFG)
        return rep, tr.call("bounds.best_bound", nl.best_bound, P)

    def check(res) -> Outcome:
        rep, bb = res
        check_report(tr, rep, P, label)
        ck.check_cost_range(bb.value, P.d, P.m, label + " best_bound")
        # the default completion and the completion routine it rests on
        ext0 = tr.call("naimark.construct_default", nl.construct_default, P, 2)
        ck.check_extension(ext0.basis, P.matrix, 2, label + " default")
        cols = np.zeros((2 * P.d, P.d), dtype=complex)
        cols[: P.m] = P.matrix
        U = tr.call("linalg.gram_schmidt_complete", nl.gram_schmidt_complete, cols)
        unit = float(np.abs(U @ U.conj().T - np.eye(2 * P.d)).max())
        require(unit <= ck.EXT_TOL, f"{label}: completion unitarity residual {unit:.3e}")
        require(np.array_equal(U[:, : P.d], cols), f"{label}: completion changed its input columns")
        return Outcome(rep.best_cost, reports=(rep,))

    return Op("op.haar", label, run, check)


# ------------------------------------------------------------ large-ancilla


def large_ancilla(tr, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    base = tr.call("povm.random_haar", nl.random_haar, 3, 5, 3050)
    P35 = checked_input(tr, framed(base, rng))
    trine = checked_input(tr, tr.call("povm.trine", nl.trine))
    path = os.path.join(workdir, "trine.json")
    tr.call("cli.save_povm", cli.save_povm, trine, path)
    sic = checked_input(tr, qubit_sic())
    Q = checked_input(tr, split_one(tr, two_basis_mixture(tr, SPLIT_SEED), SPLIT_SEED))
    return [
        minimize_op(tr, "op.split", f"split s={SPLIT_SEED} e=4", Q, 4, split=True),
        cli_cost_op(tr, trine, path),
        minimize_op(tr, "op.minimize", "haar d=3 m=5 e=3", P35, 3),
        sweep_op(tr, "SIC e=2..5", sic),
    ]


def cli_cost_op(tr, trine: nl.Povm, path: str) -> Op:
    argv = ["cost", path, "--e-max", "4", "--restarts", "4", "--json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tr.call("cli.main", cli.main, argv)
        return code, out.getvalue()

    def check(res) -> Outcome:
        code, text = res
        require(code == 0, f"cli cost exited with {code}")
        doc = json.loads(text)
        cost = doc["best_cost"]
        ck.check_trine_cost(cost, "cli cost trine")
        ck.check_cost_range(cost, 2, 3, "cli cost trine")
        w = np.array(doc["weights"])
        ent = np.array(doc["per_outcome_entanglement"])
        require(np.abs(w - ck.outcome_weights(trine.matrix)).max() <= 1e-12, "cli cost: weights are not |k|^2/d")
        require(abs(float(w @ ent) - cost) <= 1e-12, "cli cost: weighted entanglements do not sum to best_cost")
        require(2 <= doc["e_used"] <= 4, f"cli cost: e_used {doc['e_used']} outside 2..4")
        bound = doc["best_bound"]["value"]
        require(bound >= ck.trine_value() - ck.TRINE_LOW, f"cli cost: bound {bound!r} below the trine cost")
        return Outcome(cost)

    return Op("op.cli_cost", "cli cost trine e=2..4", run, check)


def sweep_op(tr, label: str, P: nl.Povm) -> Op:
    def check(rep) -> Outcome:
        check_report(tr, rep, P, label)
        return Outcome(rep.best_cost, reports=(rep,))

    return Op("op.sweep", label, lambda: tr.call("optimize.minimize_over_e", nl.minimize_over_e, P, cfg=CFG_SIC), check)


# ----------------------------------------------------------------- analytic


def analytic(tr, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    povm_ops = []
    for d, m in ANALYTIC_SHAPES:
        for i in range(ANALYTIC_PER_SHAPE):
            P = checked_input(tr, tr.call("povm.random_haar", nl.random_haar, d, m, int(rng.integers(2**32))))
            povm_ops.append(povm_op(tr, f"haar d={d} m={m} #{i}", P, zero_cost=False))
    for i in range(ANALYTIC_MIXTURES):
        P = checked_input(tr, two_basis_mixture(tr, int(rng.integers(2**32))))
        povm_ops.append(povm_op(tr, f"mixture #{i}", P, zero_cost=True))
    order = rng.permutation(len(povm_ops))
    scans = scan_ops(tr)
    ops, stride = [], len(povm_ops) // len(scans)
    for k, idx in enumerate(order):
        ops.append(povm_ops[idx])
        if (k + 1) % stride == 0:
            ops.append(scans[k // stride])
    return ops


def povm_op(tr, label: str, P: nl.Povm, zero_cost: bool) -> Op:
    M = P.matrix
    zeta = M[0] / np.linalg.norm(M[0])

    def run():
        bb = tr.call("bounds.best_bound", nl.best_bound, P)
        if P.d == 2:
            cert = tr.call("bounds.zero_cost_decide_d2", nl.zero_cost_decide_d2, P)
        else:
            cert = tr.call("bounds.zero_cost_necessary", nl.zero_cost_necessary, P)
        ext, predicted = tr.call("naimark.prop5_extension", nl.prop5_extension, P, zeta)
        return bb, cert, ext, predicted

    def check(res) -> Outcome:
        bb, cert, ext, predicted = res
        ck.check_cost_range(bb.value, P.d, P.m, label + " best_bound")
        require(bb.value <= predicted + 1e-12, f"{label}: best_bound above its element-1 probe")
        ck.check_extension(ext.basis, M, P.m + 1, label + " prop5")
        ref = ck.svd_cost(ext.basis, M, P.m + 1)
        require(abs(predicted - ref) <= ck.COST_TOL, f"{label}: prop5 closed form {predicted!r} != SVD cost {ref!r}")
        named = tr.call("bounds.bound_prop5", nl.bound_prop5, P, zeta)
        require(abs(named - ref) <= ck.COST_TOL, f"{label}: bound_prop5 {named!r} != SVD cost {ref!r}")
        if cert.decision == "zero":
            ck.check_pairing(M, cert.pairing, label)
        if zero_cost:
            require(cert.decision == "zero", f"{label}: zero-cost mixture decided {cert.decision!r}")
        else:
            ck.check_margins(M, cert.per_element_margins, cert.decision, label)
        return Outcome(bb.value)

    return Op("op.povm", label, run, check)


def scan_ops(tr) -> list[Op]:
    """The four trine scans at the grid sizes of the acceptance suite."""
    T = ck.trine_value()

    def curve(c) -> Outcome:
        require(c.thetas.size == 10_000 and c.thetas[0] == 0.0, "trine_curve: wrong grid")
        require(abs(c.thetas[-1] - np.pi / 3) <= 1e-15, "trine_curve: grid does not end at pi/3")
        ck.check_rising_curve(c.values, "trine_curve")
        return Outcome(None)

    def derivative(s) -> Outcome:
        require(s.monotone and s.min_at == 0.0, f"derivative_sign_scan: {s}")
        return Outcome(None)

    def concavity(r) -> Outcome:
        require(r.is_concave and r.worst_violation <= 1e-10, f"concavity_check: {r}")
        return Outcome(None)

    def mixing(r) -> Outcome:
        require(r.gap >= -1e-12, f"mixing_reduction_scan: mixed ancilla beats pure by {-r.gap:.3e}")
        require(abs(r.pure_min - T) <= 1e-9, f"mixing_reduction_scan: pure minimum {r.pure_min!r} != T")
        return Outcome(None)

    def scan(name, fn, args, check) -> Op:
        return Op("op.scan", name, lambda: tr.call(f"trine_analytic.{name}", fn, *args), check)

    return [
        scan("trine_curve", nl.trine_curve, (9_999,), curve),
        scan("derivative_sign_scan", nl.derivative_sign_scan, (10_000,), derivative),
        scan("concavity_check", nl.concavity_check, (10_000,), concavity),
        scan("mixing_reduction_scan", nl.mixing_reduction_scan, (), mixing),
    ]


WORKLOADS = {"haar-scan": haar_scan, "large-ancilla": large_ancilla, "analytic": analytic}


# ------------------------------------------------------------------ probes


def probe(tr, span: str, workdir: str) -> tuple:
    """Time a layer the workload does not reach; returns any CostReports.

    Only traced runs probe, after their timed phase, so that every traced
    run reports every per-layer metric.
    """
    if span == "optimize.minimize":
        return (tr.call(span, nl.minimize, nl.random_haar(2, 3, 2030), 2, CFG),)
    if span == "optimize.minimize_over_e":
        return (tr.call(span, nl.minimize_over_e, nl.trine(), 2, 2, CFG),)
    if span == "cli.main":
        path = os.path.join(workdir, "probe-trine.json")
        cli.save_povm(nl.trine(), path)
        with contextlib.redirect_stdout(io.StringIO()):
            tr.call(span, cli.main, ["cost", path, "--e", "2", "--restarts", "1", "--json"])
        return ()
    if span.startswith("trine_analytic."):
        for op in scan_ops(tr):
            if op.label == span.split(".")[1]:
                op.check(op.run())
        return ()
    shape = re.fullmatch(r"naimark\.extension_cost\.d(\d+)m(\d+)e(\d+)", span)
    if shape:
        d, m, e = (int(x) for x in shape.groups())
        P = nl.random_haar(d, m, 1000 * d + 10 * m)
        calls = [(nl.extension_cost, (nl.construct_default(P, e), ck.outcome_weights(P.matrix)))]
    else:
        P = nl.random_haar(3, 4, 3040) if span == "bounds.zero_cost_necessary" else nl.random_haar(2, 4, 2040)
        cols = np.zeros((2 * P.d, P.d), dtype=complex)
        cols[: P.m] = P.matrix
        calls = {
            "naimark.construct_default": [(nl.construct_default, (P, 2))],
            "linalg.gram_schmidt_complete": [(nl.gram_schmidt_complete, (cols,))],
            "naimark.prop5_extension": [(nl.prop5_extension, (P, P.matrix[0] / np.linalg.norm(P.matrix[0])))],
            "bounds.best_bound": [(nl.best_bound, (P,))],
            "bounds.zero_cost_decide_d2": [(nl.zero_cost_decide_d2, (P,))],
            "bounds.zero_cost_necessary": [(nl.zero_cost_necessary, (P,))],
        }[span]
    for fn, args in calls * 20:
        tr.call(span, fn, *args)
    return ()
