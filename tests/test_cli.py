import csv
import io
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from naimark_lab import OptimizerConfig, Povm, best_bound, minimize, random_haar, trine, validate
from naimark_lab import optimize
from naimark_lab.cli import SEED_ENV_VAR, load_povm, main, save_povm
from conftest import TRINE_EXACT, haar_unitary, kpom, qubit_sic


def write_povm(tmp_path, P, name="p.json"):
    path = tmp_path / name
    save_povm(P, str(path))
    return str(path)


def test_save_load_round_trip_exact(tmp_path):
    P = random_haar(3, 5, seed=2)
    path = write_povm(tmp_path, P)
    Q = load_povm(path)
    assert np.array_equal(P.matrix, Q.matrix)  # repr round-trip, bit for bit
    assert Q.d == 3 and Q.m == 5


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    from naimark_lab.cli import PovmFileError

    with pytest.raises(PovmFileError):
        load_povm(str(bad))
    bad.write_text(json.dumps({"d": 2, "elements": [[[1, 0]], [[0, 1]]]}))  # 1 pair per row
    with pytest.raises(PovmFileError):
        load_povm(str(bad))
    bad.write_text('{"d": 1' + "0" * 5000 + "}")  # json's int() refuses past 4300 digits
    with pytest.raises(PovmFileError, match="cannot read POVM file"):
        load_povm(str(bad))


def test_validate_exit_codes(tmp_path):
    good = write_povm(tmp_path, trine())
    assert main(["validate", good]) == 0
    scaled = write_povm(tmp_path, Povm(trine().matrix * 0.9), "scaled.json")
    assert main(["validate", scaled]) == 1
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_validate_reports_overflowing_residual_as_inf(tmp_path, capsys):
    big = write_povm(tmp_path, Povm(np.ones((3, 2)) * 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", big]) == 1
    captured = capsys.readouterr()
    assert "max residual |M^dag M - I|: inf" in captured.out
    assert captured.out.rstrip().endswith("INVALID")
    assert captured.err == ""


def test_validate_output(tmp_path, capsys):
    main(["validate", write_povm(tmp_path, trine())])
    out = capsys.readouterr().out
    assert "d = 2, m = 3" in out
    assert "VALID" in out and "INVALID" not in out


def test_validate_names_zero_norm_elements(tmp_path, capsys):
    P = Povm(np.vstack([trine().matrix, np.zeros((1, 2))]))
    assert main(["validate", write_povm(tmp_path, P)]) == 0
    out = capsys.readouterr().out
    assert "zero-norm elements (1-based): 4" in out
    assert out.rstrip().endswith("VALID")


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param('{"d": 2}', id="no-elements"),
        pytest.param('{"d": 2, "elements": 5}', id="elements-not-a-list"),
        pytest.param('{"d": "two", "elements": [[[1, 0]]]}', id="d-not-a-number"),
        pytest.param('{"d": 2, "elements": [[[1, 0], [0, 0]]]}', id="fewer-rows-than-d"),
        pytest.param('{"d": 1e400, "elements": [[[1, 0]]]}', id="d-overflows"),
        pytest.param('{"d": 0, "elements": [[]]}', id="d-zero"),
        pytest.param('{"d": 2.9, "elements": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}', id="d-not-an-integer"),
        pytest.param('{"d": "2", "elements": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}', id="d-a-string"),
        pytest.param('{"d": true, "elements": [[[1, 0]]]}', id="d-a-bool"),
        pytest.param('{"d": 2, "elements": [[["1", 0], [0, 0]], [[0, 0], [1, 0]]]}', id="coefficient-a-string"),
        pytest.param('{"d": 2, "elements": [[[true, 0], [0, 0]], [[0, 0], [1, 0]]]}', id="coefficient-a-bool"),
    ],
)
def test_malformed_povm_file_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: malformed POVM file {str(path)!r}")


def test_cost_json_fields(tmp_path, capsys):
    path = write_povm(tmp_path, trine())
    assert main(["cost", path, "--e", "2", "--restarts", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 2 and doc["m"] == 3 and doc["e_used"] == 2
    assert abs(doc["best_cost"] - TRINE_EXACT) < 1e-3
    assert doc["normalized_cost"] == doc["best_cost"]  # log2(2) = 1
    assert len(doc["per_outcome_entanglement"]) == 3
    assert abs(sum(doc["weights"]) - 1) < 1e-12
    assert doc["restarts_run"] == 4
    assert set(doc["best_bound"]) == {"value", "witness"}
    runs = doc["restarts"]
    assert [run["start"] for run in runs] == ["default", "seed+1", "seed+2", "seed+3"]
    assert min(run["value"] for run in runs) == pytest.approx(doc["best_cost"], abs=1e-12)
    for run in runs:
        assert set(run) == {"start", "value", "grad_norm", "iterations", "evaluations", "stop"}
        assert run["stop"] in ("grad_tol", "objective_tol", "max_iters", "line_search")


def test_cost_text_output(tmp_path, capsys):
    assert main(["cost", write_povm(tmp_path, trine()), "--e", "2", "--restarts", "4"]) == 0
    out = capsys.readouterr().out
    assert "best cost: 0.496005034 ebits (e = 2)" in out
    assert "  outcome 3: weight 0.333333, entanglement 0.000000" in out
    assert "restarts: 4, converged: True" in out
    # a von Neumann measurement runs every restart too, each stopping at its start
    vn = write_povm(tmp_path, Povm(haar_unitary(2, np.random.default_rng(3))), "vn.json")
    assert main(["cost", vn, "--e", "2", "--restarts", "3"]) == 0
    assert "restarts: 3, converged: True" in capsys.readouterr().out
    assert main(["cost", vn, "--e", "2", "--restarts", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["restarts_run"] == len(doc["restarts"]) == 3
    assert {run["stop"] for run in doc["restarts"]} == {"grad_tol"}


def test_cost_rejects_invalid_povm(tmp_path):
    scaled = write_povm(tmp_path, Povm(trine().matrix * 0.9))
    assert main(["cost", scaled, "--e", "2"]) == 1


def test_cost_accepts_what_validates_at_its_tol(tmp_path, capsys):
    # residual 4e-8: valid at --tol 1e-7, and the search runs on the trine's chart
    near = write_povm(tmp_path, Povm(trine().matrix * (1 + 2e-8)), "near.json")
    assert main(["cost", near, "--e", "2", "--restarts", "2", "--tol", "1e-7", "--json"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["best_cost"] - TRINE_EXACT) <= 1e-7
    assert main(["cost", near, "--e", "2", "--restarts", "2"]) == 1  # fails validation at 1e-9


def test_cost_capacity_exit_2(tmp_path):
    path = write_povm(tmp_path, random_haar(2, 5, 0))
    assert main(["cost", path, "--e", "2", "--restarts", "1"]) == 2


def test_cost_e_alone_is_the_one_point_sweep(tmp_path, capsys):
    # above m*d = 6 both spellings are rejected; at e = 2 they give the same bits
    path = write_povm(tmp_path, trine())
    assert main(["cost", path, "--e", "7", "--restarts", "1"]) == 2
    assert main(["cost", path, "--e", "7", "--e-max", "7", "--restarts", "1"]) == 2
    assert capsys.readouterr().err.count("e_max must be <= m*d") == 2
    docs = []
    for extra in ([], ["--e-max", "2"]):
        assert main(["cost", path, "--e", "2", "--restarts", "2", "--json", *extra]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0] == docs[1]


def test_bounds_and_zero_cert_reject_invalid_povm(tmp_path, capsys):
    scaled = write_povm(tmp_path, Povm(trine().matrix * 0.9))
    assert main(["bounds", scaled]) == 1
    assert main(["zero-cert", scaled]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("fails validation") == 2


def test_d1_povm_exit_1(tmp_path, capsys):
    p1 = tmp_path / "d1.json"
    p1.write_text(json.dumps({"d": 1, "elements": [[[1.0, 0.0]]]}))
    for command in ("cost", "bounds", "zero-cert"):
        assert main([command, str(p1)]) == 1
    assert capsys.readouterr().err.count("requires a POVM with d >= 2") == 3


def test_bounds_output(tmp_path, capsys):
    assert main(["bounds", write_povm(tmp_path, trine())]) == 0
    out = capsys.readouterr().out
    assert "0.666667" in out  # 1 - 1/3
    assert "0.600876" in out
    assert "minimum: " in out and "witness: zeta=" in out


def test_zero_cert_trine(tmp_path, capsys):
    path = write_povm(tmp_path, trine())
    assert main(["zero-cert", path]) == 0
    out = capsys.readouterr().out
    assert "decision: NONZERO" in out
    assert "margin mu = 1: -0.666667" in out
    assert main(["zero-cert", path, "--assert-zero"]) == 1


def test_zero_cert_kpom_pairing(tmp_path, capsys):
    path = write_povm(tmp_path, kpom())
    assert main(["zero-cert", path, "--assert-zero"]) == 0
    out = capsys.readouterr().out
    assert "decision: ZERO" in out
    assert "pairing: (1,2), (3,4)" in out


def test_zero_cert_bad_tolerance_exit_2(tmp_path, capsys):
    # -1: a tolerance is never negative; 0.49: the SIC validates, but its
    # directions overlap at 1/sqrt(3) and merge into one element; 0.6: the
    # d = 2 decision needs tol < 1/2
    path = write_povm(tmp_path, qubit_sic())
    messages = {
        "-1": "--tol must be >= 0, got -1.0",
        "0.49": "merging parallel elements at tol = 0.49 leaves 1 element(s), fewer than d = 2",
        "0.6": "needs 1e-12 <= tol < 1/2",
    }
    for tol, message in messages.items():
        assert main(["zero-cert", path, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "decision" not in captured.out
    # a negative tolerance is rejected before the file is read
    assert main(["zero-cert", str(tmp_path / "missing.json"), "--tol", "-1"]) == 2
    assert "--tol must be >= 0" in capsys.readouterr().err


def test_zero_cert_notes_merged_elements(tmp_path, capsys):
    # elements 1 and 2 are parallel: the d = 2 decision sees their merge, m = 2
    s = np.sqrt(0.5)
    path = write_povm(tmp_path, Povm(np.array([[s, 0], [s, 0], [0, 1]], dtype=complex)))
    assert main(["zero-cert", path]) == 0
    out = capsys.readouterr().out
    assert "note: margins refer to the POVM after merging parallel elements (m = 2)" in out
    assert "margin mu = 3" not in out and "decision: ZERO" in out


def test_zero_cert_d3_necessary_only(tmp_path, capsys):
    from conftest import n_d3

    assert main(["zero-cert", write_povm(tmp_path, n_d3())]) == 0
    out = capsys.readouterr().out
    assert "decision: INCONCLUSIVE" in out
    assert "necessary condition only" in out


def test_trine_command_writes_curve(tmp_path, capsys):
    out_csv = tmp_path / "curve.csv"
    assert main(["trine", "--grid", "40", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "theta,E"
    assert len(lines) == 42  # header + grid + 1 samples
    theta0, e0 = (float(x) for x in lines[1].split(","))
    assert theta0 == 0.0 and abs(e0 - TRINE_EXACT) < 1e-9
    assert "nondecreasing on [0, pi/3]: True" in capsys.readouterr().out


def test_trine_rejects_bad_grid(tmp_path):
    assert main(["trine", "--grid", "0", "--out", str(tmp_path / "x.csv")]) == 2


def test_random_scan_csv(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    code = main(
        ["random-scan", "--d", "2", "--m", "3", "--count", "4", "--seed", "9",
         "--restarts", "2", "--out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "seed_index,cost,bound_m,bound_d,best_bound"
    assert len(lines) == 5
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [0.0, 1.0, 2.0, 3.0]
    assert all(r[2] == 1 - 1 / 3 for r in rows)
    text = capsys.readouterr().out
    # the summary must agree with the table; a violation row warns, exit stays 0.
    # At e = 2 = m - d + 1 every best_bound probe is an achieved cost: it is the cap.
    if any(r[1] > r[4] + 1e-6 for r in rows):
        assert "WARNING" in text
    else:
        assert "all rows satisfy cost <= best_bound + 1e-6" in text
    assert "finding (d = 2, e = 2)" in text


@pytest.mark.parametrize("stack_size", [None, 16])
def test_random_scan_table_is_the_per_povm_minimize_loop_byte_for_byte(tmp_path, monkeypatch, stack_size):
    # the scan runs its POVMs in lockstep stacks (one of 40, or 16 + 16 + 8); its
    # table is the one a loop of minimize calls writes, byte for byte
    if stack_size is not None:
        monkeypatch.setattr(optimize, "_MANY_STACK", stack_size)
    out_csv = tmp_path / "scan.csv"
    assert main(["random-scan", "--d", "2", "--m", "3", "--count", "40", "--seed", "5",
                 "--out", str(out_csv)]) == 0
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["seed_index", "cost", "bound_m", "bound_d", "best_bound"])
    for i in range(40):
        P = random_haar(2, 3, 5 + i)
        bb = best_bound(P, seed=5 + i)
        cost = minimize(P, 2, OptimizerConfig(restarts=6, seed=5)).best_cost
        writer.writerow([i, cost, bb.bound_element_count, bb.bound_dimension, bb.value])
    assert out_csv.read_bytes() == expected.getvalue().encode()


def test_random_scan_count_zero(tmp_path):
    out_csv = tmp_path / "empty.csv"
    assert main(["random-scan", "--d", "2", "--m", "3", "--count", "0",
                 "--out", str(out_csv)]) == 0
    assert out_csv.read_text().strip() == "seed_index,cost,bound_m,bound_d,best_bound"


def test_random_scan_env_seed_matches_flag(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    main(["random-scan", "--d", "2", "--m", "3", "--count", "3", "--seed", "17",
          "--restarts", "2", "--out", str(a)])
    monkeypatch.setenv(SEED_ENV_VAR, "17")
    main(["random-scan", "--d", "2", "--m", "3", "--count", "3",
          "--restarts", "2", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_random_scan_rejects_m_below_d():
    assert main(["random-scan", "--d", "3", "--m", "2", "--count", "1"]) == 2


def test_random_scan_e2_compares_with_caps_not_best_bound(tmp_path, capsys):
    # best_bound (0.1524) lies below this POVM's e = 2 minimum; it holds only from e = m - d + 1 = 3
    out_csv = tmp_path / "scan.csv"
    assert main(["random-scan", "--d", "2", "--m", "4", "--count", "1", "--seed", "2050",
                 "--out", str(out_csv)]) == 0
    text = capsys.readouterr().out
    assert "WARNING" not in text
    assert "all rows satisfy cost <= min(bound_m, bound_d) + 1e-6" in text


def test_random_scan_e2_warns_on_a_row_stuck_above_best_bound(tmp_path, capsys, monkeypatch):
    # at d = 2, m = 3 every best_bound probe is an achieved cost from e = m - d + 1 = 2, so a
    # search that stops between best_bound and the caps is stuck, and the scan must say so
    seed = 11

    def stuck(povms, e, cfg):
        reports = []
        for i, P in enumerate(povms):
            bb = best_bound(P, seed=seed + i)
            cap = min(bb.bound_element_count, bb.bound_dimension)
            assert bb.value + 1e-3 < cap
            reports.append(SimpleNamespace(best_cost=(bb.value + cap) / 2))
        return reports

    monkeypatch.setattr("naimark_lab.cli.minimize_many", stuck)
    assert main(["random-scan", "--d", "2", "--m", "3", "--e", "2", "--count", "2",
                 "--seed", str(seed), "--out", str(tmp_path / "scan.csv")]) == 0
    assert "WARNING: 2 rows exceed best_bound + 1e-6" in capsys.readouterr().out


def test_restarts_zero_exit_2(tmp_path, capsys):
    path = write_povm(tmp_path, trine())
    assert main(["cost", path, "--e", "2", "--restarts", "0"]) == 2
    assert main(["random-scan", "--d", "2", "--m", "3", "--count", "1", "--restarts", "0",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.count("error: ") == 2


def test_random_scan_d1_exit_1(tmp_path, capsys):
    assert main(["random-scan", "--d", "1", "--m", "1", "--count", "1",
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert "error: " in capsys.readouterr().err


def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch):
    bad = str(tmp_path / "no_such_dir" / "out")
    pa = write_povm(tmp_path, trine(), "a.json")
    pb = write_povm(tmp_path, kpom(), "b.json")
    assert main(["tensor", pa, pb, bad]) == 2
    assert main(["random-scan", "--d", "2", "--m", "3", "--count", "1", "--restarts", "1",
                 "--out", bad]) == 2

    def fail(*args, **kwargs):
        raise AssertionError("trine ran its optimizer before opening its output")

    monkeypatch.setattr("naimark_lab.cli.minimize", fail)
    assert main(["trine", "--out", bad]) == 2
    assert capsys.readouterr().err.count("error: ") == 3


def test_tensor_command(tmp_path):
    pa = write_povm(tmp_path, trine(), "a.json")
    pb = write_povm(tmp_path, kpom(), "b.json")
    out = tmp_path / "ab.json"
    assert main(["tensor", pa, pb, str(out)]) == 0
    T = load_povm(str(out))
    assert T.d == 4 and T.m == 12
    assert validate(T).ok


def test_tensor_rejects_trivial_factor(tmp_path):
    pa = write_povm(tmp_path, trine(), "a.json")
    p1 = tmp_path / "d1.json"
    p1.write_text(json.dumps({"d": 1, "elements": [[[1.0, 0.0]]]}))
    assert main(["tensor", pa, str(p1), str(tmp_path / "o.json")]) == 1
    assert main(["tensor", pa, str(tmp_path / "absent.json"), str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize(
    "argv, env, code, message",
    [
        pytest.param(["cost", "{povm}", "--e", "2", "--restarts", "1", "--seed", "-5"], None, 2,
                     "--seed must be >= 0, got -5", id="cost-negative-seed"),
        pytest.param(["random-scan", "--d", "2", "--m", "3", "--count", "1", "--seed", "-5",
                      "--out", "{out}"], None, 2, "--seed must be >= 0, got -5",
                     id="random-scan-negative-seed"),
        pytest.param(["bounds", "{povm}"], "abc", 2,
                     f"{SEED_ENV_VAR} must be a non-negative integer, got 'abc'",
                     id="bounds-env-seed-not-integer"),
        pytest.param(["bounds", "{povm}"], "-3", 2,
                     f"{SEED_ENV_VAR} must be a non-negative integer, got '-3'",
                     id="bounds-env-seed-negative"),
        pytest.param(["cost", "{povm}", "--tol", "-1"], None, 2, "--tol must be >= 0, got -1.0",
                     id="cost-negative-tol"),
        pytest.param(["validate", "{povm}", "--tol", "nan"], None, 2, "--tol must be >= 0, got nan",
                     id="validate-nan-tol"),
        pytest.param(["trine", "--grid", "4", "--out", "{out}"], "x", 2,
                     f"{SEED_ENV_VAR} must be a non-negative integer, got 'x'",
                     id="trine-env-seed-not-integer"),
        pytest.param(["random-scan", "--d", "1", "--m", "1", "--count", "1", "--out", "{out}"],
                     None, 1, "random-scan requires d >= 2", id="random-scan-d1"),
        pytest.param(["cost", "{scaled}", "--e", "2"], None, 1, "input POVM fails validation",
                     id="cost-invalid-povm"),
        pytest.param(["cost", "{povm}", "--e", "2", "--restarts", "-1"], None, 2,
                     "--restarts must be >= 1, got -1", id="cost-negative-restarts"),
        pytest.param(["random-scan", "--d", "2", "--m", "3", "--count", "1", "--restarts", "0",
                      "--out", "{out}"], None, 2, "--restarts must be >= 1, got 0",
                     id="random-scan-zero-restarts"),
        pytest.param(["random-scan", "--d", "2", "--m", "3", "--e", "1", "--count", "0",
                      "--out", "{out}"], None, 2, "--e 1 is too small: d*e = 2 < m = 3",
                     id="random-scan-capacity-before-loop"),
        pytest.param(["zero-cert", "{povm}", "--tol", "1e-13"], None, 2,
                     "--tol must be >= 1e-12 for zero-cert", id="zero-cert-tol-below-rounding"),
        # rejected before the file is read: the completions check columns at 1e-7
        pytest.param(["cost", "{missing}", "--e", "2", "--tol", "0.1"], None, 2,
                     "--tol must be <= 1e-07 for cost", id="cost-tol-above-completion-gate"),
        pytest.param(["random-scan", "--d", "2", "--m", "3", "--count", "-1", "--out", "{out}"],
                     None, 2, "--count must be >= 0", id="random-scan-negative-count"),
    ],
)
def test_error_exit_contract(tmp_path, capsys, monkeypatch, argv, env, code, message):
    # one error: line on stderr, nothing on stdout, no output file left behind
    paths = {
        "{povm}": write_povm(tmp_path, trine()),
        "{scaled}": write_povm(tmp_path, Povm(trine().matrix * 0.9), "scaled.json"),
        "{out}": str(tmp_path / "out.csv"),
        "{missing}": str(tmp_path / "missing.json"),
    }
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if env is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env)
    assert main([paths.get(arg, arg) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert not (tmp_path / "out.csv").exists()
