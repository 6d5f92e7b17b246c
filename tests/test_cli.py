"""Command-line interface: subcommands, formats, and exit codes."""

import json

import numpy as np
import pytest

from indexcode.cli import BUDGET, FAIL, OK, USAGE, main
from indexcode.decoding import save_received, transmit
from indexcode.fields import load_matrix, save_matrix
from indexcode.instances import save_instance


@pytest.fixture()
def files(tmp_path, F2, k3, k3_L, ring5):
    """Write the golden fixtures to disk the way a user would."""
    paths = {
        "k3": tmp_path / "k3.json",
        "k3L": tmp_path / "k3L.txt",
        "ring5": tmp_path / "ring5.json",
        "recv": tmp_path / "recv.txt",
        "tmp": tmp_path,
    }
    save_instance(paths["k3"], k3, F2)
    save_matrix(paths["k3L"], F2, k3_L)
    save_instance(paths["ring5"], ring5, F2)
    view = transmit(k3, F2, k3_L, np.array([1, 0, 1]),
                    np.array([1, 0, 0, 0]), 0)
    save_received(paths["recv"], F2, view)
    return {k: str(v) for k, v in paths.items()}


# ---------------------------------------------------------------------------
# verify / alpha / minrank / bounds
# ---------------------------------------------------------------------------


def test_verify_ok(files, capsys):
    assert main(["verify", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--delta", "1"]) == OK
    out = capsys.readouterr().out
    assert "ok: True" in out and "min_weight: 3" in out


def test_verify_fail_prints_witness(files, capsys):
    assert main(["verify", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--delta", "2"]) == FAIL
    out = capsys.readouterr().out
    assert "ok: False" in out and "witness:" in out


def test_verify_json_format(files, capsys):
    assert main(["verify", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--delta", "1", "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["min_weight"] == 3
    assert doc["witness"] is None


def test_alpha(files, capsys):
    assert main(["alpha", "--instance", files["ring5"]]) == OK
    out = capsys.readouterr().out
    assert "alpha: 2" in out


def test_minrank(files, capsys):
    assert main(["minrank", "--instance", files["k3"],
                 "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["kappa"] == 1 and doc["certified"] is True


def test_bounds(files, capsys):
    assert main(["bounds", "--instance", files["ring5"], "--delta", "2",
                 "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == 2 and doc["kappa"] == 2
    assert doc["alpha_entry"]["N"] == 8 and doc["kappa_entry"]["N"] == 8
    assert doc["singleton"] == 6


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_concat_writes_matrix(files, capsys, F2, k3):
    out_path = files["tmp"] + "/concat.txt"
    assert main(["construct", "concat", "--instance", files["k3"],
                 "--delta", "1", "--out", out_path]) == OK
    L, q = load_matrix(out_path)
    assert q == 2 and np.array_equal(L, np.ones((3, 3), dtype=np.int64))


def test_construct_lift(files, capsys, F2, tmp_path):
    core = tmp_path / "core.txt"
    save_matrix(core, F2, np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]],
                                   dtype=np.int64))
    assert main(["construct", "lift", "--instance", files["ring5"],
                 "--delta", "2", "--core", str(core),
                 "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 8


def test_construct_lift_without_core_is_usage_error(files, capsys):
    assert main(["construct", "lift", "--instance", files["ring5"],
                 "--delta", "2"]) == USAGE


def test_construct_random(files, capsys):
    assert main(["construct", "random", "--instance", files["k3"],
                 "--delta", "1", "--max-n", "6", "--seed", "3",
                 "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["N"] == 6


def test_construct_search_with_certificate(files, capsys, F2, k3):
    cert = files["tmp"] + "/cert.json"
    outm = files["tmp"] + "/opt.txt"
    assert main(["construct", "search", "--instance", files["k3"],
                 "--delta", "1", "--certificate", cert,
                 "--out", outm]) == OK
    out = capsys.readouterr().out
    assert "n_opt: 3" in out
    with open(cert) as fh:
        doc = json.loads(fh.read())
    assert doc["N"] == 3 and doc["certified"] is True
    from indexcode.codes import check_certificate
    check_certificate(k3, F2, json.dumps(doc), delta=1)
    L, q = load_matrix(outm)
    assert L.shape == (3, 3)


def test_construct_search_not_found_is_fail(files, capsys):
    assert main(["construct", "search", "--instance", files["ring5"],
                 "--delta", "1", "--max-n", "4"]) == FAIL


def test_construct_search_budget_exit(files, capsys):
    assert main(["construct", "search", "--instance", files["ring5"],
                 "--delta", "2", "--max-n", "8", "--budget", "50"]) == BUDGET


# ---------------------------------------------------------------------------
# decode / simulate
# ---------------------------------------------------------------------------


def test_decode_golden(files, capsys):
    assert main(["decode", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--received", files["recv"],
                 "--delta", "1"]) == OK
    out = capsys.readouterr().out
    assert "x_hat: 1" in out and "e_hat: 1 0 0 0" in out


def test_decode_receiver_flag_must_match(files, capsys):
    assert main(["decode", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--received", files["recv"],
                 "--delta", "1", "--receiver", "1"]) == OK
    capsys.readouterr()
    assert main(["decode", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--received", files["recv"],
                 "--delta", "1", "--receiver", "2"]) == USAGE


def test_decode_beyond_radius_is_fail(files, capsys, F2, k3, k3_L, tmp_path):
    bad = tmp_path / "bad.txt"
    view = transmit(k3, F2, k3_L, np.zeros(3, dtype=np.int64),
                    np.array([1, 0, 0, 1]), 0)
    save_received(bad, F2, view)
    assert main(["decode", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--received", str(bad),
                 "--delta", "1"]) == FAIL


def test_simulate_clean_campaign(files, capsys):
    assert main(["simulate", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--delta", "1", "--trials", "200",
                 "--seed", "2", "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["successes"] == doc["trials"] == 200


def test_simulate_forced_weight_failure_exit(files, capsys):
    assert main(["simulate", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--delta", "1", "--trials", "1",
                 "--seed", "0", "--exhaustive", "--forced-weight", "2",
                 "--format", "json"]) == FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 48 and doc["successes"] == 0


# ---------------------------------------------------------------------------
# static family commands
# ---------------------------------------------------------------------------


def test_static_verify(files, capsys, F2, tmp_path):
    pair = tmp_path / "pair.txt"
    save_matrix(pair, F2, np.array([[1, 1, 1, 1], [1, 1, 0, 0]],
                                   dtype=np.int64))
    assert main(["static", "verify", "--matrix", str(pair), "--rho", "2",
                 "--delta", "1"]) == FAIL
    out = capsys.readouterr().out
    assert "combination" in out
    assert main(["static", "verify", "--matrix", str(pair), "--rho", "1",
                 "--delta", "0"]) == OK


def test_static_bounds(files, capsys):
    assert main(["static", "bounds", "--n", "20", "--rho", "10",
                 "--delta", "1", "--q", "2", "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rho_star"] == 17
    assert (doc["lower_alpha"], doc["lower_singleton"], doc["upper"]) == \
        (14, 19, 22)


def test_static_construct(files, capsys):
    out_path = files["tmp"] + "/greedy.txt"
    assert main(["static", "construct", "--n", "4", "--rho", "2",
                 "--delta", "1", "--q", "2", "--length", "7",
                 "--out", out_path]) == OK
    L, q = load_matrix(out_path)
    assert L.shape == (4, 7) and q == 2


def test_static_construct_dead_end(files, capsys):
    assert main(["static", "construct", "--n", "4", "--rho", "2",
                 "--delta", "1", "--q", "2", "--length", "4"]) == FAIL


def test_static_resilience(files, capsys, F2, tmp_path):
    pair = tmp_path / "pair2.txt"
    save_matrix(pair, F2, np.array([[1, 1, 1, 0], [1, 1, 0, 1]],
                                   dtype=np.int64))
    assert main(["static", "resilience", "--matrix", str(pair), "--rho", "2",
                 "--t", "2"]) == FAIL
    capsys.readouterr()
    assert main(["static", "resilience", "--matrix", str(pair), "--rho", "2",
                 "--t", "1"]) == OK


def test_static_resilience_rejects_nonbinary(files, capsys, F3, tmp_path):
    tern = tmp_path / "tern.txt"
    save_matrix(tern, F3, np.array([[1, 2], [2, 1]], dtype=np.int64))
    assert main(["static", "resilience", "--matrix", str(tern), "--rho", "1",
                 "--t", "0"]) == USAGE


# ---------------------------------------------------------------------------
# nqkd and error handling
# ---------------------------------------------------------------------------


def test_nqkd_table(files, capsys):
    assert main(["nqkd", "--q", "2", "--k", "2", "--d", "5"]) == OK
    out = capsys.readouterr().out
    assert "GF(2): 8" in out and "provenance: table" in out


def test_nqkd_search_json(files, capsys):
    assert main(["nqkd", "--q", "2", "--k", "2", "--d", "5",
                 "--mode", "search", "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 8 and doc["provenance"] == "search"
    assert doc["refuted"] == {"5": 0, "6": 3, "7": 3}


def test_nqkd_unknown_is_budget_exit(files, capsys):
    # auto mode falls back to an open bracket: no exact answer available
    assert main(["nqkd", "--q", "2", "--k", "12", "--d", "3"]) == BUDGET


def test_missing_file_is_usage_error(files, capsys):
    assert main(["verify", "--instance", files["tmp"] + "/nope.json",
                 "--matrix", files["k3L"], "--delta", "1"]) == USAGE


def test_table_mode_miss_is_usage_error(files, capsys):
    assert main(["nqkd", "--q", "2", "--k", "4", "--d", "3",
                 "--mode", "table"]) == USAGE


def test_argparse_usage_error_raises_systemexit(files):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--delta", "1"])
    assert exc.value.code == 2


def test_no_subcommand_prints_help(capsys):
    assert main([]) == USAGE
    assert "verify" in capsys.readouterr().out
