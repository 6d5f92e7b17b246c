"""Command-line interface: subcommands, formats, and exit codes."""

import contextlib
import io
import json

import numpy as np
import pytest

from indexcode.cli import BUDGET, FAIL, OK, USAGE, build_parser, main
from indexcode.decoding import save_received, transmit
from indexcode.fields import load_matrix, save_matrix
from indexcode.instances import save_instance


@pytest.fixture()
def files(tmp_path, F2, k3, k3_L, ring5, pentagon):
    """Write the golden fixtures to disk the way a user would."""
    paths = {
        "k3": tmp_path / "k3.json",
        "k3L": tmp_path / "k3L.txt",
        "ring5": tmp_path / "ring5.json",
        "pentagon": tmp_path / "pentagon.json",
        "recv": tmp_path / "recv.txt",
        "tmp": tmp_path,
    }
    save_instance(paths["k3"], k3, F2)
    save_matrix(paths["k3L"], F2, k3_L)
    save_instance(paths["ring5"], ring5, F2)
    save_instance(paths["pentagon"], pentagon, F2)
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


def test_verify_budget_caps_each_receiver_span(files, F2, pentagon_L9,
                                               capsys):
    # every pentagon receiver scans q^|Y_i| = 4 combinations; below that
    # verify stops rather than switching to a slower enumeration
    path = files["tmp"] + "/pentagonL9.txt"
    save_matrix(path, F2, pentagon_L9)
    argv = ["verify", "--instance", files["pentagon"], "--matrix", path,
            "--delta", "2", "--budget"]
    assert main(argv + ["4"]) == OK
    assert "method: receiver-span" in capsys.readouterr().out
    assert main(argv + ["3"]) == BUDGET
    assert "4 combinations exceed cap 3" in capsys.readouterr().err


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


def test_construct_search_budget_stop_names_refuted_lengths(files, capsys):
    # the pentagon at delta=2 refutes N=5,6,7 in 0, 31, 31 nodes; N=8 needs
    # 10,688, so a budget of 100 nodes per length stops there
    assert main(["construct", "search", "--instance", files["pentagon"],
                 "--delta", "2", "--budget", "100"]) == BUDGET
    err = capsys.readouterr().err
    assert "at length 8" in err and "[5, 6, 7]" in err


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


def test_decode_wrong_length_word_is_usage_error(files, capsys, tmp_path):
    matrix = tmp_path / "L.txt"
    matrix.write_text("3 3 2\n1 1 1\n1 1 1\n1 1 1\n")
    recv = tmp_path / "short.txt"
    recv.write_text("1 1 2\n1\n2:1 3:0\n")
    assert main(["decode", "--instance", files["k3"], "--matrix",
                 str(matrix), "--received", str(recv),
                 "--delta", "1"]) == USAGE
    assert "1 symbols" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"n": 3, "f": [1.5, 2, 3], "X": [[2], [3], [1]], "q": 2},
    {"n": 3, "f": [True, 2, 3], "X": [[2], [3], [1]], "q": 2},
    {"n": 3, "f": ["2", 3, 1], "X": [[2], [3], [1]], "q": 2},
    {"n": 3, "f": [1, 2, 3], "X": [[2], [3], [1]], "q": "2"},
    [1, 2, 3],
])
def test_mistyped_instance_is_usage_error(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for cmd in ("alpha", "minrank"):
        assert main([cmd, "--instance", str(path)]) == USAGE
        assert "error" in capsys.readouterr().err.lower()


def test_decode_negative_radius_is_usage_error(files, capsys):
    assert main(["decode", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--received", files["recv"],
                 "--delta", "-1"]) == USAGE
    assert "delta must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [2, 4])
@pytest.mark.parametrize("cmd", [
    ["decode", "--received", "recv"],
    ["simulate", "--trials", "8", "--seed", "0"],
    ["simulate", "--trials", "1", "--seed", "0", "--exhaustive"],
])
def test_matrix_with_the_wrong_row_count_is_usage_error(files, capsys, F2,
                                                        k3_L, rows, cmd):
    # two rows used to crash with IndexError; four ran a campaign scaled by
    # q^4 as if k3 had four messages
    path = files["tmp"] + "/rows.txt"
    save_matrix(path, F2, np.vstack([k3_L, k3_L])[:rows])
    argv = [files.get(a, a) for a in cmd]
    assert main(argv + ["--instance", files["k3"], "--matrix", path,
                        "--delta", "1"]) == USAGE
    assert "matrix must have 3 rows" in capsys.readouterr().err


def test_simulate_clean_campaign(files, capsys):
    assert main(["simulate", "--instance", files["k3"], "--matrix",
                 files["k3L"], "--delta", "1", "--trials", "200",
                 "--seed", "2", "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["successes"] == doc["trials"] == 200


def test_simulate_workers_split_the_same_campaign(files, capsys):
    tallies = []
    for workers in ("1", "2"):
        assert main(["simulate", "--instance", files["k3"], "--matrix",
                     files["k3L"], "--delta", "1", "--trials", "200",
                     "--seed", "2", "--workers", workers,
                     "--format", "json"]) == OK
        tallies.append(json.loads(capsys.readouterr().out))
    assert tallies[0] == tallies[1] and tallies[1]["successes"] == 200


@pytest.mark.parametrize("argv", [
    ["nqkd", "--q", "2", "--k", "3", "--d", "3"],
    ["bounds", "--instance", "k3"],
    ["construct", "search", "--instance", "k3", "--delta", "1"],
])
def test_search_commands_take_no_workers(files, capsys, argv):
    # the search is one process: only simulate splits work
    argv = [files.get(a, a) for a in argv] + ["--workers", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == USAGE
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


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


def test_static_construct_seeded_order_is_reproducible(files, capsys):
    argv = ["static", "construct", "--n", "4", "--rho", "2", "--delta", "1",
            "--q", "2", "--length", "7", "--order", "seeded"]
    outs = []
    for extra in ([], [], ["--seed", "0"]):
        assert main(argv + extra) == OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


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


def test_nqkd_auto_proves_cited_values(files, capsys):
    assert main(["nqkd", "--q", "2", "--k", "2", "--d", "5"]) == OK
    out = capsys.readouterr().out
    assert "GF(2): 8" in out and "provenance: search" in out
    assert main(["nqkd", "--q", "2", "--k", "10", "--d", "3"]) == OK
    out = capsys.readouterr().out
    assert "GF(2): 14" in out and "provenance: hamming" in out


def test_nqkd_search_json(files, capsys):
    assert main(["nqkd", "--q", "2", "--k", "2", "--d", "5",
                 "--mode", "search", "--format", "json"]) == OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 8 and doc["provenance"] == "search"
    assert doc["refuted"] == {"5": 0, "6": 3, "7": 3}


def test_nqkd_unknown_is_budget_exit(files, capsys):
    # auto mode falls back to an open bracket: no exact answer available
    assert main(["nqkd", "--q", "2", "--k", "9", "--d", "5"]) == BUDGET
    assert "bracket: 13..19" in capsys.readouterr().out


def test_nqkd_length_cap_is_fail(files, capsys):
    # every length up to --max-n is refuted: a proved answer, as for
    # construct search, not a budget stop
    assert main(["nqkd", "--q", "2", "--k", "3", "--d", "3",
                 "--max-n", "4"]) == FAIL
    out = capsys.readouterr().out
    assert "provenance: search" in out and "bracket: 5..6" in out
    assert "refuted lengths: [3, 4]" in out
    # one length more closes the bracket: Varshamov's 6 is then the answer
    assert main(["nqkd", "--q", "2", "--k", "3", "--d", "3",
                 "--max-n", "5"]) == OK
    out = capsys.readouterr().out
    assert "GF(2): 6" in out and "bracket: 6..6" in out
    assert "refuted lengths: [3, 4, 5]" in out


def test_nqkd_budget_stop_is_budget_exit(files, capsys):
    assert main(["nqkd", "--q", "2", "--k", "4", "--d", "5",
                 "--budget", "100"]) == BUDGET
    out = capsys.readouterr().out
    assert "provenance: bracket" in out and "bracket: 11..12" in out
    assert "refuted lengths: [5, 6, 7, 8, 9]" in out


def test_missing_file_is_usage_error(files, capsys):
    assert main(["verify", "--instance", files["tmp"] + "/nope.json",
                 "--matrix", files["k3L"], "--delta", "1"]) == USAGE


def test_table_mode_miss_is_usage_error(files, capsys):
    # argparse rejects a mode it does not offer
    with pytest.raises(SystemExit) as exc:
        main(["nqkd", "--q", "2", "--k", "4", "--d", "3", "--mode", "table"])
    assert exc.value.code == USAGE
    assert "invalid choice: 'table'" in capsys.readouterr().err


def test_argparse_usage_error_raises_systemexit(files):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--delta", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["minrank", "--budget", "-1"],
    ["verify", "--matrix", "k3L", "--delta", "0", "--budget", "-1"],
    ["simulate", "--matrix", "k3L", "--delta", "0", "--trials", "1",
     "--seed", "0", "--workers", "0"],
    ["simulate", "--matrix", "k3L", "--delta", "0", "--trials", "1",
     "--seed", "0", "--exhaustive", "--workers", "0"],
    ["simulate", "--matrix", "k3L", "--delta", "1", "--trials", "1",
     "--seed", "0", "--workers", "-2"],
    # counts below 1 used to run and report a false verdict: ok: False,
    # an empty refutation map, or a budget stop
    ["construct", "random", "--delta", "1", "--attempts", "-2"],
    ["construct", "random", "--delta", "1", "--attempts", "0"],
    ["construct", "search", "--delta", "1", "--max-n", "-1"],
    ["nqkd", "--q", "2", "--k", "3", "--d", "3", "--max-n", "-1"],
])
def test_negative_budget_and_nonpositive_workers_are_usage_errors(
        files, capsys, argv):
    argv = [files.get(a, a) for a in argv] + ["--instance", files["k3"]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == USAGE
    err = capsys.readouterr().err
    assert "must be >= 0" in err or "must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--instance", "k3", "--matrix", "k3L", "--delta", "1",
     "--trials", "1"],
    ["construct", "random", "--instance", "k3", "--delta", "1"],
    ["static", "construct", "--n", "4", "--rho", "2", "--delta", "1",
     "--q", "2", "--length", "7", "--order", "seeded"],
])
def test_negative_seeds_are_usage_errors(files, capsys, argv):
    # numpy seeds are non-negative; a negative one used to fail inside
    # numpy after the inputs were loaded
    argv = [files.get(a, a) for a in argv] + ["--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == USAGE
    assert "must be >= 0" in capsys.readouterr().err


def test_zero_budget_is_a_budget_stop(files, capsys):
    assert main(["minrank", "--instance", files["k3"], "--budget", "0",
                 "--format", "json"]) == BUDGET
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is False and doc["nodes"] == 1


def test_no_subcommand_prints_help(capsys):
    assert main([]) == USAGE
    assert "verify" in capsys.readouterr().out


def test_reused_parser_keeps_no_state_between_calls(files, capsys):
    assert build_parser() is build_parser()

    random = ["construct", "random", "--instance", files["k3"],
              "--delta", "1", "--max-n", "6", "--format", "json"]
    outs = []
    for extra in (["--seed", "3"], [], ["--seed", "0"]):
        assert main(random + extra) == OK
        outs.append(json.loads(capsys.readouterr().out)["L"])
    assert outs[1] == outs[2] != outs[0]

    minrank = ["minrank", "--instance", files["k3"], "--format", "json"]
    assert main(minrank + ["--budget", "0"]) == BUDGET
    assert json.loads(capsys.readouterr().out)["certified"] is False
    assert main(minrank) == OK
    assert json.loads(capsys.readouterr().out)["certified"] is True

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--delta", "1"])
    assert exc.value.code == USAGE
    assert main(minrank) == OK
    capsys.readouterr()

    # help goes to the stdout of the call, not the one at first build
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([]) == USAGE
        assert "verify" in buf.getvalue()
