import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gramclust
from gramclust import (
    NotConvergedWarning,
    SymMatrix,
    brute_force_clust,
    random_centered_psd,
    solve_sdp,
)
from gramclust import cli, pipeline, sdp
from gramclust.cli import build_parser, main, run_analyze_b, run_cluster, run_oracle

ANTIPODAL_DOC = {"A": [[1.0, -1.0], [-1.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}


def write_json(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parse(argv):
    return build_parser().parse_args(argv)


class TestCluster:
    def test_antipodal_fixture(self, tmp_path):
        path = write_json(tmp_path, ANTIPODAL_DOC)
        report = run_cluster(parse(["cluster", path, "--trials", "16"]))
        assert report["rounding"]["best_value"] == pytest.approx(2.0)
        lo, hi = report["certified_interval"]
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(2.0, rel=1e-6)  # (1/2) * 4
        assert lo <= hi * (1 + 1e-6)

    def test_zero_fixture(self, tmp_path):
        doc = {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
        report = run_cluster(parse(["cluster", write_json(tmp_path, doc)]))
        assert report["rounding"]["best_value"] == 0.0
        assert report["certified_interval"] == [0.0, 0.0]

    def test_degenerate_b_trivial_report(self, tmp_path):
        doc = {"A": [[1.0, -1.0], [-1.0, 1.0]], "B": [[1.0, 1.0], [1.0, 1.0]]}
        report = run_cluster(parse(["cluster", write_json(tmp_path, doc)]))
        assert report["degenerate"]
        assert report["rounding"]["best_value"] == 0.0
        assert len(set(report["rounding"]["sigma"])) == 1

    def test_deterministic_modulo_timestamp(self, tmp_path):
        path = write_json(tmp_path, ANTIPODAL_DOC)
        args = parse(["cluster", path, "--seed", "5", "--trials", "8"])
        r1 = run_cluster(args)
        r2 = run_cluster(parse(["cluster", path, "--seed", "5", "--trials", "8"]))
        r1.pop("timestamp")
        r2.pop("timestamp")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_capped_run_upper_end_is_dual_bound(self, tmp_path, monkeypatch):
        # one ascent step leaves r2 * value below Clust on this instance;
        # the dual certificate still bounds it
        a = random_centered_psd(8, np.random.default_rng(0))
        b = SymMatrix.from_array(np.eye(2))
        path = write_json(tmp_path, {"A": a.mat.tolist(), "B": b.mat.tolist()})
        monkeypatch.setattr(sdp, "MAX_ITERS", 1)
        monkeypatch.setattr(sdp, "RESTARTS", 1)
        with pytest.warns(NotConvergedWarning):
            report = run_cluster(parse(["cluster", path, "--trials", "1"]))
        clust, _ = brute_force_clust(a, b)
        r2 = report["ball"]["r2"]
        assert r2 * report["sdp"]["value"] < clust
        assert report["certified_interval"][1] == r2 * report["sdp"]["dual_upper"]
        assert report["certified_interval"][1] >= clust

    def test_csv_ingestion(self, tmp_path):
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        a_path.write_text("1.0,-1.0\n-1.0,1.0\n")
        b_path.write_text("1.0,0.0\n0.0,1.0\n")
        report = run_cluster(
            parse(["cluster", "--a", str(a_path), "--b", str(b_path)])
        )
        assert report["rounding"]["best_value"] == pytest.approx(2.0)
        digest = hashlib.sha256(a_path.read_bytes() + b_path.read_bytes()).hexdigest()
        assert report["inputs"]["sha256"] == digest

    def test_sha256_covers_raw_json_bytes(self, tmp_path):
        path = tmp_path / "spaced.json"
        path.write_text(json.dumps(ANTIPODAL_DOC, indent=3) + "\n")
        report = run_cluster(parse(["cluster", str(path), "--trials", "4"]))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert report["inputs"]["sha256"] == digest

    def test_hardness_block_matches_analyze_b(self, tmp_path):
        path = write_json(tmp_path, ANTIPODAL_DOC)
        for argv in ([], ["--mu-epsilon", "0.01"]):
            report = run_cluster(parse(["cluster", path, *argv]))
            analyzed = run_analyze_b(parse(["analyze-b", path, *argv]))
            assert report["hardness"] == analyzed["hardness"]
            assert report["hardness"]["dictatorship_objective"] == pytest.approx(0.5)
        assert report["hardness"]["epsilon"] == 0.01

    @pytest.mark.parametrize("command", ["cluster", "analyze-b"])
    def test_one_by_one_b_is_degenerate(self, tmp_path, command):
        # one Gram vector: R(B) = 0, every clustering of a centered A has value 0
        doc = {"A": [[1.0, -1.0], [-1.0, 1.0]], "B": [[1.0]]}
        out = tmp_path / "report.json"
        assert main([command, write_json(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["degenerate"] is True
        assert report["ball"]["r2"] == 0.0
        assert "cb" not in report
        if command == "cluster":
            assert report["certified_interval"] == [0.0, 0.0]

    @pytest.mark.parametrize("command", ["cluster", "analyze-b"])
    @pytest.mark.parametrize(
        "b", [[[5e-324]], [[5e-324, 5e-324], [5e-324, 5e-324]]], ids=["1x1", "2x2"]
    )
    def test_subnormal_b_is_degenerate(self, tmp_path, command, b):
        # B at the bottom of the subnormal range gets the degenerate report
        # that [[1.0]] and ones((2, 2)) get
        doc = {"A": [[1.0, -1.0], [-1.0, 1.0]], "B": b}
        out = tmp_path / "report.json"
        assert main([command, write_json(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["degenerate"] is True
        assert "cb" not in report

    def test_library_entry_point_matches_cli(self, tmp_path):
        a = random_centered_psd(6, np.random.default_rng(2))
        b = SymMatrix.from_array(np.diag([1.0, 1.0, 2.0]))
        path = write_json(tmp_path, {"A": a.mat.tolist(), "B": b.mat.tolist()})
        report = run_cluster(parse(["cluster", path, "--seed", "5", "--trials", "8"]))
        for key in ("timestamp", "versions", "seed", "inputs"):
            report.pop(key)
        library = gramclust.cluster(a, b, trials=8, seed=5)
        assert json.dumps(library, sort_keys=True) == json.dumps(report, sort_keys=True)

    @pytest.mark.parametrize("e", [-70, 60])
    def test_scale_free(self, e):
        # the report of A * 2^e is that of A, its values times 2^e
        a = random_centered_psd(8, np.random.default_rng(4))
        g = np.random.default_rng(5).standard_normal((3, 3))
        b = SymMatrix.from_array(g @ g.T / 3)
        base = gramclust.cluster(a, b, trials=16, seed=3)
        scaled = gramclust.cluster(SymMatrix(a.mat * 2.0 ** e), b, trials=16, seed=3)
        for key in ("value", "dual_upper"):
            assert scaled["sdp"][key] == math.ldexp(base["sdp"][key], e), key
        assert scaled["certified_interval"] == [
            math.ldexp(end, e) for end in base["certified_interval"]
        ]
        assert scaled["rounding"]["sigma"] == base["rounding"]["sigma"]


    def test_small_b_interval_holds_clust(self):
        # every threshold of the B half is relative to B, so a tiny B is not
        # mistaken for a degenerate one and the interval still holds Clust
        a = random_centered_psd(6, np.random.default_rng(1))
        b = SymMatrix(np.eye(3) * 2.0 ** -70)
        report = gramclust.cluster(a, b, trials=16, seed=0)
        clust, _ = brute_force_clust(a, b)
        lo, hi = report["certified_interval"]
        assert report["degenerate"] is False
        assert report["ball"]["r2"] == pytest.approx(math.ldexp(2.0 / 3.0, -70), rel=1e-12)
        assert lo <= clust * (1.0 + 1e-12) and clust <= hi


class TestValidationErrors:
    def test_corrupted_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["cluster", str(bad)]) == 2

    def test_non_psd_a_exit_2(self, tmp_path):
        doc = {"A": [[0.0, 1.0], [1.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
        assert main(["cluster", write_json(tmp_path, doc)]) == 2

    def test_non_centered_a_exit_2(self, tmp_path):
        doc = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
        assert main(["cluster", write_json(tmp_path, doc)]) == 2
        # a small offset is still an offset: centering is checked relative to A
        doc = {"A": (1e-20 * np.eye(2)).tolist(), "B": np.eye(3).tolist()}
        assert main(["cluster", write_json(tmp_path, doc)]) == 2

    def test_nan_rejected(self, tmp_path):
        doc = {"A": [[1.0, -1.0], [-1.0, None]], "B": [[1.0, 0.0], [0.0, 1.0]]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc).replace("null", "NaN"))
        assert main(["cluster", str(path)]) == 2

    def test_large_asymmetry_rejected(self, tmp_path):
        doc = {"A": [[1.0, -1.0], [-0.9, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
        assert main(["cluster", write_json(tmp_path, doc)]) == 2

    def test_small_asymmetry_symmetrized(self, tmp_path):
        doc = {
            "A": [[1.0, -1.0], [-1.0 + 1e-12, 1.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
        }
        report = run_cluster(parse(["cluster", write_json(tmp_path, doc)]))
        assert report["inputs"]["symmetrization_applied"]
        assert report["inputs"]["max_asymmetry"] == pytest.approx(1e-12)

    def test_missing_matrix_exit_2(self, tmp_path):
        assert main(["cluster", write_json(tmp_path, {"B": [[1.0]]})]) == 2

    @pytest.mark.parametrize("command", ["cluster", "analyze-b"])
    @pytest.mark.parametrize(
        "matrix",
        [
            [["x"]],
            [[1.0, 2.0], [3.0]],
            {"a": 1},
            [[1.0, 0.0], [0.0, "2"]],
            [[1.0, 0.0], [0.0, True]],
            [[1.0, 0.0], [0.0, 10 ** 400]],
        ],
        ids=["string", "ragged", "object", "digit-string", "boolean", "huge-integer"],
    )
    def test_non_numeric_json_matrix_exit_2(self, tmp_path, capsys, command, matrix):
        # numpy would read "2" as 2.0 and true as 1.0
        doc = {"A": ANTIPODAL_DOC["A"], "B": matrix}
        assert main([command, write_json(tmp_path, doc)]) == 2
        assert "matrix B is not a numeric matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "[[1, 2], [3, 4]]",
            "[[1.0, -0.5], [2e300, 0.0]]",
            "[[1, 2.5], [-3, 4.0]]",
            "[[1.0, true]]",
            '[[1.0, "2"]]',
            "[[1.0, null]]",
            '[[1.0, {"a": 1}]]',
            '[[1.0], {"a": 1}]',
            "[[1.0], {}]",
            '[[1.0], ""]',
            '[[1.0], "12"]',
            "[[1.0], 3]",
            "[[[1.0]], [[2.0]]]",
            "[[1.0, 2.0], [3.0]]",
            "[[1.0, " + "1" * 401 + "]]",
            "[]",
            "[[]]",
            "[1.0, 2.0]",
            '{"a": 1}',
            '"abc"',
            "2.0",
        ],
    )
    def test_json_numbers_matches_walk(self, text):
        def walk(raw):
            # the leaf-by-leaf check that the one-pass type scan short-cuts
            stack = [raw]
            while stack:
                item = stack.pop()
                if isinstance(item, list):
                    stack.extend(item)
                elif isinstance(item, bool) or not isinstance(item, (int, float)):
                    return False
            return True

        raw = json.loads(text)
        assert cli._json_numbers(raw) == walk(raw)

    @pytest.mark.parametrize("command", ["cluster", "analyze-b"])
    def test_small_matrix_asymmetry_exit_2(self, tmp_path, capsys, command):
        # the cutoff is relative to the matrix: an asymmetry as large as the
        # entries is rejected at any scale
        m = (1e-12 * np.array([[1.0, -1.0], [0.0, 1.0]])).tolist()
        assert main([command, write_json(tmp_path, {"A": m, "B": m})]) == 2
        assert "asymmetry" in capsys.readouterr().err

    @pytest.mark.parametrize("e", [-70, 0, 40])
    def test_small_indefinite_exit_2(self, tmp_path, e):
        # the PSD test is relative to the spectral norm, at any scale
        a = np.array([[1.0, 0.0, -1.0], [0.0, -1.0, 1.0], [-1.0, 1.0, 0.0]]) * 2.0 ** e
        b = np.array([[1.0, 2.0], [2.0, 1.0]]) * 2.0 ** e
        doc_a = {"A": a.tolist(), "B": np.eye(3).tolist()}
        assert main(["cluster", write_json(tmp_path, doc_a, "a.json")]) == 2
        assert main(["analyze-b", write_json(tmp_path, {"B": b.tolist()}, "b.json")]) == 2

    @pytest.mark.parametrize(
        "matrix",
        [1e-300 * np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros((3, 3))],
        ids=["tiny-symmetric", "zero"],
    )
    def test_symmetric_or_zero_accepted(self, matrix):
        sym = cli._ingest(matrix.tolist(), "A")
        assert sym.asymmetry == 0.0
        np.testing.assert_array_equal(sym.mat, matrix)

    @pytest.mark.parametrize("command", ["cluster", "analyze-b", "oracle"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # the check comes before any work: no solver may run
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the --out check")

        monkeypatch.setattr(pipeline, "cluster", forbidden)
        monkeypatch.setattr(pipeline, "analyze_b", forbidden)
        monkeypatch.setattr(cli, "brute_force_clust", forbidden)
        path = write_json(tmp_path, ANTIPODAL_DOC)
        missing = tmp_path / "missing" / "report.json"
        for out in (missing, tmp_path):
            assert main([command, path, "--out", str(out)]) == 2
            assert f"error: cannot write {out}" in capsys.readouterr().err
        assert not missing.parent.exists()

    @pytest.mark.parametrize("text", ["", "# header\n\n"], ids=["empty", "comment-only"])
    def test_csv_without_data_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "b.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's no-data warning fails here
            assert main(["analyze-b", "--b", str(path)]) == 2
        assert "holds no data" in capsys.readouterr().err

    def test_non_object_json_exit_2(self, tmp_path):
        for doc in (3, [[1.0]]):
            assert main(["analyze-b", write_json(tmp_path, doc)]) == 2

    @staticmethod
    def exit_code(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code

    def test_nonpositive_trials_exit_2(self, tmp_path):
        path = write_json(tmp_path, ANTIPODAL_DOC)
        for value in ("0", "-1"):
            assert self.exit_code(["cluster", path, "--trials", value]) == 2

    def test_nonpositive_mu_epsilon_exit_2(self, tmp_path):
        path = write_json(tmp_path, ANTIPODAL_DOC)
        for value in ("0", "-1"):
            assert self.exit_code(["analyze-b", path, "--mu-epsilon", value]) == 2
            assert self.exit_code(["cluster", path, "--mu-epsilon", value]) == 2

    @pytest.mark.parametrize(
        "command, flag, values",
        [
            pytest.param(command, flag, values, id=flag[2:])
            for command, flag, values in (
                ("cluster", "--threads", ("0", "-2", "abc")),
                ("oracle", "--max-states", ("0", "-5")),
            )
        ],
    )
    def test_numeric_flag_limits_exit_2(self, tmp_path, command, flag, values):
        path = write_json(tmp_path, ANTIPODAL_DOC)
        for value in values:
            assert self.exit_code([command, path, flag, value]) == 2, value

    @pytest.mark.parametrize("command", ["cluster", "analyze-b"])
    @pytest.mark.parametrize(
        "flag",
        [
            "--epsilon", "--net-delta-override", "--fp-tol", "--max-iters",
            "--sdp-rank0", "--sdp-grad-tol", "--sdp-max-iters", "--sdp-restarts",
        ],
    )
    def test_removed_search_flags_rejected(self, tmp_path, capsys, command, flag):
        # the C(B) search and the SDP have fixed constants; cluster's --seed
        # drives the SDP starts and the rounding alone
        path = write_json(tmp_path, ANTIPODAL_DOC)
        assert self.exit_code([command, path, flag, "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_threads_env_ignored(self, tmp_path, monkeypatch):
        # --threads is the one way to pass a thread count, and it is ignored
        path = write_json(tmp_path, ANTIPODAL_DOC)
        monkeypatch.setenv("GRAMCLUST_THREADS", "abc")
        assert main(["cluster", path, "--out", str(tmp_path / "c.json")]) == 0
        assert parse(["cluster", path]).threads == 1

    @pytest.mark.parametrize("command", ["cluster"])
    def test_negative_seed_exit_2(self, tmp_path, command):
        # the SDP and the rounding seed numpy generators, which reject them
        path = write_json(tmp_path, ANTIPODAL_DOC)
        assert self.exit_code([command, path, "--seed", "-1"]) == 2

    @pytest.mark.parametrize("command", ["analyze-b", "oracle"])
    def test_seed_flag_removed(self, tmp_path, capsys, command):
        # nothing these commands compute draws at random
        path = write_json(tmp_path, ANTIPODAL_DOC)
        assert self.exit_code([command, path, "--seed", "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        out = tmp_path / "report.json"
        assert main([command, path, "--out", str(out)]) == 0
        assert "seed" not in json.loads(out.read_text())

    def test_coarse_oracle_grid_exit_2(self, tmp_path):
        path = write_json(tmp_path, ANTIPODAL_DOC)
        assert self.exit_code(["oracle", path, "--grid", "179"]) == 2

    def test_one_configuration_per_command(self, tmp_path):
        # the hardness block is always in the cluster report, and selftest
        # always runs the whole suite: neither has a switch
        path = write_json(tmp_path, ANTIPODAL_DOC)
        assert self.exit_code(["cluster", path, "--with-hardness"]) == 2
        assert self.exit_code(["selftest", "--quick"]) == 2


class TestAnalyzeB:
    def test_bc1_ratio(self, tmp_path):
        doc = {"B": np.diag([1.0, 1.0, 1.0]).tolist()}
        report = run_analyze_b(parse(["analyze-b", write_json(tmp_path, doc)]))
        assert report["approx_ratio"] == pytest.approx(16.0 * math.pi / 27.0, rel=1e-6)

    def test_bc_quarter_two_cell_partition(self, tmp_path):
        doc = {"B": np.diag([1.0, 1.0, 0.25]).tolist()}
        report = run_analyze_b(parse(["analyze-b", write_json(tmp_path, doc)]))
        assert len(report["cb"]["active"]) == 2

    def test_identity2_grothendieck(self, tmp_path):
        doc = {"B": [[1.0, 0.0], [0.0, 1.0]]}
        report = run_analyze_b(parse(["analyze-b", write_json(tmp_path, doc)]))
        assert report["approx_ratio"] == pytest.approx(math.pi / 2.0, rel=1e-9)
        assert report["hardness"]["mu"] == pytest.approx([0.5, 0.5])

    def test_near_repeated_label(self, tmp_path):
        # the second Gram vector is the first moved by 1e-12
        v = np.random.default_rng(2).standard_normal((4, 4))
        v[1] = v[0]
        v[1, 3] += 1e-12
        out = tmp_path / "report.json"
        path = write_json(tmp_path, {"B": (v @ v.T).tolist()})
        assert main(["analyze-b", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["cb"]["c_estimate"] <= report["ball"]["r2"]

    @pytest.mark.parametrize(
        "b, degenerate",
        [(np.diag([1.0, 1.0, 0.25]), False), (np.ones((2, 2)), True)],
        ids=["diag-quarter", "degenerate"],
    )
    def test_same_b_blocks_as_cluster(self, tmp_path, b, degenerate):
        a = random_centered_psd(4, np.random.default_rng(1))
        path = write_json(tmp_path, {"A": a.mat.tolist(), "B": b.tolist()})
        analyzed = run_analyze_b(parse(["analyze-b", path]))
        clustered = run_cluster(parse(["cluster", path, "--trials", "4"]))
        assert analyzed["degenerate"] is degenerate
        for key in ("ball", "degenerate", "cb", "approx_ratio", "hardness"):
            assert analyzed.get(key) == clustered.get(key), key


class TestOracleCommand:
    def test_oracle_report(self, tmp_path):
        path = write_json(tmp_path, ANTIPODAL_DOC)
        report = run_oracle(parse(["oracle", path]))
        assert report["clust_value"] == pytest.approx(2.0)
        assert sorted(report["sigma"]) == [0, 1]

    def test_oracle_c3(self, tmp_path):
        doc = {
            "A": [[1.0, -1.0], [-1.0, 1.0]],
            "B": np.diag([1.0, 1.0, 1.0]).tolist(),
        }
        report = run_oracle(parse(["oracle", write_json(tmp_path, doc), "--grid", "240"]))
        assert report["c3_grid"] == pytest.approx(9.0 / (8.0 * math.pi), abs=1e-3)


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, gramclust.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_defers_pool_and_acceptance(self):
        # nothing loads a thread pool, and the suite loads only for
        # selftest, so neither is paid by every cluster run
        code = (
            "import sys, gramclust.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'gramclust.acceptance')"
            " if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_threads_flag_changes_nothing(self, tmp_path):
        # the restarts and the trials run serially at any --threads, so the
        # reports match byte for byte and no thread pool is imported
        a = random_centered_psd(8, np.random.default_rng(2))
        g = np.random.default_rng(3).standard_normal((4, 4))
        path = write_json(tmp_path, {"A": a.mat.tolist(), "B": (g @ g.T / 4).tolist()})
        outs = [tmp_path / f"t{t}.json" for t in (1, 2)]
        runs = [
            ["cluster", path, "--trials", "8", "--threads", str(t), "--out", str(out)]
            for t, out in zip((1, 2), outs)
        ]
        code = (
            "import sys; from gramclust.cli import main; "
            f"print([main(argv) for argv in {runs!r}], "
            "'concurrent.futures' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0] False", proc.stdout
        texts = [out.read_text().splitlines() for out in outs]
        strip = [[ln for ln in t if '"timestamp"' not in ln] for t in texts]
        assert strip[0] == strip[1]

    def test_runtime_runs_with_scipy_blocked(self, tmp_path):
        a = random_centered_psd(6, np.random.default_rng(1))
        path = write_json(tmp_path, {"A": a.mat.tolist(), "B": np.eye(3).tolist()})
        # a 5 x 5 B reaches the quadruple seeds and the cells in cone dimension 3
        g = np.random.default_rng(0).standard_normal((5, 8))
        path5 = write_json(tmp_path, {"B": (g @ g.T / 8).tolist()}, "b5.json")
        # n = 8 with a 4 x 4 B runs the triple and quadruple fixed points
        # inside a whole cluster run
        a8 = random_centered_psd(8, np.random.default_rng(2))
        g4 = np.random.default_rng(3).standard_normal((4, 4))
        path8 = write_json(
            tmp_path, {"A": a8.mat.tolist(), "B": (g4 @ g4.T / 4).tolist()}, "k4.json"
        )
        out = tmp_path / "cluster.json"
        runs = [
            ["cluster", path, "--trials", "8", "--out", str(out)],
            ["analyze-b", path, "--out", str(tmp_path / "analyze.json")],
            ["analyze-b", path5, "--out", str(tmp_path / "analyze5.json")],
            ["cluster", path8, "--trials", "8", "--out", str(tmp_path / "cluster8.json")],
            ["oracle", path, "--out", str(tmp_path / "oracle.json")],
            ["selftest"],
        ]
        code = (
            "import sys; sys.modules['scipy'] = None; "
            "from gramclust.cli import main; "
            f"print([main(argv) for argv in {runs!r}])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0]", proc.stdout
        # the sdp block, and with it the interval's upper end, is the one
        # solve, whichever C(B) partition the rounding used
        report = json.loads(out.read_text())
        sol = solve_sdp(a, seed=0)
        assert "polish" not in report["sdp"]
        assert report["sdp"]["rank"] == sol.rank
        assert report["sdp"]["value"] == sol.value
        assert report["sdp"]["dual_upper"] == sol.dual_upper
        assert report["certified_interval"][1] == report["ball"]["r2"] * sol.dual_upper


CLI_MODULES = ("matrixcore", "ball", "hardness", "conic", "sdp", "rounding", "oracle")


def console_script_command():
    """The interpreter call a pip-generated ``gramclust`` script makes: it
    imports the entry point named in pyproject.toml and exits with its
    return value."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^gramclust = "([\w.]+):(\w+)"$', text, re.M).groups()
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code]


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        code = "import sys, gramclust; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("name", gramclust.__all__)
    def test_every_public_name_resolves(self, name):
        namespace: dict = {}
        exec(f"from gramclust import {name}", namespace)
        assert namespace[name] is getattr(gramclust, name)
        assert name in dir(gramclust)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gramclust.no_such_name  # noqa: B018

    def test_cli_import_loads_every_traced_module(self):
        # tracers wrap these modules' functions once gramclust.cli is loaded
        code = (
            "import sys, gramclust.cli; "
            f"print([m for m in {CLI_MODULES!r} if 'gramclust.' + m not in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def noise_b_doc(n: int) -> dict:
    """A full-rank centered Wishart A of n points in R^n and a 3 x 3
    Wishart B, drawn with numpy alone."""
    rng = np.random.default_rng([9064816, n])
    u = rng.standard_normal((n, n))
    u -= u.mean(axis=0)
    a = u @ u.T
    g = rng.standard_normal((3, 6))
    return {"A": ((a + a.T) / 2.0).tolist(), "B": (g @ g.T / 6).tolist()}


class TestProcess:
    def test_report_independent_of_blas_threads(self, tmp_path):
        # on this A the SDP ascent took 220 steps at one OpenBLAS thread
        # and 212 at two while the caller's setting reached BLAS
        path = write_json(tmp_path, noise_b_doc(300))
        texts = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "gramclust.cli", "cluster", path,
                 "--trials", "8", "--out", str(out)],
                capture_output=True, text=True, timeout=300,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            texts.append([ln for ln in out.read_text().splitlines() if '"timestamp"' not in ln])
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("entry", ["module", "console-script"])
    def test_piped_report_complete(self, tmp_path, entry):
        # the process ends without interpreter teardown, after flushing
        command = (
            [sys.executable, "-m", "gramclust.cli"] if entry == "module"
            else console_script_command()
        )
        # a block-buffered stdout, the default on a pipe, holds the report
        # until the flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        a = random_centered_psd(8, np.random.default_rng(2))
        path = write_json(tmp_path, {"A": a.mat.tolist(), "B": np.eye(3).tolist()})
        proc = subprocess.run(
            [*command, "cluster", path, "--trials", "8"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["inputs"]["n"] == 8
        assert len(report["rounding"]["sigma"]) == 8

        bad = write_json(
            tmp_path, {"A": [[1.0, 2.0], [2.0, 1.0]], "B": np.eye(2).tolist()}, "bad.json"
        )
        proc = subprocess.run(
            [*command, "cluster", bad], capture_output=True, text=True, timeout=300, env=env
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: A is not positive semidefinite")


class TestSelftest:
    def test_selftest_exit_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gramclust.cli", "selftest"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout
