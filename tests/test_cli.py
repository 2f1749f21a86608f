import csv
import hashlib
import json
import math

import numpy as np
import pytest

from srmcmc import ProductMeasure, chains, exact
from srmcmc.cli import ConfigError, main, load_kernel_csv


def write_kernel_csv(path, M):
    """Write M as the CSV kernel file that ``load_kernel_csv`` reads."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in np.asarray(M):
            w.writerow([repr(float(v)) for v in row])


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def product_config(tmp_path, **chain):
    chain.setdefault("steps", 200)
    return write_config(tmp_path, {
        "measure": {"kind": "product", "q": [0.3, 0.8, 0.5, 0.6]},
        "chain": chain,
    })


class TestSample:
    def test_record_count_and_format(self, tmp_path):
        cfg = product_config(tmp_path, steps=100, thin=5, chains=2, seed=7)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        files = sorted(out.glob("chain_*.jsonl"))
        assert [f.name for f in files] == ["chain_00.jsonl", "chain_01.jsonl"]
        lines = files[0].read_text().splitlines()
        assert len(lines) == 20
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"step", "set", "logw", "move", "accepted"}
            assert rec["move"] in ("add", "del", "swap", "hold")
            assert rec["set"] == sorted(rec["set"])
        assert json.loads(lines[-1])["step"] == 100

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = product_config(tmp_path, steps=500, seed=3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sample", "--config", cfg, "--out", str(out1)])
        main(["sample", "--config", cfg, "--out", str(out2)])
        assert (out1 / "chain_00.jsonl").read_bytes() == \
            (out2 / "chain_00.jsonl").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = product_config(tmp_path, steps=500, seed=3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sample", "--config", cfg, "--out", str(out1)])
        main(["sample", "--config", cfg, "--out", str(out2), "--seed", "4"])
        assert (out1 / "chain_00.jsonl").read_text() != \
            (out2 / "chain_00.jsonl").read_text()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": [0.5]},
            "chain": {"steps": 10, "stepz": 10},
        })
        assert main(["sample", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("measure,chain,n", [
        ({"kind": "dpp-L", "preset": "fig1b-like"}, {}, 200),
        ({"kind": "dpp-L", "preset": "fig1c-like"}, {}, 200),
        ({"kind": "dpp-L", "rbf": {"points_path": "points.csv",
                                   "bandwidth": 0.5}}, {}, 6),
        ({"kind": "dpp-L", "spectrum_step": {"N": 8, "k": 4, "hi": 50.0,
                                             "lo": 0.02, "seed": 2}}, {}, 8),
        ({"kind": "product-k", "q": [0.3, 0.8, 0.5, 0.6], "k": 2},
         {"kind": "exchange", "init": "random-positive"}, 4),
    ], ids=["fig1b-like", "fig1c-like", "rbf", "spectrum_step", "product-k"])
    def test_measure_sources(self, tmp_path, measure, chain, n):
        np.savetxt(tmp_path / "points.csv",
                   np.random.default_rng(0).random((6, 2)), delimiter=",")
        if "rbf" in measure:
            measure["rbf"]["points_path"] = str(tmp_path / "points.csv")
        cfg = write_config(tmp_path, {
            "measure": measure, "chain": {"steps": 50, "seed": 1, **chain}})
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        recs = [json.loads(line) for line in
                (out / "chain_00.jsonl").read_text().splitlines()]
        assert len(recs) == 50
        assert all(0 <= i < n for rec in recs for i in rec["set"])
        if measure["kind"] == "product-k":
            assert {len(rec["set"]) for rec in recs} == {2}

    @pytest.mark.parametrize("cfg,digest", [
        ({"measure": {"kind": "product", "q": [0.3, 0.8, 0.5, 0.6]},
          "chain": {"kind": "add-delete", "steps": 300, "seed": 3}},
         "4b741aa5edf24b78eb8af41abe5da851e56119fe5e35c4e8645d6779f2e752a6"),
        ({"measure": {"kind": "dpp-L", "preset": "fig1b-like"},
          "chain": {"kind": "projection", "steps": 600, "seed": 1,
                    "init": "random-positive"}},
         "a1489d21771221dda6135de325da70dc0b7cb2738d94c831dcc37e582966ef9c"),
        ({"measure": {"kind": "product-k", "q": [0.3, 0.8, 0.5, 0.6, 0.4],
                      "k": 2},
          "chain": {"kind": "exchange", "steps": 300, "seed": 2,
                    "init": "random-positive"}},
         "31bd1d00eda67fb48892b91db927798257cc8ef2150edd14d1c78a42c7806021"),
    ], ids=["product-add-delete", "fig1b-like-projection",
            "product-k-exchange"])
    def test_transcript_bytes_pinned(self, tmp_path, cfg, digest):
        # Fixed-seed output is part of the interface: a refactor of the
        # chain path must leave these files byte-identical.
        out = tmp_path / "out"
        assert main(["sample", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        data = (out / "chain_00.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestKernelCsv:
    def test_round_trip(self, tmp_path):
        M = np.array([[2.0, 0.25], [0.25, 3.0]])
        path = tmp_path / "k.csv"
        write_kernel_csv(path, M)
        assert np.array_equal(load_kernel_csv(path), M)

    def test_asymmetric_rejected_with_location(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.5\n0.2,1.0\n")
        with pytest.raises(ValueError, match="asymmetric at row"):
            load_kernel_csv(path)

    def test_non_numeric_cell_names_line_and_col(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.5\n0.5,abc\n")
        with pytest.raises(ValueError, match="2:2"):
            load_kernel_csv(path)

    def test_asymmetry_above_kernel_tolerance_rejected(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.5\n0.500000005,1.0\n")
        with pytest.raises(ConfigError, match="asymmetric at row"):
            load_kernel_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.0\n0.0,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_kernel_csv(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n")
        with pytest.raises(ValueError, match="square"):
            load_kernel_csv(path)


class TestExact:
    def test_diag_dpp_report(self, tmp_path):
        kpath = tmp_path / "L.csv"
        write_kernel_csv(kpath, np.diag([2.0, 3.0]))
        cfg = write_config(tmp_path, {
            "measure": {"kind": "dpp-L", "kernel_path": str(kpath)},
        })
        out = tmp_path / "out"
        assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "exact_report.json").read_text())
        assert report["n"] == 2
        assert report["marginals"] == pytest.approx([2 / 3, 3 / 4])
        assert report["distribution"] == \
            pytest.approx([1 / 12, 2 / 12, 3 / 12, 6 / 12])
        assert report["log_submodular"]["holds"] is True

    def test_marginal_kernel_at_elementary_limit_fails(self, tmp_path):
        kpath = tmp_path / "K.csv"
        write_kernel_csv(kpath, np.diag([1.0, 0.5]))
        cfg = write_config(tmp_path, {
            "measure": {"kind": "dpp-K", "kernel_path": str(kpath)},
        })
        assert main(["exact", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2

    def test_marginal_kernel_round_trips(self, tmp_path):
        kpath = tmp_path / "K.csv"
        write_kernel_csv(kpath, np.diag([2 / 3, 3 / 4]))
        cfg = write_config(tmp_path, {
            "measure": {"kind": "dpp-K", "kernel_path": str(kpath)},
        })
        out = tmp_path / "out"
        assert main(["exact", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "exact_report.json").read_text())
        assert report["marginals"] == pytest.approx([2 / 3, 3 / 4])


class TestCheck:
    def test_default_fixture_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["pass"] is True
        assert len(report["fixtures"]) == 4
        for entry in report["fixtures"]:
            assert entry["stationary"] and entry["bound_dominates"]

    def test_literal_delete_fails(self, tmp_path):
        cfg = write_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out),
                     "--paper-literal-delete"]) == 2
        report = json.loads((out / "check_report.json").read_text())
        assert report["pass"] is False
        assert any(not e["stationary"] for e in report["fixtures"])

    @pytest.mark.parametrize("flags,builds",
                             [([], 4), (["--paper-literal-delete"], 8)])
    def test_builds_each_matrix_once(self, tmp_path, monkeypatch, flags,
                                     builds):
        """One corrected projection matrix per fixture serves stationarity,
        lumping, mixing and the bound; the literal one is built only under
        the flag."""
        calls = []
        original = exact.transition_matrix

        def counted(*args, **kwargs):
            calls.append(kwargs.get("paper_literal_delete", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(exact, "transition_matrix", counted)
        cfg = write_config(tmp_path, {})
        main(["check", "--config", cfg, "--out", str(tmp_path / "out"),
              *flags])
        assert len(calls) == builds
        assert calls.count(True) == (4 if flags else 0)

    @pytest.mark.parametrize("eps", [[0.0], "0.05", []])
    def test_bad_eps_rejected_before_enumerating(self, tmp_path, monkeypatch,
                                                 capsys, eps):
        calls = []
        monkeypatch.setattr(exact, "enumerate_distribution",
                            lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path, {"eps": eps})
        assert main(["check", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "eps" in capsys.readouterr().err
        assert calls == []

    def test_configured_measure(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"kind": "table", "weights": [1, 2, 3, 6]},
            "eps": [0.05],
        })
        assert main(["check", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 0


class TestBound:
    def test_uniform_singleton_value(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": [0.5, 0.5]},
            "bound": {"S0": [0], "eps": 0.05},
        })
        out = tmp_path / "out"
        assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bound.json").read_text())
        assert report["theorem_bound"] == pytest.approx(40.6014, abs=1e-3)
        assert report["log_pi_s0"] == pytest.approx(math.log(0.25))

    def test_explicit_log_pi_skips_enumeration(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": [0.5] * 4},
            "bound": {"S0": [0, 1], "eps": 0.01,
                      "log_pi_S0": math.log(1 / 16)},
        })
        out = tmp_path / "out"
        assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bound.json").read_text())
        want = 2 * 16 * (math.log(6) + math.log(16) + math.log(100))
        assert report["theorem_bound"] == pytest.approx(want)

    def test_start_set_from_default_init(self, tmp_path):
        q = [0.3, 0.8, 0.5, 0.6]
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": q},
            "bound": {"eps": 0.05},
        })
        out = tmp_path / "out"
        assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bound.json").read_text())
        # the heaviest singleton of a product measure has the largest odds
        assert report["s0"] == [1]
        want = math.log(0.7 * 0.8 * 0.5 * 0.4)
        assert report["log_pi_s0"] == pytest.approx(want)
        assert report["theorem_bound"] == pytest.approx(
            chains.theorem_bound(4, 1, want, 0.05))

    def test_start_set_without_chain_steps(self, tmp_path):
        # bound runs no chain, so a chain section without steps is enough
        # to choose the start set.
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": [0.3, 0.8, 0.5, 0.6]},
            "chain": {"init": "random-positive", "seed": 2},
        })
        out = tmp_path / "out"
        assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bound.json").read_text())
        spec = chains.ChainSpec("projection", steps=0, seed=2,
                                init="random-positive")
        q = ProductMeasure([0.3, 0.8, 0.5, 0.6])
        want = chains.initial_state(q, spec, chains.chain_rng(2))
        assert report["s0"] == want.indices().tolist()

    @pytest.mark.parametrize("cfg,digest", [
        ({"measure": {"kind": "product", "q": [0.3, 0.8, 0.5, 0.6]},
          "bound": {"S0": [2, 0], "eps": 0.01}},
         "4e9ce178e5d553caf4096501d4135ec4e93a8fcb6c81652b0c4878b315b54e0e"),
        ({"measure": {"kind": "dpp-L",
                      "spectrum_step": {"N": 8, "k": 4, "hi": 50.0,
                                        "lo": 0.02, "seed": 2}},
          "chain": {"init": "random-positive", "seed": 4}},
         "1408a83a89a90cd37848f181f67423601a113db7804350d7e015abe0b30ad700"),
    ], ids=["explicit-S0", "derived-S0"])
    def test_bound_json_pinned(self, tmp_path, capsys, cfg, digest):
        # The report is fixed byte for byte: its fields are n, s0,
        # log_pi_s0, eps and theorem_bound, and nothing else.
        out = tmp_path / "out"
        assert main(["bound", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        data = (out / "bound.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and lines[-1].startswith("projection-chain")

    @pytest.mark.parametrize("where", ["top", "bound"])
    @pytest.mark.parametrize("eps", [[0.05], "0.05", True])
    def test_bad_eps_rejected(self, tmp_path, capsys, where, eps):
        cfg = {"measure": {"kind": "product", "q": [0.5, 0.5]},
               "bound": {"S0": [0]}}
        (cfg if where == "top" else cfg["bound"])["eps"] = eps
        assert main(["bound", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert "eps" in capsys.readouterr().err


class TestCompare:
    def test_single_chain_rejected(self, tmp_path):
        cfg = product_config(tmp_path, steps=100, chains=1)
        assert main(["compare", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1

    def test_threshold_at_or_below_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": [0.5, 0.5]},
            "chain": {"steps": 100, "chains": 2},
            "compare": {"threshold": 0.5},
        })
        out = tmp_path / "o"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 1
        assert "threshold" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    @pytest.mark.parametrize("compare,chain,word", [
        ({"threshold": 0.5, "statistics": []}, {}, "threshold"),
        ({"threshold": 1.0}, {}, "threshold"),
        ({"statistics": []}, {}, "statistics"),
        ({"statistics": ["cardinalty"]}, {}, "statistic"),
        ({"statistics": [["indicator", 2]]}, {}, "statistic"),
        ({"statistics": [["indicator", -1]]}, {}, "statistic"),
        ({}, {"stepz": 10}, "chain keys"),
        ({"stride": 0}, {}, "stride"),
        ({"stride": "a"}, {}, "stride"),
        ({"stride": True}, {}, "stride"),
        ({"threshold": None}, {}, "threshold"),
        ({"threshold": "1.1"}, {}, "threshold"),
        ({}, {"chains": None}, "chain.chains"),
    ], ids=["threshold-below-1", "threshold-1", "no-statistics",
            "unknown-statistic", "indicator-past-end", "negative-indicator",
            "unknown-chain-key", "stride-0", "stride-string", "stride-bool",
            "threshold-null", "threshold-string", "chains-null"])
    def test_bad_config_rejected_before_any_chain(self, tmp_path, capsys,
                                                  monkeypatch, compare,
                                                  chain, word):
        calls = []
        monkeypatch.setattr(chains, "run_chains",
                            lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": [0.5, 0.5]},
            "chain": {"steps": 100, "chains": 2, **chain},
            "compare": compare,
        })
        out = tmp_path / "o"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 1
        assert word in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_outputs_and_header(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": [0.3, 0.8, 0.5, 0.6]},
            "chain": {"steps": 4000, "chains": 4, "seed": 5,
                      "init": "random-positive"},
            "compare": {"statistics": ["cardinality", ["indicator", 0]]},
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == \
            "chain,statistic,iterations_to_threshold,censored"
        body = [line.split(",") for line in lines[1:]]
        assert sorted({row[0] for row in body}) == ["add-delete", "projection"]
        assert sorted({row[1] for row in body}) == \
            ["cardinality", "indicator_0"]
        # a tiny product measure mixes immediately: every crossing recorded
        assert all(row[2] for row in body)
        assert {row[3] for row in body} <= {"true", "false"}
        curves = (out / "psrf_curves.csv").read_text().splitlines()
        assert curves[0] == "chain,statistic,iteration,psrf"
        assert len(curves) > 1


    def test_first_checkpoint_crossing_is_censored(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": [0.5, 0.5, 0.5]},
            "chain": {"steps": 3000, "thin": 3, "chains": 3, "seed": 1,
                      "init": "random-positive"},
            "compare": {"stride": 500},
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        # 500 retained draws of a 3-element product measure are far past
        # R-hat 1.05, so both chains cross at the first checkpoint
        assert rows == ["add-delete,cardinality,1500,true",
                        "projection,cardinality,1500,true"]
        assert capsys.readouterr().out.splitlines()[-2:] == rows
        curves = (out / "psrf_curves.csv").read_text().splitlines()
        assert curves[1].startswith("add-delete,cardinality,1500,")


def test_flagged_dpp_cache_exits_2(tmp_path, singular_add_kernel, capsys):
    kernel = tmp_path / "L.csv"
    write_kernel_csv(kernel, singular_add_kernel)
    cfg = write_config(tmp_path, {
        "measure": {"kind": "dpp-L", "kernel_path": str(kernel)},
        "chain": {"kind": "add-delete", "steps": 1000, "seed": 0},
    })
    assert main(["sample", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "stream 0: DPP cache flagged" in capsys.readouterr().err


PRODUCT_1 = {"kind": "product", "q": [0.5]}
PRODUCT_2 = {"kind": "product", "q": [0.5, 0.5]}
PRODUCT_3 = {"kind": "product", "q": [0.3, 0.8, 0.5]}
STEP_4 = {"N": 4, "k": 2, "hi": 5.0, "lo": 0.1}


@pytest.mark.parametrize("command,cfg,word", [
    ("check", {"eps": 2}, "eps"),
    ("bound", {"measure": {"kind": "product", "q": [0.5, 0.5]},
               "bound": {"S0": [0], "eps": 0.0}}, "eps"),
    ("exact", {"measure": {"kind": "product", "q": [0.5] * 21}}, "n <= 20"),
    ("sample", {"measure": PRODUCT_1, "chain": [10]}, "chain"),
    ("exact", {"measure": PRODUCT_1, "bound": "S0"}, "bound"),
    ("sample", {"measure": PRODUCT_1, "chain": {"steps": None}},
     "chain.steps"),
    ("sample", {"measure": PRODUCT_1, "chain": {"steps": 5, "chains": None}},
     "chain.chains"),
    ("sample", {"measure": PRODUCT_1,
                "chain": {"steps": 5, "init": "explicit-set", "init_set": 3}},
     "chain.init_set"),
    ("sample", {"measure": {"kind": "dpp-L", "rbf": 5},
                "chain": {"steps": 5}}, "rbf"),
    ("compare", {"measure": PRODUCT_1, "chain": {"steps": 5, "chains": 2},
                 "compare": {"statistics": 5}}, "compare.statistics"),
    ("bound", {"measure": PRODUCT_3, "bound": {"S0": 3}}, "bound.S0"),
    ("bound", {"measure": PRODUCT_3, "bound": {"S0": [True]}}, "bound.S0"),
    ("bound", {"measure": PRODUCT_3, "bound": {"S0": [0, 0]}}, "bound.S0"),
    ("sample", {"measure": PRODUCT_3,
                "chain": {"steps": 0, "init_set": [0, 2]}}, "init_set"),
    ("compare", {"measure": PRODUCT_3,
                 "chain": {"steps": 5, "chains": 2, "init_set": [0, 2]}},
     "init_set"),
    ("bound", {"measure": PRODUCT_3, "chain": {"init_set": [0, 2]}},
     "init_set"),
    ("sample", {"measure": PRODUCT_3,
                "chain": {"steps": 5, "init": "explicit-set",
                          "init_set": [0, 0]}}, "chain.init_set"),
    ("exact", {"measure": {**PRODUCT_3, "kind": "product-k", "k": 2.7}},
     "measure.k"),
    ("exact", {"measure": {"kind": "dpp-L",
                           "spectrum_step": {**STEP_4, "N": 4.0}}},
     "spectrum_step.N"),
    ("exact", {"measure": {"kind": "dpp-L",
                           "spectrum_step": {**STEP_4, "k": True}}},
     "spectrum_step.k"),
    ("exact", {"measure": {"kind": "dpp-L",
                           "spectrum_step": {**STEP_4, "seed": 1.5}}},
     "spectrum_step.seed"),
    ("exact", {"measure": {"kind": "dpp-L",
                           "spectrum_step": {**STEP_4, "hi": "5"}}},
     "spectrum_step.hi"),
    ("exact", {"measure": {"kind": "dpp-L",
                           "spectrum_step": {**STEP_4, "lo": None}}},
     "spectrum_step.lo"),
    ("exact", {"measure": {"kind": "dpp-L",
                           "rbf": {"points_path": "p.csv",
                                   "bandwidth": True}}}, "rbf.bandwidth"),
    ("bound", {"measure": PRODUCT_3,
               "bound": {"S0": [0], "log_pi_S0": True}}, "bound.log_pi_S0"),
    ("sample", {"measure": {"kind": "product", "q": [True, False, 0.5]},
                "chain": {"steps": 3, "seed": 1}}, "measure.q"),
    ("sample", {"measure": {"kind": "product", "q": ["x", 0.5]},
                "chain": {"steps": 3}}, "measure.q"),
    ("exact", {"measure": {"kind": "product-k", "q": [0.5, None], "k": 1}},
     "measure.q"),
    ("exact", {"measure": {"kind": "table", "weights": [1, True, 1, 1]}},
     "measure.weights"),
    ("bound", {"measure": PRODUCT_2, "bound": {"S0": [5]}}, "bound.S0"),
    ("bound", {"measure": PRODUCT_2, "bound": {"S0": [-1]}}, "bound.S0"),
    ("sample", {"measure": PRODUCT_2,
                "chain": {"steps": 5, "init": "explicit-set",
                          "init_set": [7]}}, "chain.init_set"),
    ("compare", {"measure": PRODUCT_2,
                 "chain": {"steps": 5, "chains": 2, "init": "explicit-set",
                           "init_set": [2]}}, "chain.init_set"),
    ("bound", {"measure": PRODUCT_2,
               "chain": {"init": "explicit-set", "init_set": [0, 2]}},
     "chain.init_set"),
    ("check", {"measure": {"kind": "product", "q": []}},
     "nonempty ground set"),
    ("check", {"measure": {"kind": "table", "weights": [1]}},
     "nonempty ground set"),
], ids=["check-eps", "bound-eps", "exact-too-large", "chain-not-object",
        "bound-not-object", "steps-null", "chains-null", "init-set-int",
        "rbf-not-object", "statistics-int", "S0-int", "S0-bool", "S0-repeat",
        "sample-init-set-ignored", "compare-init-set-ignored",
        "bound-init-set-ignored", "init-set-repeat", "k-float",
        "spectrum-N-float", "spectrum-k-bool", "spectrum-seed-float",
        "spectrum-hi-string", "spectrum-lo-null", "bandwidth-bool",
        "log-pi-bool", "q-bool", "q-string", "product-k-q-null",
        "weights-bool", "S0-outside", "S0-negative", "sample-init-set-outside",
        "compare-init-set-outside", "bound-init-set-outside",
        "check-product-n0", "check-table-n0"])
def test_rejected_config_exits_1_and_writes_nothing(tmp_path, capsys,
                                                    command, cfg, word):
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err
    assert not out.exists()


def test_linalg_failure_exits_2(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError, but a failed eigensolve is a numeric
    # failure, not a config problem.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    cfg = write_config(tmp_path, {"measure": {"kind": "dpp-L",
                                              "spectrum_step": STEP_4}})
    out = tmp_path / "o"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == 2
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert main(["exact", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1


def test_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["exact", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 1
