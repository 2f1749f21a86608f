import json
import math

import numpy as np
import pytest

from srmcmc import chains, exact
from srmcmc.cli import ConfigError, main, load_kernel_csv, write_kernel_csv


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

    def test_exchange_bound_equals_projection_bound(self, tmp_path):
        cfg = write_config(tmp_path, {
            "measure": {"kind": "product", "q": [0.5] * 4},
            "bound": {"S0": [0, 1], "eps": 0.05},
        })
        out = tmp_path / "out"
        assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bound.json").read_text())
        assert report["exchange_bound"] == \
            pytest.approx(report["theorem_bound"], rel=1e-12, abs=0)

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
    ], ids=["threshold-below-1", "threshold-1", "no-statistics",
            "unknown-statistic", "indicator-past-end", "negative-indicator",
            "unknown-chain-key"])
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


@pytest.mark.parametrize("command,cfg", [
    ("check", {"eps": 2}),
    ("bound", {"measure": {"kind": "product", "q": [0.5, 0.5]},
               "bound": {"S0": [0], "eps": 0.0}}),
    ("exact", {"measure": {"kind": "product", "q": [0.5] * 21}}),
    ("sample", {"measure": {"kind": "product", "q": [0.5]}, "chain": [10]}),
    ("exact", {"measure": {"kind": "product", "q": [0.5]}, "bound": "S0"}),
], ids=["check-eps", "bound-eps", "exact-too-large", "chain-not-object",
        "bound-not-object"])
def test_rejected_config_exits_1_and_writes_nothing(tmp_path, capsys,
                                                    command, cfg):
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert main(["exact", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1


def test_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["exact", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 1
