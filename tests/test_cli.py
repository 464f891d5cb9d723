import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from oracles import read_state_csv

import subplanck.cli as cli_module
from subplanck.cli import StateSpec, main
from subplanck.fidelity import scale_report


def read_csv(path):
    header = {}
    rows = []
    for line in open(path):
        line = line.strip()
        if line.startswith("#"):
            key, _, val = line[2:].partition("=")
            header[key] = val
        elif line:
            rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


class TestStateSpec:
    def test_parse_roundtrip(self):
        spec = StateSpec.parse("compass:a=2.5")
        assert spec.kind == "compass" and spec.params["a"] == 2.5

    def test_unknown_kind_and_param(self):
        with pytest.raises(Exception):
            StateSpec.parse("qubit:n=1")
        with pytest.raises(Exception):
            StateSpec.parse("number:m=1")

    def test_integer_coercion(self):
        spec = StateSpec.parse("random:dim=30,seed=4")
        assert spec.params == {"dim": 30, "seed": 4}


class TestFidelityCurveCommand:
    def test_coherent_closed_column(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main([
            "fidelity-curve", "--state", "coherent:nu1=1,nu2=0",
            "--t-min", "0", "--t-max", "2", "--t-steps", "21",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header["columns"] == "t,F_closed,F_quadrature,abs_diff"
        ts = rows[:, 0]
        assert np.allclose(rows[:, 1], 1 / (1 + ts / 2), atol=1e-15)
        assert np.max(rows[:, 3]) < 1e-9

    def test_single_point_at_zero(self, tmp_path):
        out = tmp_path / "z.csv"
        rc = main([
            "fidelity-curve", "--state", "number:n=2",
            "--t-min", "0", "--t-max", "2", "--t-steps", "1",
            "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows[0, 1] == 1.0 and rows[0, 2] == 1.0

    def test_compass_large_a_near_lower_bound(self, tmp_path):
        out = tmp_path / "cp.csv"
        a = 5 / np.sqrt(2)
        rc = main([
            "fidelity-curve", "--state", f"compass:a={a}",
            "--t-min", "0.5", "--t-max", "2", "--t-steps", "7",
            "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        lower = 1 / (4 * (1 + rows[:, 0] / 2))
        assert np.max(np.abs(rows[:, 2] - lower)) < 0.01

    def test_validation_exit_code(self, tmp_path):
        rc = main([
            "fidelity-curve", "--state", "nosuch:x=1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        rc = main([
            "fidelity-curve", "--state", "coherent:nu1=0,nu2=0",
            "--t-min", "2", "--t-max", "1", "--out", str(tmp_path / "y.csv"),
        ])
        assert rc == 2


MALFORMED = {
    "non-numeric parameter": ["scales", "--state", "coherent:nu1=abc"],
    "parameter without value": ["scales", "--state", "coherent:nu1"],
    "non-integral integer parameter": ["scales", "--state", "number:n=2.7"],
    "negative number state": ["scales", "--state", "number:n=-1"],
    "config without file": ["scales", "--state", "coherent", "--config"],
    "missing config file": ["scales", "--state", "coherent", "--config", "{tmp}/none.json"],
    "invalid config file": ["scales", "--state", "coherent", "--config", "{tmp}/bad.json"],
    "config not an object": ["scales", "--state", "coherent", "--config", "{tmp}/list.json"],
    "config= without file": ["scales", "--state", "coherent", "--config="],
    "config= missing file": ["scales", "--state", "coherent", "--config={tmp}/none.json"],
    "zero t": ["teleport-mc", "--state", "coherent", "--t", "0", "--out", "{tmp}/m.csv"],
    "zero samples": ["teleport-mc", "--state", "coherent", "--t", "1", "--samples", "0",
                     "--out", "{tmp}/m.csv"],
    "zero dim": ["random-average", "--dim", "0", "--out", "{tmp}/r.csv"],
    "one-point grid": ["grid", "--state", "coherent", "--grid-res", "1", "--out", "{tmp}/g.csv"],
    "random-average takes no trunc": ["random-average", "--dim", "2", "--trunc", "8",
                                      "--out", "{tmp}/r.csv"],
    "random state takes no trunc": ["fidelity-curve", "--state", "random:dim=8,seed=1",
                                    "--trunc", "4", "--t-steps", "2", "--out", "{tmp}/f.csv"],
    "zero t-steps": ["fidelity-curve", "--state", "coherent", "--t-steps", "0",
                     "--out", "{tmp}/f.csv"],
    "one random sample": ["random-average", "--dim", "2", "--samples", "1", "--out", "{tmp}/r.csv"],
    "zero random samples": ["random-average", "--dim", "2", "--samples", "0",
                            "--out", "{tmp}/r.csv"],
    "zero random t-steps": ["random-average", "--dim", "2", "--t-steps", "0",
                            "--out", "{tmp}/r.csv"],
    "zero evolve t-steps": ["evolve", "--t-final", "0.01", "--dt", "0.001", "--t-steps", "0",
                            "--out-prefix", "{tmp}/e"],
    "negative snapshot stride": ["evolve", "--t-final", "0.01", "--dt", "0.001",
                                 "--snapshot-stride", "-5", "--out-prefix", "{tmp}/e"],
    "zero grid extent": ["grid", "--state", "coherent", "--grid-res", "9",
                         "--grid-extent", "0", "--out", "{tmp}/g.csv"],
    "negative grid extent": ["grid", "--state", "coherent", "--grid-res", "9",
                             "--grid-extent", "-2", "--out", "{tmp}/g.csv"],
    "zero trunc": ["fidelity-curve", "--state", "coherent", "--trunc", "0",
                   "--out", "{tmp}/f.csv"],
    "zero evolve trunc": ["evolve", "--t-final", "0.01", "--dt", "0.001", "--trunc", "0",
                          "--out-prefix", "{tmp}/e"],
    "infinite random t-max": ["random-average", "--dim", "2", "--t-max", "inf",
                              "--out", "{tmp}/r.csv"],
    "nan evolve t-max": ["evolve", "--t-final", "0.01", "--dt", "0.001", "--t-max", "nan",
                         "--out-prefix", "{tmp}/e"],
    "nan t": ["teleport-mc", "--state", "coherent", "--t", "nan", "--out", "{tmp}/m.csv"],
    "nan state parameter": ["scales", "--state", "coherent:nu1=nan"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_error_line(case, tmp_path, capsys):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    argv = [a.format(tmp=tmp_path) for a in MALFORMED[case]]
    # pytest records warnings instead of printing them, so catch them here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            rc = exc.code
    assert rc == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert any("error:" in line for line in err.splitlines())
    assert "RuntimeWarning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "list.json"]  # no output


class TestScalesCommand:
    def test_number_state(self, tmp_path, capsys):
        rc = main(["scales", "--state", "number:n=12"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fine_scale"] == pytest.approx(0.2)
        assert doc["extent"] == pytest.approx(10.0)

    def test_coherent_baseline(self, capsys):
        main(["scales", "--state", "coherent:nu1=0,nu2=0"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["fine_scale"] == pytest.approx(1.0)
        assert doc["extent"] == pytest.approx(2.0)

    def test_random_ensemble_scale(self, capsys):
        import warnings

        vals = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(20):
                main(["scales", "--state", f"random:dim=100,seed={seed}"])
                vals.append(json.loads(capsys.readouterr().out)["fine_scale"])
        assert 0.09 <= np.mean(vals) <= 0.11


class TestGridCommand:
    def test_wigner_scaling_and_plot_script(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main([
            "grid", "--state", "coherent:nu1=0,nu2=0", "--function", "wigner",
            "--grid-res", "33", "--grid-extent", "4", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header["scaling"] == "(pi/2) W"
        assert rows[:, 2].max() == pytest.approx(1.0, abs=1e-10)  # (pi/2)(2/pi)
        assert (tmp_path / "w.csv.plot.py").exists()

    def test_husimi_nonnegative(self, tmp_path):
        out = tmp_path / "q.csv"
        main([
            "grid", "--state", "number:n=1", "--function", "husimi",
            "--grid-res", "17", "--out", str(out),
        ])
        _, rows = read_csv(out)
        assert np.all(rows[:, 2] >= -1e-14)
        assert rows[:, 2].max() <= 1.0 + 1e-12  # pi * (1/pi)

    @pytest.mark.parametrize("function", ["wigner", "husimi", "charsq"])
    def test_bytes_match_tuple_rows(self, tmp_path, function):
        # %.17g round-trips doubles, so the rows read back are the values written;
        # write_csv's generic tuple path must give the same bytes
        out, ref = tmp_path / "g.csv", tmp_path / "ref.csv"
        rc = main(["grid", "--state", "compass:a=1.5", "--function", function,
                   "--grid-res", "9", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        columns = header.pop("columns").split(",")
        cli_module.write_csv(ref, header, columns, (tuple(row) for row in rows))
        assert out.read_bytes() == ref.read_bytes()

    def test_compass_checkerboard_period(self, tmp_path):
        # peak-spacing estimator on the central interference pattern
        out = tmp_path / "cb.csv"
        a = 5 / np.sqrt(2)
        main([
            "grid", "--state", f"compass:a={a}", "--function", "wigner",
            "--grid-res", "257", "--grid-extent", "3.0", "--out", str(out),
        ])
        _, rows = read_csv(out)
        v = rows[:, 2].reshape(257, 257)
        mid = v[:, 128]
        axis = np.linspace(-3, 3, 257)
        # maxima of the central checkerboard repeat every pi * ell
        peaks = [i for i in range(1, 256) if mid[i] > mid[i - 1] and mid[i] > mid[i + 1]]
        spacing = np.mean(np.diff(axis[peaks]))
        ell_est = spacing / np.pi
        assert abs(ell_est - 0.2) / 0.2 < 0.2


class TestTeleportMCCommand:
    def test_summary_and_trajectories(self, tmp_path):
        out = tmp_path / "mc.csv"
        rc = main([
            "teleport-mc", "--state", "coherent:nu1=1,nu2=0", "--t", "1.0",
            "--samples", "300", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert rows.shape == (300, 4)
        summary = json.loads(open(str(out) + ".summary.json").read())
        se = summary["stderr"]
        assert abs(summary["mean_conditional_fidelity"] - 2 / 3) < 3.5 * se
        assert summary["l1_distance_to_average_channel"] < 0.2
        # a coherent input's W^(s) is separable: the mean contracts through rank 1,
        # over the 23 of K = 53 Hermite orders that the smoothing leaves above roundoff
        assert (summary["contraction_rank"], summary["contraction_orders"],
                summary["kernel_size"]) == (1, 23, 53)

    def test_stderr_is_sample_standard_error(self, tmp_path):
        out = tmp_path / "se.csv"
        rc = main([
            "teleport-mc", "--state", "compass:a=2", "--t", "0.5",
            "--samples", "7", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        fids = rows[:, 3]
        summary = json.loads(open(str(out) + ".summary.json").read())
        assert summary["stderr"] == pytest.approx(np.std(fids, ddof=1) / np.sqrt(7), rel=1e-15)
        assert summary["stderr"] > np.std(fids) / np.sqrt(7)

    def test_one_sample_has_no_stderr(self, tmp_path):
        # RuntimeWarnings are errors under pytest, so ddof = 1 on one value would fail here
        out = tmp_path / "one.csv"
        rc = main([
            "teleport-mc", "--state", "coherent:nu1=1,nu2=0", "--t", "1.0",
            "--samples", "1", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        summary = json.loads(open(str(out) + ".summary.json").read())
        assert summary["stderr"] is None
        assert summary["mean_conditional_fidelity"] == rows[0, 3]

    def test_thermal_input(self, tmp_path):
        out = tmp_path / "th.csv"
        rc = main([
            "teleport-mc", "--state", "thermal:nbar=0.5", "--t", "1.0",
            "--samples", "300", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads(open(str(out) + ".summary.json").read())
        se = summary["stderr"]
        assert abs(summary["mean_conditional_fidelity"] - summary["closed_form"]) < 3 * se

    def test_deterministic_with_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main([
                "teleport-mc", "--state", "coherent:nu1=0,nu2=0", "--t", "2.0",
                "--samples", "1", "--seed", "11", "--out", str(out),
            ])
        assert a.read_bytes() == b.read_bytes()


class TestRandomAverageCommand:
    def test_formula_within_errors(self, tmp_path):
        out = tmp_path / "ra.csv"
        rc = main([
            "random-average", "--dim", "6", "--samples", "60",
            "--t-min", "0.4", "--t-max", "2.0", "--t-steps", "3",
            "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        for t, formula, mean, se in rows:
            assert abs(mean - formula) < 4 * se


class TestEvolveCommand:
    def test_short_run_outputs(self, tmp_path):
        prefix = str(tmp_path / "run")
        rc = main([
            "evolve", "--t-final", "0.2", "--dt", "0.0005",
            "--t-steps", "4", "--out-prefix", prefix,
        ])
        assert rc == 0
        summary = json.loads(open(prefix + "_summary.json").read())
        assert abs(summary["norm_drift"]) < 1e-8
        assert summary["leakage"] < 1e-3
        header, rows = read_csv(prefix + "_fidelity.csv")
        assert rows.shape[1] == 4

    def test_fock_state_roundtrip(self, tmp_path):
        prefix = str(tmp_path / "rt")
        main([
            "evolve", "--t-final", "0.1", "--dt", "0.0005",
            "--t-steps", "3", "--out-prefix", prefix,
        ])
        state = read_state_csv(prefix + "_fock_state.csv")
        assert np.sum(np.abs(state.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_snapshot_stride(self, tmp_path):
        prefix = str(tmp_path / "snap")
        rc = main([
            "evolve", "--t-final", "0.02", "--dt", "0.0005",
            "--grid-points", "512", "--grid-min", "-24", "--grid-max", "24",
            "--t-steps", "3", "--snapshot-stride", "20", "--out-prefix", prefix,
        ])
        assert rc == 0
        header, rows = read_csv(prefix + "_snapshots.csv")
        taus = np.unique(rows[:, 0])
        assert len(taus) == 2  # 40 steps at stride 20
        assert rows.shape == (2 * 512, 4)

    def test_strided_final_matches_unstrided(self, tmp_path):
        argv = ["evolve", "--t-final", "0.02", "--dt", "0.0005",
                "--grid-points", "512", "--grid-min", "-24", "--grid-max", "24",
                "--t-steps", "3"]
        whole, strided = str(tmp_path / "whole"), str(tmp_path / "strided")
        assert main(argv + ["--out-prefix", whole]) == 0
        assert main(argv + ["--snapshot-stride", "15", "--out-prefix", strided]) == 0
        _, ref = read_csv(whole + "_final_wavefunction.csv")
        _, out = read_csv(strided + "_final_wavefunction.csv")
        assert np.array_equal(out[:, 0], ref[:, 0])
        assert np.max(np.abs(out[:, 1:] - ref[:, 1:])) <= 1e-10

    def test_zero_steps_echoes_initial(self, tmp_path):
        prefix = str(tmp_path / "zero")
        rc = main([
            "evolve", "--t-final", "0", "--dt", "0.001",
            "--t-steps", "3", "--out-prefix", prefix,
        ])
        assert rc == 0
        _, rows = read_csv(prefix + "_final_wavefunction.csv")
        x = rows[:, 0]
        psi2 = rows[:, 1] ** 2 + rows[:, 2] ** 2
        assert x[np.argmax(psi2)] == pytest.approx(-8.0, abs=0.05)


    @pytest.mark.parametrize("flags", [
        ["--t-final", "0"],  # three runs of zero steps have no convergence ratio
        ["--t-final", "0.001", "--dt", "0.0005"],  # not a whole number of steps of 4 dt
    ])
    def test_convergence_flags_refused_before_output(self, tmp_path, capsys, flags):
        rc = main(["evolve", *flags, "--convergence", "--out-prefix", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_convergence_reuses_unstrided_run(self, tmp_path, monkeypatch):
        from subplanck.dynamics import (
            EvolutionConfig, SpatialGrid, coherent_wavefunction, evolve_chaotic, split_step_evolve,
        )

        argv = ["evolve", "--t-final", "0.02", "--dt", "0.0005",
                "--grid-points", "512", "--grid-min", "-24", "--grid-max", "24", "--t-steps", "3"]
        plain, conv = str(tmp_path / "plain"), str(tmp_path / "conv")
        assert main(argv + ["--out-prefix", plain]) == 0
        calls = []

        def counting(real):
            # the dt of every evolution the command runs, in call order
            def wrapped(*args, **kwargs):
                calls.extend(a.dt for a in args if isinstance(a, EvolutionConfig))
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(cli_module, "evolve_chaotic", counting(evolve_chaotic))
        monkeypatch.setattr(cli_module, "split_step_evolve", counting(split_step_evolve))
        assert main(argv + ["--convergence", "--out-prefix", conv]) == 0
        assert calls == [0.0005, 0.002, 0.001]  # the run at dt is not repeated
        # the summary the four-run command wrote, byte for byte
        grid = SpatialGrid(-24.0, 24.0, 512)
        psi0 = coherent_wavefunction(-8.0, 4.0, grid)
        runs = [evolve_chaotic(psi0, EvolutionConfig(dt=dt, t_final=0.02, grid=grid))
                for dt in (0.002, 0.001, 0.0005)]
        want = json.loads(open(plain + "_summary.json").read())
        d1 = float(np.linalg.norm(runs[0].samples - runs[1].samples))
        d2 = float(np.linalg.norm(runs[1].samples - runs[2].samples))
        want.update(convergence_ratio=d1 / d2, convergence_base_dt=0.002)
        text = json.dumps(want, indent=2, sort_keys=True) + "\n"
        assert open(conv + "_summary.json").read() == text


class TestWriteCsv:
    def test_rows_match_per_value_format(self, tmp_path):
        rows = [
            (0, 1, -7, True),
            (np.int64(3), np.int32(-2), np.uint8(255), np.int64(2**62)),
            (0.0, -0.0, 5e-324, -2.2250738585072014e-308),
            (float("nan"), float("inf"), float("-inf"), np.float64(-0.0)),
            (np.float64(0.1), np.float32(0.1), 1 / 3, 1e300),
            (1, 2.5, np.int64(4), np.float64(np.nan)),
        ]
        path = tmp_path / "rows.csv"
        cli_module.write_csv(path, {"k": "v"}, ["a", "b", "c", "d"], rows)
        want = ["# k=v", "# columns=a,b,c,d"] + [",".join(cli_module._fmt(v) for v in r) for r in rows]
        assert path.read_text() == "\n".join(want) + "\n"


# each command at small flags: (flags, output flags, default manifest name, manifest seed)
MANIFEST_RUNS = {
    "fidelity-curve": (["--state", "random:dim=6,seed=3", "--t-steps", "3"],
                       ["--out", "{d}/f.csv"], "f.csv.manifest.json", 3),
    "scales": (["--state", "random:dim=6,seed=4"], ["--out", "{d}/s.json"], "s.json.manifest.json", 4),
    "grid": (["--state", "random:dim=6,seed=5", "--grid-res", "32"],
             ["--out", "{d}/g.csv"], "g.csv.manifest.json", 5),
    "teleport-mc": (["--state", "coherent:nu1=1", "--t", "1", "--samples", "50", "--seed", "7"],
                    ["--out", "{d}/m.csv"], "m.csv.manifest.json", 7),
    "random-average": (["--dim", "4", "--samples", "3", "--t-steps", "2", "--seed", "8"],
                       ["--out", "{d}/r.csv"], "r.csv.manifest.json", 8),
    "evolve": (["--t-final", "0.02", "--grid-points", "512", "--t-steps", "2"],
               ["--out-prefix", "{d}/e"], "e_manifest.json", None),
}
MANIFEST_KEYS = {"blas", "command", "config", "created", "generator", "seed", "version"}


class TestManifest:
    @pytest.mark.filterwarnings("ignore::subplanck.errors.TruncationWarning")  # random states own their top level
    @pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
    def test_manifest_path_keys_seed_and_config(self, command, tmp_path):
        flags, outputs, name, seed = MANIFEST_RUNS[command]
        for sub, override in (("default", []), ("override", ["--manifest", "{d}/chosen.json"])):
            d = tmp_path / sub
            d.mkdir()
            argv = [command] + [a.format(d=d) for a in flags + outputs + override]
            assert main(argv) == 0
            doc = json.loads((d / ("chosen.json" if override else name)).read_text())
            assert set(doc) == MANIFEST_KEYS
            assert doc["command"] == command
            assert doc["seed"] == seed
            assert doc["config"] == cli_module._config_dict(cli_module.build_parser().parse_args(argv))
            assert (d / name).exists() == (not override)

    def test_scales_stdout_writes_json_text_and_no_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scales", "--state", "number:n=12"]) == 0
        spec = StateSpec.parse("number:n=12")
        report = scale_report(spec.build(), label=spec.descriptor).as_dict()
        assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_scales_stdout_honours_manifest_flag(self, tmp_path, capsys):
        path = tmp_path / "scales.json"
        assert main(["scales", "--state", "number:n=12", "--manifest", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["fine_scale"] == pytest.approx(0.2)
        assert json.loads(path.read_text())["command"] == "scales"

    def test_evolve_replay_never_reuses_output_prefix(self, tmp_path):
        prefix = str(tmp_path / "orig")
        flags = ["--t-final", "0.02", "--grid-points", "512", "--t-steps", "2"]
        assert main(["evolve", *flags, "--out-prefix", prefix]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(SystemExit) as exc:  # argparse: --out-prefix is required
            main(["evolve", "--config", prefix + "_manifest.json"])
        assert exc.value.code == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert main(["evolve", "--config", prefix + "_manifest.json",
                     "--out-prefix", str(tmp_path / "copy")]) == 0
        for name in before:
            if name != "orig_manifest.json":
                copy = tmp_path / name.replace("orig", "copy", 1)
                assert copy.read_bytes() == before[name]

    def test_rerun_bit_exact(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = ["fidelity-curve", "--state", "squeezed:u=0.5",
                "--t-min", "0", "--t-max", "1", "--t-steps", "5"]
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads(open(str(out1) + ".manifest.json").read())
        assert manifest["command"] == "fidelity-curve"
        assert manifest["config"]["state"] == "squeezed:u=0.5"

    def test_config_file_replay(self, tmp_path):
        out1, out3 = tmp_path / "r1.csv", tmp_path / "r3.csv"
        main(["fidelity-curve", "--state", "squeezed:u=0.5",
              "--t-min", "0", "--t-max", "1", "--t-steps", "5",
              "--out", str(out1)])
        rc = main(["fidelity-curve", "--config", str(out1) + ".manifest.json",
                   "--out", str(out3)])
        assert rc == 0
        assert out1.read_bytes() == out3.read_bytes()

    @pytest.mark.filterwarnings("ignore::subplanck.errors.TruncationWarning")  # random states own their top level
    def test_config_equals_form_replays(self, tmp_path):
        # argparse takes --config=PATH as well as --config PATH; both must read the file
        first = tmp_path / "a.csv"
        assert main(["random-average", "--dim", "4", "--samples", "2", "--t-steps", "2",
                     "--seed", "5", "--out", str(first)]) == 0
        assert main(["random-average", "--dim", "4", f"--config={first}.manifest.json",
                     "--out", str(tmp_path / "b.csv")]) == 0
        doc = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert (doc["config"]["samples"], doc["seed"], doc["config"]["t_steps"]) == (2, 5, 2)
        assert (tmp_path / "b.csv").read_bytes() == first.read_bytes()

    @pytest.mark.filterwarnings("ignore::subplanck.errors.TruncationWarning")  # random states own their top level
    @pytest.mark.parametrize("spelling", [["--conf", "{}"], ["--conf={}"], ["--c", "{}"]])
    def test_config_prefix_replays(self, tmp_path, spelling):
        # argparse takes any unique prefix of --config; the file must be read for each
        first = tmp_path / "a.csv"
        assert main(["random-average", "--dim", "4", "--samples", "2", "--t-steps", "2",
                     "--seed", "5", "--out", str(first)]) == 0
        flags = [s.format(f"{first}.manifest.json") for s in spelling]
        assert main(["random-average", "--dim", "4", *flags, "--out", str(tmp_path / "b.csv")]) == 0
        doc = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert (doc["config"]["samples"], doc["seed"], doc["config"]["t_steps"]) == (2, 5, 2)
        assert (tmp_path / "b.csv").read_bytes() == first.read_bytes()

    def test_ambiguous_config_prefix_writes_nothing(self, tmp_path):
        # evolve also has --convergence, so --con names neither option
        prefix = str(tmp_path / "orig")
        assert main(["evolve", "--t-final", "0.02", "--grid-points", "512", "--t-steps", "2",
                     "--out-prefix", prefix]) == 0
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--con", prefix + "_manifest.json", "--out-prefix", prefix + "2"])
        assert exc.value.code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_blas_threads_recorded_and_replayed(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        env = {k: v for k, v in os.environ.items() if k != "MKL_NUM_THREADS"}
        env.update(OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "subplanck.cli", "fidelity-curve",
                        "--state", "squeezed:u=0.5", "--t-min", "0", "--t-max", "1",
                        "--t-steps", "5", "--out", str(out1)],
                       env=env, capture_output=True, text=True, timeout=120, check=True)
        blas = json.loads(open(str(out1) + ".manifest.json").read())["blas"]
        assert blas["OPENBLAS_NUM_THREADS"] == "1"
        assert blas["MKL_NUM_THREADS"] is None
        assert blas["name"]
        rc = main(["fidelity-curve", "--config", str(out1) + ".manifest.json",
                   "--out", str(out2)])
        assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
