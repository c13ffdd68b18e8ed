import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alohactrl import analytics
from alohactrl.aloha import Protocol
from alohactrl.cli import main
from alohactrl.config import (
    _KNOWN_KEYS,
    PRESET_NAMES,
    build_experiment_config,
    config_hash,
    emit_results,
    load_config,
    parse_config_text,
    preset_path,
    resolved_config_text,
)


class TestParsing:
    def test_key_value_lines(self):
        data = parse_config_text("lambda = 5e-3\n# comment\nT = 20\nprotocol = block\n")
        assert data == {"lambda": 5e-3, "T": 20, "protocol": "block"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_config_text("bogus = 1\n")

    def test_matrix_literal(self):
        data = parse_config_text('A = [[1.0, 0.0], [0.0, 1.0]]\n')
        assert data["A"] == [[1.0, 0.0], [0.0, 1.0]]


class TestBuild:
    def test_q_out_of_range_names_key(self):
        with pytest.raises(ValueError, match="'q'"):
            build_experiment_config({"q": 1.5})

    def test_alpha_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_experiment_config({"alpha": 1.5})

    def test_dbm_and_bandwidth_resolution(self):
        cfg = build_experiment_config(
            {"tx_power_dbm": 24.0, "bandwidth_hz": 200e6, "gamma_db": 0.0}
        )
        assert cfg.channel.tx_power_eta == pytest.approx(10 ** (-0.6))
        n0_dbm = 10 * math.log10(cfg.channel.noise_power_N0) + 30
        assert n0_dbm == pytest.approx(-90.99, abs=0.01)
        assert cfg.channel.sinr_threshold_gamma == 1.0

    def test_default_window_tracks_lambda(self):
        cfg = build_experiment_config({"lambda": 1e-4})
        assert cfg.ppp.window_radius_R == pytest.approx(500.0)

    def test_plant_round_trip(self):
        cfg = build_experiment_config({
            "A": [[0.5, 0.0], [0.0, 0.5]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "x_des": [1.0, 1.0],
            "v": 2,
        })
        assert cfg.plant is not None and cfg.plant.v == 2

    def test_plant_v_below_degree_rejected(self):
        with pytest.raises(ValueError):
            build_experiment_config({
                "A": [[0.5, 0.0], [0.0, 0.25]],
                "B": [[1.0, 0.0], [0.0, 1.0]],
                "x_des": [0.0, 0.0],
                "v": 1,
            })


# (key the error must name, the settings that are rejected)
BAD_VALUES = [
    ("lambda", {"lambda": -1e-3}),
    ("r0", {"r0": 0}),
    ("r0", {"r0": 50.0, "window_radius": 20.0}),
    ("window_radius", {"window_radius": 0}),
    ("alpha", {"alpha": 1.5}),
    ("gamma", {"gamma": 0}),
    ("gamma", {"gamma": math.nan}),
    ("window_radius", {"window_radius": math.inf}),
    ("gamma_db", {"gamma_db": "high"}),
    ("tx_power_w", {"tx_power_w": 0}),
    ("rho", {"rho": 0}),
    ("carrier_hz", {"carrier_hz": 0}),
    ("carrier_hz", {"carrier_hz": -3e9}),
    ("bandwidth_hz", {"bandwidth_hz": 0}),
    ("bandwidth_hz", {"bandwidth_hz": -2e8}),
    ("noise_power_w", {"noise_power_w": -1e-12}),
    ("noise_figure_db", {"noise_figure_db": "x"}),
    ("noise_figure_db", {"noise_figure_db": 7, "noise_power_dbm": -90}),
    ("T", {"T": 0}),
    ("v", {"v": 0}),
    ("K", {"K": 0}),
    ("num_realizations", {"num_realizations": 0}),
    ("threads", {"threads": 0}),
    ("seed", {"seed": -1}),
    ("v", {"T": 5, "v": 6}),
    ("T", {"T": True}),
    ("K", {"K": 2.5}),
    ("q", {"q": 1.5}),
    ("q", {"q": 0}),
    ("q_values", {"q_values": [0.5, 1.2]}),
    ("q_values", {"q_values": [[0.5]]}),
    ("q_values", {"q_values": []}),
    ("arms", {"arms": [0, 0.5]}),
    ("arms", {"arms": [0.5, "a"]}),
    ("arms", {"arms": []}),
    ("beta_values", {"beta_values": [1.0]}),
    ("process_noise_std", {"process_noise_std": -0.1}),
    ("state_level", {"state_level": 1}),
    ("fixed_geometry", {"fixed_geometry": "yes"}),
    ("protocol", {"protocol": "slotted"}),
    ("system", {"system": "restful"}),
]


@pytest.mark.parametrize(
    "key,settings", BAD_VALUES,
    ids=[",".join(f"{k}={v!r}" for k, v in s.items()) for _, s in BAD_VALUES],
)
def test_rejected_value_names_its_key(key, settings, tmp_path, capsys):
    named = re.escape(f"config key {key!r}: ")
    with pytest.raises(ValueError, match="^" + named):
        build_experiment_config(settings)
    overrides = [a for k, v in settings.items() for a in ("--set", f"{k}={json.dumps(v)}")]
    assert main(["simulate", "--config", "fig2", "--out", str(tmp_path), *overrides]) == 2
    assert re.match("error: " + named, capsys.readouterr().err)
    assert not tmp_path.joinpath("sweep.csv").exists()


# (command, preset, override, the config key the error must name)
UNRUNNABLE = [
    ("ts", "fig3", "protocol=both", "protocol"),
    ("regret", "fig5", "protocol=both", "protocol"),
    ("compare", "fig2", "fixed_geometry=true", "fixed_geometry"),
    ("compare", "fig2", "system=rested", "beta_values"),
    ("analytic", "fig4", "beta_values=[]", "beta_values"),
]


@pytest.mark.parametrize("command,preset,override,key", UNRUNNABLE,
                         ids=[f"{c}-{o}" for c, _, o, _ in UNRUNNABLE])
def test_command_rejects_what_it_cannot_run(command, preset, override, key, tmp_path, capsys):
    # a command that would drop a protocol or compare unlike quantities
    # stops before it writes anything
    out = tmp_path / "out"
    assert main([command, "--config", preset, "--out", str(out), "--set", override]) == 2
    assert re.match(re.escape(f"error: config key {key!r}: "), capsys.readouterr().err)
    assert not out.exists()


def test_readme_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration format", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert keys == _KNOWN_KEYS


class TestPresets:
    def test_all_presets_load(self):
        for name in PRESET_NAMES:
            assert preset_path(name).exists()
            load_config(name)

    def test_fig2_regime_values(self):
        cfg = load_config("fig2")
        assert cfg.T == 20
        assert cfg.v == 4
        assert cfg.ppp.intensity_lambda == pytest.approx(5e-3)
        assert len(cfg.q_values) == 10

    def test_fig3_regime(self):
        cfg = load_config("fig3")
        assert cfg.K == 5000
        assert cfg.arms == tuple(round(0.1 * i, 10) for i in range(1, 11))
        assert cfg.protocols == (Protocol.BLOCK,)

    def test_override_applies(self):
        cfg = load_config("fig3", overrides=["lambda=1e-4"])
        assert cfg.ppp.intensity_lambda == pytest.approx(1e-4)

    def test_bad_override_names_key(self):
        with pytest.raises(ValueError, match="'q'"):
            load_config("fig2", overrides=["q=1.5"])


class TestResolvedRoundTrip:
    def test_round_trip_identity(self):
        cfg = load_config("fig2", overrides=["seed=77", "num_realizations=123"])
        text = resolved_config_text(cfg)
        cfg2 = build_experiment_config(parse_config_text(text))
        assert cfg2 == cfg
        assert config_hash(cfg2) == config_hash(cfg)

    def test_round_trip_with_plant(self):
        cfg = build_experiment_config({
            "A": [[0.5, 0.0], [0.0, 0.5]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "x_des": [1.0, 2.0],
            "v": 2,
        })
        cfg2 = build_experiment_config(parse_config_text(resolved_config_text(cfg)))
        assert cfg2 == cfg


class TestEmit:
    def test_empty_artifacts_manifest_only(self, tmp_path):
        cfg = load_config("fig2")
        written = emit_results({}, tmp_path / "out", cfg)
        names = sorted(p.name for p in written)
        assert names == ["manifest.json", "resolved_config.conf"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["seed"] == cfg.seed

    def test_overwrite_needs_force(self, tmp_path):
        cfg = load_config("fig2")
        emit_results({"sweep.csv": "a,b\n"}, tmp_path, cfg)
        with pytest.raises(FileExistsError):
            emit_results({"sweep.csv": "a,b\n"}, tmp_path, cfg)
        emit_results({"sweep.csv": "a,b\n"}, tmp_path, cfg, force=True)


class TestCliEndToEnd:
    def run_cli(self, *args):
        return main(list(args))

    def test_simulate_writes_sweep(self, tmp_path):
        out = tmp_path / "run1"
        code = self.run_cli(
            "simulate", "--config", "fig2", "--out", str(out),
            "--set", "num_realizations=1500", "--set", "q_values=[0.3, 0.8]",
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "protocol,system,q,estimate,ci95"
        assert len(lines) == 1 + 2 * 2 * 2  # protocols x systems x q values

    def test_reproducible_across_runs_and_threads(self, tmp_path):
        common = ["--config", "fig2", "--set", "num_realizations=1500",
                  "--set", "q_values=[0.5]"]
        self.run_cli("simulate", *common, "--out", str(tmp_path / "a"), "--threads", "1")
        self.run_cli("simulate", *common, "--out", str(tmp_path / "b"), "--threads", "3")
        a = (tmp_path / "a" / "sweep.csv").read_bytes()
        b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert a == b
        # each rested meta point of fig4 spans 3 chunks
        common = ["--config", "fig4", "--set", "num_realizations=9000"]
        self.run_cli("compare", *common, "--out", str(tmp_path / "c"), "--threads", "1")
        self.run_cli("compare", *common, "--out", str(tmp_path / "d"), "--threads", "2")
        assert (tmp_path / "c" / "compare_meta.csv").read_bytes() == \
            (tmp_path / "d" / "compare_meta.csv").read_bytes()

    def test_ts_outputs(self, tmp_path):
        out = tmp_path / "ts"
        code = self.run_cli(
            "ts", "--config", "fig3", "--out", str(out), "--set", "K=120",
        )
        assert code == 0
        lines = (out / "ts.csv").read_text().splitlines()
        assert lines[0] == "k,arm,q,block_reward,cumulative_regret"
        assert len(lines) == 121
        posteriors = json.loads((out / "posteriors.json").read_text())
        assert posteriors["snapshots"][0]["block"] == 100

    def test_analytic_outputs(self, tmp_path):
        # rows follow `system`: fig4 is rested, so only its beta = 0.9 rows
        for system, restless_rows in (("rested", 0), ("both", 2)):
            out = tmp_path / system
            code = self.run_cli(
                "analytic", "--config", "fig4", "--out", str(out),
                "--set", "q_values=[0.5, 0.9]", "--set", f"system={system}",
            )
            assert code == 0
            lines = (out / "analytic.csv").read_text().splitlines()
            assert lines[0] == "protocol,q,lambda,T,v,beta,value"
            betas = [l.split(",")[5] for l in lines[1:]]
            assert betas == [""] * restless_rows + ["0.9"] * 2
            values = [float(l.split(",")[6]) for l in lines[1:]]
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_regret_outputs(self, tmp_path):
        out = tmp_path / "regret"
        code = self.run_cli(
            "regret", "--config", "fig5", "--out", str(out),
            "--set", "K=80", "--set", "num_realizations=3",
        )
        assert code == 0
        lines = (out / "regret.csv").read_text().splitlines()
        assert lines[0] == "k,mean_regret,envelope"
        assert len(lines) == 81

    def test_regret_reproducible_across_threads(self, tmp_path):
        common = ["--config", "fig5", "--set", "num_realizations=4", "--set", "K=200"]
        self.run_cli("regret", *common, "--out", str(tmp_path / "a"), "--threads", "1")
        self.run_cli("regret", *common, "--out", str(tmp_path / "b"), "--threads", "2")
        a = (tmp_path / "a" / "regret.csv").read_bytes()
        b = (tmp_path / "b" / "regret.csv").read_bytes()
        assert a == b

    def test_unknown_override_exits_nonzero(self, tmp_path, capsys):
        code = self.run_cli(
            "simulate", "--config", "fig2", "--out", str(tmp_path), "--set", "zap=1"
        )
        assert code == 2

    def test_refuses_overwrite_without_force(self, tmp_path):
        common = ["--config", "fig2", "--set", "num_realizations=600",
                  "--set", "q_values=[0.5]", "--out", str(tmp_path)]
        assert self.run_cli("simulate", *common) == 0
        assert self.run_cli("simulate", *common) == 3
        assert self.run_cli("simulate", *common, "--force") == 0

    def test_selftest_passes(self):
        assert self.run_cli("selftest") == 0

    def test_quadrature_error_is_one_line_and_exit_four(self, tmp_path, capsys):
        # the restless moment expansion cancels by ~1e9 at T = 200, v = 5, and
        # at T = 1100, v = 1 its de Moivre coefficients pass the float range,
        # which is seen from P(-1) before they are built
        for settings, message in ((["T=200", "v=5"], "alternating-sum cancellation"),
                                  (["T=1100", "v=1"], "de Moivre coefficients")):
            out = tmp_path / "an"
            overrides = [a for s in [*settings, "q=0.5"] for a in ("--set", s)]
            built = analytics._run_tail_coefficients.cache_info()
            code = self.run_cli("analytic", "--config", "fig2", "--out", str(out), *overrides)
            assert code == 4
            if "T=1100" in settings:
                assert analytics._run_tail_coefficients.cache_info() == built
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1, err
            assert re.fullmatch(rf"error: {message} .* \(error estimate \S+\)",
                                err[0]), err[0]
            assert not out.exists()


def test_cli_runs_without_importing_scipy(tmp_path):
    # scipy is a test-only dependency: the analytic and meta paths must not
    # pull it in, not even lazily
    script = (
        "import sys\n"
        "from alohactrl import cli\n"
        "out = sys.argv[1]\n"
        "assert cli.main(['analytic', '--config', 'fig2', '--out', out + '/an']) == 0\n"
        "assert cli.main(['compare', '--config', 'fig4', '--set', 'q_values=[0.7]',\n"
        "                 '--out', out + '/cmp']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "[]"
