import json
import math

import numpy as np
import pytest

from rpsim.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    deep_merge,
    load_config_file,
    parse_override,
    resolve,
)


def test_defaults_resolve():
    cfg = resolve()
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.mode == "reference"
    assert cfg.trotter_steps == 5
    assert cfg.t_max == 1.0
    assert cfg.dt == 0.001
    assert cfg.nuclear == "mixed"
    assert cfg.shots == 0
    assert cfg.seed == 12345
    assert cfg.tail == "none"
    assert cfg.noise.enabled is False
    assert len(cfg.thetas) == 128
    assert cfg.thetas[0] == 0.0
    assert cfg.thetas[-1] == pytest.approx(math.pi)
    # the physical system defaults
    assert cfg.system.field_magnitude == 0.05
    assert cfg.system.k_singlet == 1.0
    assert len(cfg.system.nuclei) == 1
    site, tensor = cfg.system.nuclei[0]
    assert site == 0
    assert np.allclose(tensor, np.diag([5.0, 5.0, 10.0]))


def test_resolved_snapshot_round_trips():
    cfg = resolve()
    # the resolved dict is JSON-serializable and carries the grid settings
    back = json.loads(json.dumps(cfg.resolved))
    assert back["mode"] == "reference"
    assert back["theta_grid"]["count"] == 128
    assert back["dt_us"] == 0.001


def test_deep_merge():
    base = {"a": {"b": 1, "c": 2}, "d": 3}
    got = deep_merge(base, {"a": {"c": 9}, "e": 4})
    assert got == {"a": {"b": 1, "c": 9}, "d": 3, "e": 4}
    assert base["a"]["c"] == 2  # no mutation


def test_parse_override():
    assert parse_override("dt_us=0.01") == (["dt_us"], 0.01)
    assert parse_override("mode=density") == (["mode"], "density")
    assert parse_override("noise.enabled=true") == (["noise", "enabled"], True)
    assert parse_override("theta_grid.values=[0, 1.5]") == (
        ["theta_grid", "values"],
        [0, 1.5],
    )
    with pytest.raises(ConfigError):
        parse_override("no_equals_sign")
    with pytest.raises(ConfigError):
        parse_override("=5")


def test_overrides_dotted_paths():
    raw = apply_overrides({}, ["noise.enabled=true", "dt_us=0.01"])
    assert raw["noise"]["enabled"] is True
    assert raw["dt_us"] == 0.01


def test_theta_grid_variants():
    cfg = resolve(overrides=["theta_grid.values=[0.0, 0.5, 1.0]"])
    assert np.allclose(cfg.thetas, [0.0, 0.5, 1.0])
    # switching back to count/range drops the explicit list
    raw = apply_overrides({"theta_grid": {"values": [0.0, 1.0]}}, ["theta_grid.count=5"])
    assert "values" not in raw["theta_grid"]
    cfg = resolve(overrides=["theta_grid.count=5", "theta_grid.range=[0.0, 2.0]"])
    assert np.allclose(cfg.thetas, np.linspace(0.0, 2.0, 5))


def test_config_file_merge(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"mode": "statevector", "trotter_steps": 7}))
    cfg = resolve(load_config_file(p))
    assert cfg.mode == "statevector"
    assert cfg.trotter_steps == 7
    assert cfg.dt == 0.001  # untouched default


def test_override_beats_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"trotter_steps": 7}))
    cfg = resolve(load_config_file(p), overrides=["trotter_steps=9"])
    assert cfg.trotter_steps == 9


def test_flags_beat_overrides():
    cfg = resolve(overrides=["seed=1"], seed=42)
    assert cfg.seed == 42


@pytest.mark.parametrize(
    "override,field",
    [
        ("dt_us=0", "dt_us"),
        ("dt_us=-1", "dt_us"),
        ("dt_us=0.3", "dt_us"),
        ("t_max_us=0.0005", "t_max_us"),
        ("mode=sideways", "mode"),
        ("nuclear=both", "nuclear"),
        ("tail=bogus", "tail"),
        ("trotter_steps=0", "trotter_steps"),
        ("theta_grid.count=0", "theta_grid.count"),
        ("theta_grid.values=[1.0, 0.5]", "theta_grid.values"),
        ("seed=18446744073709551616", "seed"),
        ("seed=-1", "seed"),
        ("threads=2", "threads"),  # retired field: unknown
        ("shots=-5", "shots"),
        ("noise.enabled=true", "noise.enabled"),
        ("noise.p_depol_1q=1.5", "noise.p_depol_1q"),
        ("nonsense_key=1", "nonsense_key"),
        ("system.bogus=1", "system.bogus"),
        ("noise.bogus=1", "noise.bogus"),
        ("system.field_mT=strong", "system.field_mT"),
        ("system.k_singlet_MHz=-1", "system.k_singlet_MHz"),
        (
            'system.nuclei=[{"site": 2, "tensor_neV": [[0,0,0],[0,0,0],[0,0,0]]}]',
            "system.nuclei[0].site",
        ),
    ],
)
def test_validation_errors_name_their_field(override, field):
    with pytest.raises(ConfigError) as exc:
        resolve(overrides=[override])
    assert exc.value.field == field
    assert field in str(exc.value)


def test_noise_block_resolves():
    cfg = resolve(overrides=["mode=density", "noise.enabled=true"])
    assert cfg.noise.enabled is True
    assert cfg.noise.p_depol_1q == 3e-4
    assert cfg.noise.p_depol_2q == 8e-3
    assert cfg.noise.readout_flip_0to1 == 2e-2
    assert cfg.noise.readout_flip_1to0 == 2e-2


def test_tail_extend_requires_decay():
    cfg = resolve(overrides=["tail=extend"])
    assert cfg.tail == "extend"
    with pytest.raises(ConfigError) as exc:
        resolve(
            overrides=[
                "tail=extend",
                "system.k_singlet_MHz=0",
                "system.k_triplet_MHz=0",
            ]
        )
    assert exc.value.field == "tail"


def test_system_block_controls_prototype():
    cfg = resolve(overrides=["system.theta_rad=0", "system.field_mT=0.1"])
    assert cfg.system.field_magnitude == 0.1
    b = cfg.system.field_vector()
    assert b[2] == pytest.approx(0.1)
    assert b[0] == pytest.approx(0.0)


def test_bad_config_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_config_file(listy)
