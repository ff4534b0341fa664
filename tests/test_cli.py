import hashlib
import json

import numpy as np
import pytest

import rpsim as rp
from rpsim.cli import main
from rpsim.config import resolve

FAST = [
    "--set", "theta_grid.count=5",
    "--set", "t_max_us=0.2",
    "--set", "dt_us=0.05",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_sidecar(csv_path):
    with open(str(csv_path)[: -len(".csv")] + ".meta.json") as fh:
        return json.load(fh)


def test_population_writes_csv_and_sidecar(tmp_path, capsys):
    code, out, err = run(
        ["population", "--output", str(tmp_path), "--set", "t_max_us=0.2",
         "--set", "dt_us=0.1"],
        capsys,
    )
    assert code == 0
    assert err == ""
    csv_path = tmp_path / "population.csv"
    assert str(csv_path) in out
    text = csv_path.read_text()
    lines = text.splitlines()
    assert lines[0] == "time_us,population_raw,population_decayed"
    assert len(lines) == 1 + 3  # t = 0, 0.1, 0.2
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(1.0)
    side = read_sidecar(csv_path)
    assert side["command"] == "population"
    assert side["config"]["mode"] == "reference"
    assert side["csv_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_yield_sweep(tmp_path, capsys):
    code, out, _ = run(["yield-sweep", "--output", str(tmp_path)] + FAST, capsys)
    assert code == 0
    csv_path = tmp_path / "yield_sweep.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "theta_rad,singlet_yield"
    assert len(lines) == 6
    side = read_sidecar(csv_path)
    assert "delta_S" in side["metadata"]
    assert side["metadata"]["delta_S"] > 0
    # the sidecar's delta_S carries the CSV's 9 significant digits
    cfg = resolve(overrides=FAST[1::2])
    curve = rp.yield_curve(
        cfg.system, cfg.thetas, mode=cfg.mode, n=cfg.trotter_steps,
        nuclear=cfg.nuclear, t_max=cfg.t_max, dt=cfg.dt, tail=cfg.tail,
    )
    assert lines[1:] == [f"{th:.9g},{y:.9g}" for th, y in zip(curve.thetas, curve.yields)]
    assert side["metadata"]["delta_S"] == float(f"{rp.anisotropy(curve):.9g}")


def test_yield_sweep_rejects_shots(tmp_path, capsys):
    code, _, err = run(
        ["yield-sweep", "--output", str(tmp_path), "--set", "shots=100"] + FAST,
        capsys,
    )
    assert code == 2
    assert "config error" in err
    assert "shots" in err


def test_trotter_sweep(tmp_path, capsys):
    code, _, _ = run(
        ["trotter-sweep", "--n-list", "1,3", "--output", str(tmp_path)] + FAST,
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "trotter_sweep.csv").read_text().splitlines()
    assert lines[0] == "n,yield_noiseless"
    assert lines[1].startswith("1,")
    assert lines[2].startswith("3,")


def test_trotter_sweep_noisy_column(tmp_path, capsys):
    code, _, _ = run(
        [
            "trotter-sweep", "--n-list", "2",
            "--output", str(tmp_path),
            "--set", "mode=density",
            "--set", "noise.enabled=true",
        ] + FAST,
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "trotter_sweep.csv").read_text().splitlines()
    assert lines[0] == "n,yield_noiseless,yield_noisy"
    cells = lines[1].split(",")
    assert len(cells) == 3
    assert float(cells[2]) < float(cells[1])


def test_rate_sweep(tmp_path, capsys):
    code, _, _ = run(
        ["rate-sweep", "--k-list", "0.5,1,2", "--output", str(tmp_path)] + FAST,
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "rate_sweep.csv").read_text().splitlines()
    assert lines[0] == "k_MHz,yield"
    ys = [float(line.split(",")[1]) for line in lines[1:]]
    assert ys == sorted(ys)


def test_shot_sweep_seed_sensitivity(tmp_path, capsys):
    args = ["shot-sweep", "--shot-list", "20,200"] + FAST
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert run(args + ["--output", str(out_a), "--seed", "1"], capsys)[0] == 0
    assert run(args + ["--output", str(out_b), "--seed", "1"], capsys)[0] == 0
    assert run(args + ["--output", str(out_c), "--seed", "2"], capsys)[0] == 0
    a = (out_a / "shot_sweep.csv").read_text()
    assert a.splitlines()[0] == "shots,rms_error"
    assert a == (out_b / "shot_sweep.csv").read_text()
    assert a != (out_c / "shot_sweep.csv").read_text()


def test_fit_identity(tmp_path, capsys):
    run(["yield-sweep", "--output", str(tmp_path)] + FAST, capsys)
    curve = tmp_path / "yield_sweep.csv"
    code, out, _ = run(
        ["fit", str(curve), str(curve), "--output", str(tmp_path)], capsys
    )
    assert code == 0
    fit_csv = tmp_path / "fit.csv"
    assert str(fit_csv) in out
    side = read_sidecar(fit_csv)
    assert side["config"] is None
    assert side["metadata"]["a"] == pytest.approx(1.0)
    assert side["metadata"]["b"] == pytest.approx(0.0, abs=1e-12)
    assert side["metadata"]["pearson_r"] == pytest.approx(1.0)
    lines = fit_csv.read_text().splitlines()
    assert lines[0] == "theta_rad,singlet_yield"


def test_fit_grid_mismatch(tmp_path, capsys):
    run(["yield-sweep", "--output", str(tmp_path)] + FAST, capsys)
    other = tmp_path / "other"
    run(
        ["yield-sweep", "--output", str(other), "--set", "theta_grid.count=7",
         "--set", "t_max_us=0.2", "--set", "dt_us=0.05"],
        capsys,
    )
    code, _, err = run(
        ["fit", str(tmp_path / "yield_sweep.csv"), str(other / "yield_sweep.csv"),
         "--output", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "error" in err


def test_fit_missing_file(tmp_path, capsys):
    code, _, err = run(
        ["fit", str(tmp_path / "no.csv"), str(tmp_path / "no.csv"),
         "--output", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:")


def test_bad_set_flag(tmp_path, capsys):
    code, _, err = run(
        ["population", "--output", str(tmp_path), "--set", "dt_us=0"], capsys
    )
    assert code == 2
    assert err.startswith("config error:")
    assert "dt_us" in err


def test_bad_mode(tmp_path, capsys):
    code, _, err = run(
        ["population", "--output", str(tmp_path), "--set", "mode=banana"], capsys
    )
    assert code == 2
    assert "mode" in err


def test_bad_n_list(tmp_path, capsys):
    code, _, err = run(
        ["trotter-sweep", "--n-list", "1,apple", "--output", str(tmp_path)] + FAST,
        capsys,
    )
    assert code == 2
    assert "--n-list" in err


def test_reruns_are_byte_identical(tmp_path, capsys):
    args = ["yield-sweep", "--output", str(tmp_path)] + FAST
    run(args, capsys)
    first_csv = (tmp_path / "yield_sweep.csv").read_bytes()
    first_meta = (tmp_path / "yield_sweep.meta.json").read_bytes()
    run(args, capsys)
    assert (tmp_path / "yield_sweep.csv").read_bytes() == first_csv
    assert (tmp_path / "yield_sweep.meta.json").read_bytes() == first_meta


def test_reference_csv_bytes_are_frozen(tmp_path, capsys):
    """The reference engine's CSV bytes at default settings, pinned by hash:
    an engine rewrite must leave every 9-digit value unchanged."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta_grid": {"values": np.linspace(0.0, np.pi, 16).tolist()}}))
    code, _, _ = run(["yield-sweep", "--config", str(cfg), "--output", str(tmp_path)], capsys)
    assert code == 0
    code, _, _ = run(["population", "--output", str(tmp_path), "--set", "nuclear=down"], capsys)
    assert code == 0
    frozen = {
        "yield_sweep.csv": "d940e54dedfd1afd0502337c8496cf2fcb01bc1e202311db2fa7ccefaad451d9",
        "population.csv": "fd6ab63768845a0031547825cd7f30c0e9c75816b7996466495e7ab0e52b5408",
    }
    for name, digest in frozen.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_config_file_flow(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "t_max_us": 0.2,
        "dt_us": 0.1,
        "theta_grid": {"values": [0.0, 1.0]},
    }))
    code, _, _ = run(
        ["yield-sweep", "--config", str(cfg), "--output", str(tmp_path)], capsys
    )
    assert code == 0
    lines = (tmp_path / "yield_sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_nine_significant_digits(tmp_path, capsys):
    run(["population", "--output", str(tmp_path), "--set", "t_max_us=0.2",
         "--set", "dt_us=0.1"], capsys)
    row = (tmp_path / "population.csv").read_text().splitlines()[2]
    decayed = row.split(",")[2]
    assert len(decayed.replace("-", "").replace(".", "").lstrip("0")) <= 9


def test_missing_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
