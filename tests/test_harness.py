import csv
import hashlib
import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from helmfmm.cli import build_parser, main
from helmfmm.harness import (
    ExperimentConfig,
    read_particle_file,
    run_experiment,
)


def test_run_experiment_record_schema():
    cfg = ExperimentConfig(
        distribution="uniform-cube", n=400, kappa_d=8.0, order=4, ncrit=32,
        check_error=50, seed=1,
    )
    record = run_experiment(cfg)
    d = record.to_json_dict()
    assert set(d) == {"config", "timings", "counts", "errors", "direct"}
    assert d["config"]["n"] == 400
    # kappa = kappa_d / root box side, and the unit cube's box side is ~1
    assert 8.0 / d["config"]["kappa"] == pytest.approx(1.0, rel=0.2)
    assert set(d["timings"]) == {
        "tree", "blank", "precompute", "upward", "m2f", "m2l", "f2l", "p2p", "downward",
        "total",
    }
    assert set(d["counts"]) == {
        "cells", "leaves", "symbols", "effective_expansions", "p2p_pairs",
        "m2l_events",
    }
    assert d["errors"] is not None
    assert d["errors"]["l2"] < 1e-2
    # the sampled direct sum's time scaled to all 400 targets, and the
    # solve's total over it
    assert set(d["direct"]) == {"direct_est_s", "fmm_over_direct"}
    assert d["direct"]["direct_est_s"] > 0
    assert d["direct"]["fmm_over_direct"] == d["timings"]["total"] / d["direct"]["direct_est_s"]
    assert record.potentials.shape == (400,)


def test_run_experiment_ncrit_auto_picks_from_sweep():
    cfg = ExperimentConfig(n=300, order=3, ncrit="auto")
    record = run_experiment(cfg)
    assert record.config["ncrit"] in (32, 64, 128, 256)


def test_json_and_csv_outputs(tmp_path):
    cfg = ExperimentConfig(n=200, order=3, ncrit=64, check_error=20)
    record = run_experiment(cfg)

    jpath = tmp_path / "run.json"
    record.write_json(jpath)
    loaded = json.loads(jpath.read_text())
    assert loaded == record.to_json_dict()

    cpath = tmp_path / "runs.csv"
    record.write_csv(cpath)
    record.write_csv(cpath)  # appends, header only once
    with cpath.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["config.n"] == "200"
    assert float(rows[0]["errors.l2"]) == record.errors["l2"]
    assert float(rows[0]["direct.fmm_over_direct"]) == record.direct["fmm_over_direct"]


def test_read_particle_file(tmp_path):
    path = tmp_path / "particles.txt"
    path.write_text(
        "# positions and complex charges\n"
        "0.1 0.2 0.3  1.0 -0.5\n"
        "\n"
        "0.9 0.8 0.7  0.0 2.0  # trailing note\n"
    )
    pts, q = read_particle_file(path)
    assert pts.shape == (2, 3)
    assert q[0] == 1.0 - 0.5j
    assert q[1] == 2.0j


def test_read_particle_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.1 0.2 0.3 1.0\n")
    with pytest.raises(ValueError):
        read_particle_file(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ValueError):
        read_particle_file(empty)


def test_experiment_from_particle_file(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(100, 3))
    q = rng.uniform(size=(100, 2))
    lines = [
        f"{p[0]} {p[1]} {p[2]} {c[0]} {c[1]}" for p, c in zip(pts, q)
    ]
    path = tmp_path / "cloud.txt"
    path.write_text("\n".join(lines) + "\n")
    cfg = ExperimentConfig(order=3, ncrit=32, check_error=30, particle_file=str(path))
    record = run_experiment(cfg)
    assert record.config["n"] == 100
    assert record.errors["l2"] < 1e-2


def test_file_input_echoes_no_distribution(tmp_path):
    """A run from a particle file echoes no generator distribution, but keeps
    the seed, which still picks the error sample."""
    path = tmp_path / "cloud.txt"
    pts = np.random.default_rng(6).uniform(size=(80, 3))
    path.write_text("".join(f"{x} {y} {z} 1.0 0.5\n" for x, y, z in pts))
    base = ExperimentConfig(
        distribution="sphere", order=3, ncrit=16, check_error=10, particle_file=str(path)
    )
    records = [run_experiment(replace(base, seed=seed)) for seed in (7, 7, 8)]
    assert [r.config["distribution"] for r in records] == [None] * 3
    assert [r.config["seed"] for r in records] == [7, 7, 8]
    assert records[0].errors == records[1].errors != records[2].errors
    generated = run_experiment(replace(base, n=80, particle_file=None))
    assert generated.config["distribution"] == "sphere"


def test_cli_writes_json_and_prints_digest(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main([
        "--distribution", "sphere", "--n", "300", "--kappa-d", "4.0",
        "--order", "3", "--ncrit", "32", "--check-error", "25",
        "--seed", "3", "--output", str(out),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["config"]["distribution"] == "sphere"
    assert len(summary["potentials_sha256"]) == 64
    assert json.loads(out.read_text())["config"] == summary["config"]


def test_cli_digest_is_reproducible(tmp_path, capsys):
    args = ["--n", "200", "--order", "3", "--ncrit", "32", "--seed", "5"]
    main(args)
    first = json.loads(capsys.readouterr().out)["potentials_sha256"]
    main(args)
    second = json.loads(capsys.readouterr().out)["potentials_sha256"]
    assert first == second


def test_cli_csv_append(tmp_path, capsys):
    cpath = tmp_path / "sweep.csv"
    for n in ("100", "150"):
        main(["--n", n, "--order", "3", "--ncrit", "32", "--csv", str(cpath)])
        capsys.readouterr()
    with cpath.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["config.n"] for r in rows] == ["100", "150"]
    # no sampled targets, so no errors and no direct-sum time
    assert rows[0]["errors.l2"] == rows[0]["direct.direct_est_s"] == ""


@pytest.mark.parametrize("ncrit", ["abc", "0", "-3", "2.5"])
def test_cli_rejects_a_bad_ncrit(capsys, ncrit):
    assert build_parser().parse_args(["--ncrit", "auto"]).ncrit == "auto"
    assert build_parser().parse_args(["--ncrit", "7"]).ncrit == 7
    with pytest.raises(SystemExit) as exc:
        main(["--n", "100", "--ncrit", ncrit])
    assert exc.value.code == 2
    assert "--ncrit" in capsys.readouterr().err


def test_cli_sets_every_experiment_field(tmp_path, capsys):
    """Every ExperimentConfig field has a flag whose non-default value
    reaches the record's config; --strategy is no longer an option."""
    path = tmp_path / "cloud.txt"
    pts = np.random.default_rng(2).uniform(size=(120, 3))
    path.write_text("".join(f"{x} {y} {z} 1.0 0.5\n" for x, y, z in pts))
    values = {
        "distribution": "sphere", "n": 120, "kappa_d": 3.0, "order": 3, "ncrit": 16,
        "eta": 1.5, "check_error": 10, "seed": 4, "particle_file": str(path),
    }
    assert set(values) == {f.name for f in fields(ExperimentConfig)}
    defaults = asdict(ExperimentConfig())
    assert all(value != defaults[name] for name, value in values.items())
    flags = {name: "--" + name.replace("_", "-") for name in values} | {"particle_file": "--input"}
    assert main([arg for name, value in values.items() for arg in (flags[name], str(value))]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    # the particle file replaces the generated distribution
    assert {name: config[name] for name in values} == values | {"distribution": None}

    with pytest.raises(SystemExit) as exc:
        main(["--n", "100", "--strategy", "t"])
    assert exc.value.code == 2
    assert "--strategy" in capsys.readouterr().err


def test_cli_rejects_a_negative_check_error(capsys):
    """A negative sample count is an error before any solve, not a run that
    samples nothing."""
    with pytest.raises(ValueError, match="check_error"):
        main(["--n", "100", "--check-error", "-3"])
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError, match="check_error"):
        run_experiment(ExperimentConfig(n=100, check_error=-1))
