import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from entrymean import cli
from entrymean import experiment as experiment_module
from entrymean import metrics as metrics_module
from entrymean import recovery as recovery_module
from entrymean.cli import main
from entrymean.corruption import ADVERSARIES, apply_plan, load_plan_csv
from entrymean.data import load_dataset_csv, save_dataset_csv
from entrymean.experiment import read_result_rows
from entrymean.structure import load_structure_csv

from test_recovery import scale_spread_table


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


GEN_CONFIG = {
    "seed": 5,
    "n_samples": 60,
    "structure": {"kind": "dense", "n": 6, "r": 3},
    "latent": {"kind": "gaussian", "dim": 3},
}


def run_gen(tmp_path, **overrides):
    cfg = dict(GEN_CONFIG, out=str(tmp_path / "toy"), **overrides)
    assert main(["gen", "--config", write_json(tmp_path / "gen.json", cfg)]) == 0
    return tmp_path / "toy.data.csv", tmp_path / "toy.structure.csv"


def test_gen_writes_data_and_structure(tmp_path, capsys):
    data_path, structure_path = run_gen(tmp_path)
    ds = load_dataset_csv(data_path)
    a = load_structure_csv(structure_path)
    assert ds.values.shape == (60, 6)
    assert a.entries.shape == (6, 3)
    assert "toy.data.csv" in capsys.readouterr().out


def test_gen_seed_flag_overrides_config(tmp_path):
    cfg = write_json(tmp_path / "gen.json", dict(GEN_CONFIG, out=str(tmp_path / "a")))
    assert main(["gen", "--config", cfg]) == 0
    assert main(["gen", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "b")]) == 0
    assert main(["gen", "--config", cfg, "--seed", "6", "--out", str(tmp_path / "c")]) == 0
    base = (tmp_path / "a.data.csv").read_bytes()
    assert (tmp_path / "b.data.csv").read_bytes() == base
    assert (tmp_path / "c.data.csv").read_bytes() != base


@pytest.mark.parametrize("command", ["recover", "estimate", "metric"])
def test_seed_is_refused_where_no_seed_is_used(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "cfg.json", {"out": str(tmp_path / "x")})
    with pytest.raises(SystemExit) as info:
        main([command, "--config", cfg, "--seed", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("command", ["metric"])
def test_out_is_refused_where_nothing_is_written(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "cfg.json", {"kind": "l2", "estimate": [1.0], "reference": [0.0]})
    with pytest.raises(SystemExit) as info:
        main([command, "--config", cfg, "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    assert f"unrecognized arguments: --out {tmp_path / 'x'}" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_corrupt_tail_hiding(tmp_path):
    data_path, _ = run_gen(tmp_path)
    cfg = write_json(
        tmp_path / "corrupt.json",
        {
            "data_csv": str(data_path),
            "adversary": "tail_hiding",
            "budget": 0.1,
            "out": str(tmp_path / "hit"),
        },
    )
    assert main(["corrupt", "--config", cfg]) == 0
    corrupted = load_dataset_csv(tmp_path / "hit.corrupted.csv")
    plan = load_plan_csv(tmp_path / "hit.plan.csv")
    assert corrupted.mask.sum() == len(plan) == 6 * 6  # floor(0.1 * 60) per coordinate
    clean = load_dataset_csv(data_path)
    hidden = corrupted.mask
    assert np.array_equal(np.where(hidden, np.nan, corrupted.values)[~hidden], clean.values[~hidden])


@pytest.mark.parametrize("adversary", ADVERSARIES)
def test_corrupt_plan_file_reproduces_corrupted_csv(tmp_path, adversary):
    data_path, structure_path = run_gen(tmp_path)
    cfg = write_json(
        tmp_path / "corrupt.json",
        {
            "data_csv": str(data_path),
            "structure_csv": str(structure_path),
            "adversary": adversary,
            "budget": 0.1,
            "shift": 2.5,
            "out": str(tmp_path / "hit"),
        },
    )
    assert main(["corrupt", "--config", cfg]) == 0
    clean = load_dataset_csv(data_path)
    plan = load_plan_csv(tmp_path / "hit.plan.csv")
    corrupted = load_dataset_csv(tmp_path / "hit.corrupted.csv")
    replayed = apply_plan(clean, plan)
    assert len(plan) > 0
    np.testing.assert_array_equal(replayed.mask, corrupted.mask)
    np.testing.assert_array_equal(replayed.values, corrupted.values)
    if adversary == "sample_shift":
        assert not plan.hide.any()
        np.testing.assert_array_equal(
            plan.value, clean.values[plan.sample, plan.coord] + 2.5
        )


def test_corrupt_unrecoverable_needs_structure(tmp_path):
    data_path, structure_path = run_gen(tmp_path)
    base = {
        "data_csv": str(data_path),
        "adversary": "unrecoverable_hiding",
        "budget": 0.05,
        "out": str(tmp_path / "bad"),
    }
    cfg = write_json(tmp_path / "c1.json", base)
    assert main(["corrupt", "--config", cfg]) == 1  # no structure_csv
    cfg = write_json(tmp_path / "c2.json", dict(base, structure_csv=str(structure_path)))
    assert main(["corrupt", "--config", cfg]) == 0
    assert (tmp_path / "bad.plan.csv").exists()


def test_recover_round_trip(tmp_path):
    data_path, structure_path = run_gen(tmp_path)
    corrupt_cfg = write_json(
        tmp_path / "corrupt.json",
        {
            "data_csv": str(data_path),
            "adversary": "tail_hiding",
            "budget": 0.05,
            "out": str(tmp_path / "hit"),
        },
    )
    assert main(["corrupt", "--config", corrupt_cfg]) == 0
    recover_cfg = write_json(
        tmp_path / "recover.json",
        {
            "data_csv": str(tmp_path / "hit.corrupted.csv"),
            "method": "known_structure",
            "structure_csv": str(structure_path),
            "out": str(tmp_path / "fixed"),
        },
    )
    assert main(["recover", "--config", recover_cfg]) == 0
    report = json.loads((tmp_path / "fixed.report.json").read_text())
    repaired = load_dataset_csv(tmp_path / "fixed.recovered.csv")
    clean = load_dataset_csv(data_path)
    kept = [i for i in range(clean.n_samples) if i not in report["discarded_indices"]]
    np.testing.assert_allclose(repaired.values, clean.values[kept], atol=1e-6)
    assert not repaired.mask.any()


def test_recover_iterative_svd(tmp_path):
    data_path, _ = run_gen(tmp_path)
    values = load_dataset_csv(data_path).values.copy()
    values[3, 2] = np.nan
    lines = [
        ",".join("" if np.isnan(v) else f"{v:.17g}" for v in row) for row in values
    ]
    holed = tmp_path / "holed.csv"
    holed.write_text("\n".join(lines) + "\n")
    cfg = write_json(
        tmp_path / "recover.json",
        {
            "data_csv": str(holed),
            "method": "iterative_svd",
            "rank": 3,
            "out": str(tmp_path / "svd"),
        },
    )
    assert main(["recover", "--config", cfg]) == 0
    report = json.loads((tmp_path / "svd.report.json").read_text())
    assert report["converged"] is True
    repaired = load_dataset_csv(tmp_path / "svd.recovered.csv")
    clean = load_dataset_csv(data_path)
    np.testing.assert_allclose(repaired.values, clean.values, atol=1e-5)


def test_recover_iterative_svd_refuses_bad_tolerance(tmp_path, capsys):
    # tol, max_iter and exponent are retired: refused by recover and estimate
    # alike, whatever their value, rather than quietly ignored.
    data_path, _ = run_gen(tmp_path)
    capsys.readouterr()
    for key, value in (("tol", 1e-9), ("max_iter", 100), ("exponent", 2.0)):
        recovery = {"method": "iterative_svd", "rank": 3, key: value}
        recover_cfg = dict(recovery, data_csv=str(data_path), out=str(tmp_path / "svd"))
        estimate_cfg = {
            "data_csv": str(data_path),
            "estimator": {"kind": "two_step", "recovery": recovery},
        }
        for command, cfg in (("recover", recover_cfg), ("estimate", estimate_cfg)):
            path = write_json(tmp_path / f"{command}.json", cfg)
            assert main([command, "--config", path]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"config error: {key} is no longer a recovery option\n"
    assert not (tmp_path / "svd.recovered.csv").exists()


def test_recover_and_estimate_refuse_keys_they_do_not_read(tmp_path, capsys):
    # recover reads data_csv, method, rank, structure_csv and out; estimate's
    # estimator and recovery objects read their own keys. Any other is refused.
    data_path, structure_path = run_gen(tmp_path)
    capsys.readouterr()
    files = {"data_csv": str(data_path), "structure_csv": str(structure_path)}
    recover = dict(files, out=str(tmp_path / "fixed"))
    cases = [
        (
            "recover",
            dict(recover, method="iterative_svd", rank=3, max_iters=5000),
            "unknown recovery key 'max_iters'",
        ),
        ("recover", dict(recover, method="known_structure", seed=1), "unknown recovery key 'seed'"),
        (
            "recover",
            dict(recover, method="known_structure", rank=3),
            "rank is for iterative_svd only",
        ),
        (
            "estimate",
            dict(files, estimator={"kind": "empirical_mean", "inner": "tukey_median"}),
            "inner is for two_step only",
        ),
        (
            "estimate",
            dict(files, estimator={"kind": "empirical_mean", "recovery_method": "x"}),
            "unknown estimator key 'recovery_method'",
        ),
        (
            "estimate",
            dict(
                files,
                estimator={"kind": "two_step", "recovery": {"method": "replacement", "rank": 3}},
            ),
            "rank is for iterative_svd only",
        ),
    ]
    for command, cfg, message in cases:
        path = write_json(tmp_path / f"{command}.json", cfg)
        assert main([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: {message}\n")
    assert not (tmp_path / "fixed.recovered.csv").exists()


def test_every_config_object_refuses_keys_it_does_not_read(tmp_path, capsys):
    # Misspellings that used to be dropped: the experiment ran the shipped 3
    # trials on 500 samples with the shipped structure seed, and estimate
    # printed the unstandardized mean.
    data_path, _ = run_gen(tmp_path)
    capsys.readouterr()
    shipped = json.loads((CONFIGS / "experiment.json").read_text())
    out = str(tmp_path / "refused")
    shipped["out"] = out

    def experiment(mutate):
        cfg = json.loads(json.dumps(shipped))
        mutate(cfg)
        return cfg

    estimator = {"kind": "empirical_mean"}
    cases = [
        ("experiment", experiment(lambda c: c.update(trails=5)), "unknown experiment key 'trails'"),
        (
            "experiment",
            experiment(lambda c: c["data"].update(n_sample=9)),
            "unknown data key 'n_sample'",
        ),
        (
            "experiment",
            experiment(lambda c: c["data"]["structure"].update(sed=3)),
            "unknown structure key 'sed'",
        ),
        (
            "estimate",
            {"data_csv": str(data_path), "estimator": estimator, "standardise": True},
            "unknown estimate key 'standardise'",
        ),
        (
            "experiment",
            experiment(lambda c: c["data"]["latent"].update(sclae=2)),
            "unknown latent key 'sclae'",
        ),
        (
            "experiment",
            experiment(lambda c: c.update(data=dict(kind="csv", path=str(data_path), n_samples=1))),
            "unknown data key 'n_samples'",
        ),
        ("gen", dict(GEN_CONFIG, out=out, n_sample=9), "unknown gen key 'n_sample'"),
        (
            "corrupt",
            dict(data_csv=str(data_path), adversary="tail_hiding", budget=0.1, budgte=0.5, out=out),
            "unknown corrupt key 'budgte'",
        ),
        (
            "metric",
            dict(kind="l2", estimate=[1, 0], refrence=[0, 0]),
            "unknown metric key 'refrence'",
        ),
    ]
    for command, cfg, message in cases:
        path = write_json(tmp_path / f"{command}.json", cfg)
        assert main([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: {message}\n")
    assert not list(tmp_path.glob("refused.*"))


def test_estimate_prints_json(tmp_path, capsys):
    data_path, _ = run_gen(tmp_path)
    cfg = write_json(
        tmp_path / "estimate.json",
        {"data_csv": str(data_path), "estimator": {"kind": "empirical_mean"}},
    )
    capsys.readouterr()
    assert main(["estimate", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimator"] == "empirical_mean"
    ds = load_dataset_csv(data_path)
    np.testing.assert_allclose(payload["estimate"], ds.values.mean(axis=0))


def test_estimate_writes_file_with_out(tmp_path):
    data_path, structure_path = run_gen(tmp_path)
    cfg = write_json(
        tmp_path / "estimate.json",
        {
            "data_csv": str(data_path),
            "estimator": {"kind": "two_step", "recovery": {"method": "known_structure"}},
            "structure_csv": str(structure_path),
        },
    )
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "est")]) == 0
    payload = json.loads((tmp_path / "est.estimate.json").read_text())
    assert len(payload["estimate"]) == 6


def test_json_documents_share_one_format(tmp_path, capsys):
    def document(text):
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    data_path, structure_path = run_gen(tmp_path)
    files = {"data_csv": str(data_path), "structure_csv": str(structure_path)}
    recover = dict(files, method="known_structure", out=str(tmp_path / "fixed"))
    assert main(["recover", "--config", write_json(tmp_path / "recover.json", recover)]) == 0
    estimate = dict(files, estimator={"kind": "two_step", "recovery": {"method": "known_structure"}})
    estimate_cfg = write_json(tmp_path / "estimate.json", estimate)
    capsys.readouterr()
    assert main(["estimate", "--config", estimate_cfg]) == 0
    document(capsys.readouterr().out)
    assert main(["estimate", "--config", estimate_cfg, "--out", str(tmp_path / "est")]) == 0
    experiment = {
        "seed": 3,
        "trials": 1,
        "adversary": "tail_hiding",
        "budgets": [0.1],
        "data": {"kind": "csv", "path": str(data_path)},
        "methods": [{"kind": "empirical_mean"}],
        "out": str(tmp_path / "run"),
    }
    assert main(["experiment", "--config", write_json(tmp_path / "exp.json", experiment)]) == 0
    for name in ("fixed.report.json", "est.estimate.json", "run.summary.json"):
        document((tmp_path / name).read_text())


def test_estimate_standardizes_the_structure_with_the_table(tmp_path, capsys):
    shipped = json.loads((CONFIGS / "gen.json").read_text())
    data_path, structure_path = run_gen(
        tmp_path, structure=shipped["structure"], latent=shipped["latent"]
    )
    corrupt = {"data_csv": str(data_path), "adversary": "tail_hiding", "budget": 0.1}
    corrupt["out"] = str(tmp_path / "hit")
    assert main(["corrupt", "--config", write_json(tmp_path / "corrupt.json", corrupt)]) == 0
    cfg = {
        "data_csv": str(tmp_path / "hit.corrupted.csv"),
        "standardize": True,
        "estimator": {"kind": "two_step", "recovery": {"method": "known_structure"}},
        "structure_csv": str(structure_path),
    }
    capsys.readouterr()
    assert main(["estimate", "--config", write_json(tmp_path / "estimate.json", cfg)]) == 0
    estimate = json.loads(capsys.readouterr().out)["estimate"]
    assert len(estimate) == 16 and np.isfinite(estimate).all()


def test_metric_distribution_distances(tmp_path, capsys):
    corners = tmp_path / "corners.csv"
    corners.write_text("0,0,0.25\n0,1,0.25\n1,0,0.25\n1,1,0.25\n")
    point = tmp_path / "point.csv"
    point.write_text("1,0,1\n")
    values = {}
    for kind in ("tv", "entrywise_avg", "entrywise_max"):
        cfg = write_json(
            tmp_path / f"{kind}.json",
            {"kind": kind, "left_csv": str(corners), "right_csv": str(point)},
        )
        assert main(["metric", "--config", cfg]) == 0
        values[kind] = json.loads(capsys.readouterr().out)["value"]
    assert values["tv"] == pytest.approx(0.75, abs=1e-9)
    assert values["entrywise_avg"] == pytest.approx(0.5, abs=1e-9)
    assert values["entrywise_avg"] <= values["entrywise_max"] <= values["tv"] + 1e-9


def test_metric_vector_errors(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "l2.json",
        {"kind": "l2", "estimate": [1.0, 2.0], "reference": [1.0, 0.0]},
    )
    assert main(["metric", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(2.0)
    cov = tmp_path / "cov.csv"
    cov.write_text("4.0,0.0\n0.0,1.0\n")
    cfg = write_json(
        tmp_path / "maha.json",
        {
            "kind": "mahalanobis",
            "estimate": [3.0, 0.0],
            "reference": [1.0, 0.0],
            "covariance_csv": str(cov),
        },
    )
    assert main(["metric", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0)


def test_experiment_and_metric_command_score_through_one_table(tmp_path, capsys, monkeypatch):
    # The harness's metric kinds are the table's error kinds, and a function
    # replaced in the table's module is what both the harness and the
    # command call for its kind.
    errors = [k for k, (_, takes) in metrics_module.METRICS.items() if "estimate" in takes]
    assert experiment_module.METRIC_KINDS == tuple(errors) == ("l2", "mahalanobis")
    for value, kind in enumerate(errors, start=2):
        name = metrics_module.METRICS[kind][0]
        monkeypatch.setattr(metrics_module, name, lambda *args, value=value: float(value))
    run = experiment_module.parse_config(
        {
            "seed": 1,
            "trials": 2,
            "adversary": "tail_hiding",
            "budgets": [0.1],
            "data": {
                "kind": "synthetic",
                "structure": {"kind": "dense", "n": 5, "r": 3},
                "latent": {"kind": "gaussian", "dim": 3},
                "n_samples": 30,
            },
            "methods": [{"kind": "empirical_mean"}],
            "metrics": errors,
        }
    )
    values = experiment_module.run_experiment(run).values
    cov = tmp_path / "cov.csv"
    cov.write_text("1,0\n0,1\n")
    for k, kind in enumerate(errors):
        assert (values[..., k] == k + 2).all()
        cfg = {"kind": kind, "estimate": [1, 2], "reference": [0, 0], "covariance_csv": str(cov)}
        assert main(["metric", "--config", write_json(tmp_path / f"{kind}.json", cfg)]) == 0
        assert json.loads(capsys.readouterr().out) == {"kind": kind, "value": k + 2.0}


@pytest.mark.parametrize("kind", ["tv", "entrywise_avg", "entrywise_max"])
def test_metric_refuses_a_nan_mass(tmp_path, capsys, kind):
    good = tmp_path / "good.csv"
    good.write_text("0,0.5\n1,0.5\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("0,nan\n1,1\n")
    cfg = write_json(
        tmp_path / "metric.json", {"kind": kind, "left_csv": str(good), "right_csv": str(bad)}
    )
    assert main(["metric", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "config error: probabilities must be finite\n")


def test_metric_covariance_empty_cell_names_the_cell(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    cov.write_text("4.0,0.0\n0.0,\n")
    cfg = write_json(
        tmp_path / "maha.json",
        {
            "kind": "mahalanobis",
            "estimate": [3.0, 0.0],
            "reference": [1.0, 0.0],
            "covariance_csv": str(cov),
        },
    )
    assert main(["metric", "--config", cfg]) == 1
    assert capsys.readouterr().err == "config error: row 1, column 1: '' is not a number\n"


@pytest.mark.parametrize(
    "kind, estimate, reference, covariance, message",
    [
        ("l2", "[NaN, 0]", "[1, 0]", "4,0\n0,1\n", "estimate must be finite"),
        ("l2", "[3, 0]", "[-Infinity, 0]", "4,0\n0,1\n", "reference must be finite"),
        ("mahalanobis", "[Infinity, 0]", "[1, 0]", "4,0\n0,1\n", "estimate must be finite"),
        ("mahalanobis", "[3, 0]", "[1, 0]", "4,0\n0,nan\n", "covariance must be finite"),
    ],
)
def test_metric_refuses_non_finite_inputs(
    tmp_path, capsys, kind, estimate, reference, covariance, message
):
    # Python's json reads the bare words NaN and Infinity a hand-written config may hold.
    cov = tmp_path / "cov.csv"
    cov.write_text(covariance)
    cfg = tmp_path / "metric.json"
    cfg.write_text(
        f'{{"kind": "{kind}", "estimate": {estimate}, "reference": {reference},'
        f' "covariance_csv": "{cov}"}}\n'
    )
    assert main(["metric", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")


@pytest.mark.parametrize("command", ["gen", "corrupt"])
def test_config_seed_must_be_a_whole_number(tmp_path, capsys, command):
    data_csv, _ = run_gen(tmp_path)
    if command == "gen":
        cfg = dict(GEN_CONFIG, seed=1.9, out=str(tmp_path / "seeded"))
    else:
        cfg = {"seed": 1.9, "data_csv": str(data_csv), "adversary": "tail_hiding", "budget": 0.1}
    config = write_json(tmp_path / "seeded.json", cfg)
    capsys.readouterr()
    assert main([command, "--config", config, "--out", str(tmp_path / "seeded")]) == 1
    assert capsys.readouterr().err == "config error: seed must be a whole number, got 1.9\n"


@pytest.mark.parametrize("command", ["gen", "corrupt"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_negative_seed_names_the_seed(tmp_path, capsys, command, source):
    data_csv, _ = run_gen(tmp_path)
    if command == "gen":
        cfg = dict(GEN_CONFIG)
    else:
        cfg = {"seed": 5, "data_csv": str(data_csv), "adversary": "tail_hiding", "budget": 0.1}
    argv = [command, "--out", str(tmp_path / "seeded")]
    if source == "config":
        cfg["seed"] = -1
    else:
        argv += ["--seed", "-1"]
    config = write_json(tmp_path / "seeded.json", cfg)
    capsys.readouterr()
    assert main(argv + ["--config", config]) == 1
    assert capsys.readouterr().err == "config error: seed must be nonnegative\n"
    assert not list(tmp_path.glob("seeded.*.csv"))


@pytest.mark.parametrize(
    "command, field, value, message",
    [
        ("corrupt", "budget", True, "budget must be a float, got True"),
        ("corrupt", "shift", True, "shift must be a float, got True"),
        ("estimate", "standardize", "false", "standardize must be true or false, got 'false'"),
        ("estimate", "standardize", 0, "standardize must be true or false, got 0"),
        ("metric", "estimate", [True, 0], "estimate must be a float, got True"),
        ("metric", "reference", [0, False], "reference must be a float, got False"),
        (
            "gen",
            "structure",
            {"kind": "explicit", "n": 2, "r": 1, "entries": [[True], [1]]},
            "bad structure spec: entries must be a float, got True",
        ),
        (
            "gen",
            "latent",
            {"kind": "gaussian", "dim": 3, "mean": [False, 0, 0]},
            "bad latent spec: mean must be a float, got False",
        ),
        (
            "gen",
            "latent",
            {"kind": "gaussian", "dim": 3, "scale": True},
            "bad latent spec: scale must be a float, got True",
        ),
    ],
)
def test_config_fields_of_the_wrong_json_type_are_refused(
    tmp_path, capsys, command, field, value, message
):
    data_csv, _ = run_gen(tmp_path)
    cfg = {
        "corrupt": {"data_csv": str(data_csv), "adversary": "sample_shift", "budget": 0.1},
        "estimate": {"data_csv": str(data_csv), "estimator": {"kind": "empirical_mean"}},
        "metric": {"kind": "l2", "estimate": [0, 0], "reference": [0, 0]},
        "gen": GEN_CONFIG,
    }[command]
    config = write_json(tmp_path / "typed.json", dict(cfg, **{field: value}))
    capsys.readouterr()
    out = [] if command == "metric" else ["--out", str(tmp_path / "typed")]  # metric writes nothing
    assert main([command, "--config", config, *out]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")
    assert not list(tmp_path.glob("typed.*.csv"))


def test_experiment_subcommand(tmp_path):
    cfg_obj = {
        "seed": 3,
        "trials": 2,
        "adversary": "tail_hiding",
        "budgets": [0.1, 0.2],
        "data": {
            "kind": "synthetic",
            "structure": {"kind": "dense", "n": 4, "r": 2},
            "latent": {"kind": "gaussian", "dim": 2},
            "n_samples": 30,
        },
        "methods": [{"kind": "empirical_mean"}, {"kind": "coordinate_median"}],
        "out": str(tmp_path / "run"),
    }
    cfg = write_json(tmp_path / "exp.json", cfg_obj)
    assert main(["experiment", "--config", cfg, "--threads", "2"]) == 0
    rows = read_result_rows(tmp_path / "run.csv")
    assert len(rows) == 2 * 2 * 2
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["config"]["seed"] == 3
    assert len(summary["summary"]) == 4
    # seed override changes results
    assert main(
        ["experiment", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "run2")]
    ) == 0
    assert json.loads((tmp_path / "run2.summary.json").read_text())["config"]["seed"] == 4
    assert (tmp_path / "run2.csv").read_bytes() != (tmp_path / "run.csv").read_bytes()


def test_exit_code_1_for_bad_config(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["gen", "--config", str(broken)]) == 1
    assert "config error" in capsys.readouterr().err
    missing_key = write_json(tmp_path / "partial.json", {"n_samples": 5})
    assert main(["gen", "--config", missing_key]) == 1


def test_program_bugs_are_not_config_errors(tmp_path, monkeypatch):
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_gen", broken)
    cfg = write_json(tmp_path / "gen.json", dict(GEN_CONFIG, out=str(tmp_path / "toy")))
    with pytest.raises(KeyError, match="internal"):
        main(["gen", "--config", cfg])


def package_env():
    """The environment for a separate interpreter that imports this checkout's package."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


def run_entrymean(*argv):
    # A separate interpreter, so an escaping exception shows as a traceback.
    return subprocess.run(
        [sys.executable, "-m", "entrymean.cli", *argv],
        capture_output=True, text=True, env=package_env(),
    )


def test_completion_failure_exits_1_without_traceback(tmp_path):
    data_path, _ = run_gen(tmp_path, n_samples=200)
    corrupt_cfg = write_json(
        tmp_path / "corrupt.json",
        {
            "data_csv": str(data_path),
            "adversary": "concentrated_hiding",
            "budget": 0.2,
            "out": str(tmp_path / "hit"),
        },
    )
    assert main(["corrupt", "--config", corrupt_cfg]) == 0
    recover_cfg = write_json(
        tmp_path / "recover.json",
        {
            "data_csv": str(tmp_path / "hit.corrupted.csv"),
            "method": "iterative_svd",
            "rank": 3,
            "out": str(tmp_path / "svd"),
        },
    )
    proc = run_entrymean("recover", "--config", recover_cfg)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "recover failed: a coordinate is hidden in every retained sample"
    ]


def corrupt_toy(tmp_path, adversary, budget):
    data_path, structure_path = run_gen(tmp_path)
    cfg = {
        "data_csv": str(data_path),
        "adversary": adversary,
        "budget": budget,
        "out": str(tmp_path / "hit"),
    }
    assert main(["corrupt", "--config", write_json(tmp_path / "corrupt.json", cfg)]) == 0
    return str(tmp_path / "hit.corrupted.csv"), str(structure_path)


def run_svd_recovery(tmp_path, command, data_csv, rank):
    recovery = {"method": "iterative_svd", "rank": rank}
    if command == "estimate":
        cfg = {"data_csv": data_csv, "estimator": {"kind": "two_step", "recovery": recovery}}
    else:
        cfg = dict(recovery, data_csv=data_csv, out=str(tmp_path / "fixed"))
    return run_entrymean(command, "--config", write_json(tmp_path / f"{command}.json", cfg))


@pytest.mark.parametrize("command", ["estimate", "recover"])
def test_rank_must_be_a_whole_number(tmp_path, command):
    data_csv, _ = corrupt_toy(tmp_path, "tail_hiding", 0.05)
    whole = run_svd_recovery(tmp_path, command, data_csv, 3)
    assert whole.returncode == 0, whole.stderr
    as_float = run_svd_recovery(tmp_path, command, data_csv, 3.0)
    assert (as_float.returncode, as_float.stdout, as_float.stderr) == (0, whole.stdout, "")
    proc = run_svd_recovery(tmp_path, command, data_csv, 2.5)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "config error: rank must be a whole number, got 2.5"
    ]


def test_infinite_exponent_is_a_config_error(tmp_path):
    data_csv, structure_csv = corrupt_toy(tmp_path, "sample_shift", 0.1)
    recovery = {"method": "replacement", "exponent": float("inf")}
    cfg = write_json(
        tmp_path / "estimate.json",
        {
            "data_csv": data_csv,
            "structure_csv": structure_csv,
            "estimator": {"kind": "two_step", "recovery": recovery},
        },
    )
    assert "Infinity" in pathlib.Path(cfg).read_text()
    proc = run_entrymean("estimate", "--config", cfg)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "config error: exponent is no longer a recovery option"
    ]


def test_recover_offers_replacement(tmp_path):
    data_csv, structure_csv = corrupt_toy(tmp_path, "sample_shift", 0.1)
    cfg = {
        "data_csv": data_csv,
        "structure_csv": structure_csv,
        "method": "replacement",
        "out": str(tmp_path / "fixed"),
    }
    assert main(["recover", "--config", write_json(tmp_path / "recover.json", cfg)]) == 0
    report = json.loads((tmp_path / "fixed.report.json").read_text())
    victims = sorted(set(load_plan_csv(tmp_path / "hit.plan.csv").sample.tolist()))
    assert len(victims) == 6
    assert report["discarded_indices"] == victims
    assert report["recovered_indices"] == []
    clean = load_dataset_csv(tmp_path / "toy.data.csv")
    recovered = load_dataset_csv(tmp_path / "fixed.recovered.csv")
    np.testing.assert_array_equal(recovered.values, np.delete(clean.values, victims, axis=0))


@pytest.mark.parametrize(
    "case, message",
    [
        ("hidden_cells", "replacement decoding expects a fully visible table"),
        ("margin_cap", "replacement decoding: n=21 exceeds the exhaustive-search cap 20"),
        ("support_cap", "replacement decoding: 6 supports within radius 1 exceed the cap 5"),
    ],
)
def test_replacement_decoding_failure_exits_1(tmp_path, monkeypatch, capsys, case, message):
    if case == "hidden_cells":
        data_csv, structure_csv = corrupt_toy(tmp_path, "tail_hiding", 0.1)
    else:
        n = 21 if case == "margin_cap" else GEN_CONFIG["structure"]["n"]
        paths = run_gen(tmp_path, structure={"kind": "dense", "n": n, "r": 3})
        data_csv, structure_csv = map(str, paths)
    recovery = {"method": "replacement"}
    cfg = write_json(
        tmp_path / "estimate.json",
        {
            "data_csv": data_csv,
            "structure_csv": structure_csv,
            "estimator": {"kind": "two_step", "recovery": recovery},
        },
    )
    if case == "support_cap":  # the cap can only be lowered in this process
        monkeypatch.setattr(recovery_module, "REPLACEMENT_SOLVE_CAP", 5)
        code, stderr = main(["estimate", "--config", cfg]), capsys.readouterr().err
    else:
        proc = run_entrymean("estimate", "--config", cfg)
        code, stderr = proc.returncode, proc.stderr
    assert code == 1
    assert "Traceback" not in stderr
    assert stderr.strip().splitlines() == [f"estimate failed: {message}"]


def test_unconverged_completion_fails_estimate(tmp_path):
    data_path = tmp_path / "spread.csv"
    save_dataset_csv(scale_spread_table(every_row_hidden=True), data_path)
    cfg = write_json(
        tmp_path / "estimate.json",
        {
            "data_csv": str(data_path),
            "estimator": {"kind": "two_step", "recovery": {"method": "iterative_svd", "rank": 2}},
        },
    )
    proc = run_entrymean("estimate", "--config", cfg)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [
        "estimate failed: rank-2 completion did not converge in 500 sweeps (tol 1e-09)"
    ]


def test_unconverged_completion_fails_recover(tmp_path):
    data_path = tmp_path / "spread.csv"
    save_dataset_csv(scale_spread_table(every_row_hidden=True), data_path)
    cfg = write_json(
        tmp_path / "recover.json",
        {
            "data_csv": str(data_path),
            "method": "iterative_svd",
            "rank": 2,
            "out": str(tmp_path / "svd"),
        },
    )
    proc = run_entrymean("recover", "--config", cfg)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "recover failed: rank-2 completion did not converge in 500 sweeps (tol 1e-09)"
    ]
    assert not (tmp_path / "svd.recovered.csv").exists()
    assert not (tmp_path / "svd.report.json").exists()


# Runs each argv list of argv[1] (JSON) through cli.main, then prints whether
# scipy.optimize has been imported.
LOADS_OPTIMIZE = (
    "import json, sys\n"
    "from entrymean.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    assert main(argv) == 0, argv\n"
    "print('scipy.optimize' in sys.modules)\n"
)


def loads_optimize(cwd, *commands):
    proc = subprocess.run(
        [sys.executable, "-c", LOADS_OPTIMIZE, json.dumps(commands)],
        capture_output=True, text=True, env=package_env(), cwd=cwd, check=True,
    )
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_only_coupling_metrics_import_scipy_optimize(tmp_path):
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    (tmp_path / "out").mkdir()
    chain = [
        [name, "--config", str(configs / f"{name}.json")]
        for name in ("gen", "corrupt", "recover", "estimate", "metric", "experiment")
    ]
    assert not loads_optimize(tmp_path, *chain)
    # (1, 0) against (0, 1): the moved atoms differ in every coordinate, so
    # the distance is their mass and no solver is needed.
    (tmp_path / "p.csv").write_text("0,0,0.5\n1,0,0.5\n")
    (tmp_path / "q.csv").write_text("0,0,0.5\n0,1,0.5\n")
    avg = write_json(
        tmp_path / "avg.json", {"kind": "entrywise_avg", "left_csv": "p.csv", "right_csv": "q.csv"}
    )
    assert not loads_optimize(tmp_path, ["metric", "--config", avg])
    # The diagonal against the anti-diagonal: no coordinate separates them.
    (tmp_path / "diag.csv").write_text("0,0,0.5\n1,1,0.5\n")
    (tmp_path / "anti.csv").write_text("0,1,0.5\n1,0,0.5\n")
    avg = write_json(
        tmp_path / "avg.json",
        {"kind": "entrywise_avg", "left_csv": "diag.csv", "right_csv": "anti.csv"},
    )
    assert loads_optimize(tmp_path, ["metric", "--config", avg])


# Runs the shipped CLI chain from argv[1]'s configs (the metric on argv[2]'s),
# an experiment (argv[3], JSON) whose rank-only completion takes the median
# start, and every budget accounting of a plan; then prints which of
# numpy.ma and numpy.char are loaded, and how many medians started a completion.
LOADS_MA_OR_CHAR = (
    "import json, sys\n"
    "import numpy as np\n"
    "from entrymean import corruption, data, experiment, recovery\n"
    "from entrymean.cli import main\n"
    "for name in ('gen', 'corrupt', 'recover', 'estimate'):\n"
    "    assert main([name, '--config', f'{sys.argv[1]}/{name}.json']) == 0, name\n"
    "assert main(['metric', '--config', sys.argv[2]]) == 0\n"
    "starts = []\n"
    "def counted(rows, axis=1):\n"
    "    starts.append(rows.shape)\n"
    "    return data.median(rows, axis)\n"
    "recovery.median = counted\n"
    "experiment.run_experiment(experiment.parse_config(json.loads(sys.argv[3])))\n"
    "ds = data.load_dataset_csv('out/demo.data.csv')\n"
    "plan = corruption.plan_tail_hiding(ds, 0.1)\n"
    "for kind in corruption.AdversaryKind:\n"
    "    corruption.plan_budget(plan, kind, ds.n_samples, ds.dim)\n"
    "print(json.dumps([sorted({'numpy.ma', 'numpy.char'} & set(sys.modules)), len(starts)]))\n"
)


def test_the_package_never_loads_numpy_ma_or_numpy_char(tmp_path):
    # np.median and a plain np.unique load numpy.ma, np.char.str_len numpy.char:
    # about 1.2 MB of resident memory a process never needs.
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    (tmp_path / "out").mkdir()
    (tmp_path / "p.csv").write_text("0,0,0.5\n1,0,0.5\n")
    (tmp_path / "q.csv").write_text("0,0,0.5\n0,1,0.5\n")
    avg = write_json(
        tmp_path / "avg.json", {"kind": "entrywise_avg", "left_csv": "p.csv", "right_csv": "q.csv"}
    )
    sweep = json.loads((configs / "experiment.json").read_text())
    sweep.pop("out")
    # At 40 rows and budget 0.2 fewer than 8 rows are complete, so rank-8
    # completion starts from the coordinate medians.
    sweep["data"]["n_samples"] = 40
    sweep.update(trials=1, budgets=[0.2], metrics=["l2"], methods=[
        {"kind": "coordinate_median"},
        {"kind": "two_step", "recovery": {"method": "iterative_svd", "rank": 8}},
    ])
    proc = subprocess.run(
        [sys.executable, "-c", LOADS_MA_OR_CHAR, str(configs), avg, json.dumps(sweep)],
        capture_output=True, text=True, env=package_env(), cwd=tmp_path, check=True,
    )
    loaded, median_starts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert median_starts > 0
    assert loaded == []


def test_import_entrymean_leaves_scipy_optimize_unloaded():
    probe = "import sys, entrymean; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=package_env(), check=True
    )
    assert proc.stdout.strip() == "False"


def test_metric_failure_exits_1_without_traceback(tmp_path):
    cov = tmp_path / "cov.csv"
    cov.write_text("1.0,0.0\n0.0,0.0\n")  # singular: the second coordinate never varies
    cfg = write_json(
        tmp_path / "maha.json",
        {
            "kind": "mahalanobis",
            "estimate": [0.0, 1.0],
            "reference": [0.0, 0.0],
            "covariance_csv": str(cov),
        },
    )
    proc = run_entrymean("metric", "--config", cfg)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "metric failed: error vector lies outside the range of the covariance"
    ]


def test_exit_code_2_for_missing_files(tmp_path, capsys):
    assert main(["gen", "--config", str(tmp_path / "nowhere.json")]) == 2
    assert "i/o error" in capsys.readouterr().err
    cfg = write_json(
        tmp_path / "corrupt.json",
        {
            "data_csv": str(tmp_path / "missing.csv"),
            "adversary": "tail_hiding",
            "budget": 0.1,
            "out": str(tmp_path / "x"),
        },
    )
    assert main(["corrupt", "--config", cfg]) == 2


def test_pipeline_gen_corrupt_recover_estimate(tmp_path, capsys):
    data_path, structure_path = run_gen(tmp_path)
    corrupt_cfg = write_json(
        tmp_path / "corrupt.json",
        {
            "data_csv": str(data_path),
            "adversary": "concentrated_hiding",
            "budget": 0.1,
            "out": str(tmp_path / "hit"),
        },
    )
    assert main(["corrupt", "--config", corrupt_cfg]) == 0
    estimate_cfg = write_json(
        tmp_path / "estimate.json",
        {
            "data_csv": str(tmp_path / "hit.corrupted.csv"),
            "estimator": {"kind": "two_step", "recovery": {"method": "known_structure"}},
            "structure_csv": str(structure_path),
        },
    )
    capsys.readouterr()
    assert main(["estimate", "--config", estimate_cfg]) == 0
    est = np.array(json.loads(capsys.readouterr().out)["estimate"])
    clean_mean = load_dataset_csv(data_path).values.mean(axis=0)
    np.testing.assert_allclose(est, clean_mean, atol=1e-6)


def test_shipped_configs_compose(tmp_path, monkeypatch, capsys):
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    assert main(["gen", "--config", str(configs / "gen.json")]) == 0
    assert main(["corrupt", "--config", str(configs / "corrupt.json")]) == 0
    assert main(["recover", "--config", str(configs / "recover.json")]) == 0
    capsys.readouterr()
    assert main(["estimate", "--config", str(configs / "estimate.json")]) == 0
    estimate = json.loads(capsys.readouterr().out)["estimate"]
    assert len(estimate) == 16
    assert main(["metric", "--config", str(configs / "metric.json")]) == 0
    assert json.loads(capsys.readouterr().out)["value"] > 0
    assert main(["experiment", "--config", str(configs / "experiment.json")]) == 0
    rows = read_result_rows(tmp_path / "out" / "bench.csv")
    assert len(rows) == 3 * 3 * 3 * 2
