import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from entrymean import estimators as estimators_module
from entrymean import experiment as experiment_module
from entrymean import recovery as recovery_module
from entrymean import structure as structure_module
from entrymean.corruption import apply_plan, plan_tail_hiding
from entrymean.data import Dataset, save_dataset_csv
from entrymean.datagen import draw_latents, make_structure, synthesize
from entrymean.errors import CapExceededError
from entrymean.experiment import (
    ConfigError,
    ExperimentConfig,
    ingest_csv,
    load_config,
    load_json,
    parse_config,
    parse_estimator_spec,
    parse_recovery_spec,
    parse_structure_spec,
    read_result_rows,
    run_experiment,
    write_results,
)
from entrymean.recovery import RecoveryStatus, recover_table
from entrymean.structure import StructureMatrix, save_structure_csv

import oracles

BASE_CONFIG = {
    "seed": 7,
    "trials": 3,
    "adversary": "tail_hiding",
    "budgets": [0.1, 0.2],
    "data": {
        "kind": "synthetic",
        "structure": {"kind": "dense", "n": 5, "r": 3},
        "latent": {"kind": "gaussian", "dim": 3},
        "n_samples": 40,
    },
    "methods": [
        {"kind": "empirical_mean"},
        {"kind": "coordinate_median"},
        {"kind": "two_step", "recovery": {"method": "known_structure"}},
    ],
    "metrics": ["l2"],
}


def base_config() -> dict:
    return copy.deepcopy(BASE_CONFIG)


def test_row_count_and_canonical_order():
    cfg = parse_config(base_config())
    result = run_experiment(cfg)
    assert len(result.rows) == 3 * 2 * 3 * 1  # methods x budgets x trials x metrics
    labels = [m.label for m in cfg.methods]
    keys = [
        (labels.index(r.method), r.budget, r.trial, r.metric) for r in result.rows
    ]
    assert keys == sorted(keys)
    # every combination appears exactly once
    assert len(set(keys)) == len(keys)


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(base_config())
    first = write_results(run_experiment(cfg), str(tmp_path / "a"))
    second = write_results(run_experiment(cfg), str(tmp_path / "b"))
    for pa, pb in zip(first, second):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_threaded_run_matches_serial(tmp_path):
    cfg = parse_config(base_config())
    serial = write_results(run_experiment(cfg, threads=1), str(tmp_path / "s"))
    threaded = write_results(run_experiment(cfg, threads=3), str(tmp_path / "t"))
    assert Path(serial[0]).read_bytes() == Path(threaded[0]).read_bytes()
    assert Path(serial[1]).read_bytes() == Path(threaded[1]).read_bytes()


def test_threaded_run_matches_serial_with_svd_completion(tmp_path):
    cfg_obj = base_config()
    cfg_obj["methods"].append(
        {"kind": "two_step", "recovery": {"method": "iterative_svd", "rank": 3}}
    )
    cfg = parse_config(cfg_obj)
    serial = write_results(run_experiment(cfg, threads=1), str(tmp_path / "s"))
    threaded = write_results(run_experiment(cfg, threads=3), str(tmp_path / "t"))
    for ps, pt in zip(serial, threaded):
        assert Path(ps).read_bytes() == Path(pt).read_bytes()


def test_estimator_failure_becomes_na(tmp_path):
    # concentrated hiding with alpha * n >= 1 blanks one coordinate in every
    # sample, so visible-only estimators are stuck while the structure-aware
    # route repairs the column.
    cfg_obj = base_config()
    cfg_obj["adversary"] = "concentrated_hiding"
    cfg_obj["budgets"] = [0.25]
    cfg_obj["methods"] = [
        {"kind": "complete_case_mean"},
        {"kind": "empirical_mean"},
        {"kind": "two_step", "recovery": {"method": "known_structure"}},
    ]
    cfg = parse_config(cfg_obj)
    result = run_experiment(cfg)
    by_method = {}
    for row in result.rows:
        by_method.setdefault(row.method, []).append(row.value)
    assert all(np.isnan(v) for v in by_method["complete_case_mean"])
    assert all(np.isnan(v) for v in by_method["empirical_mean"])
    assert all(np.isfinite(v) for v in by_method["two_step+known_structure+empirical_mean"])
    csv_path, _ = write_results(result, str(tmp_path / "na"))
    text = Path(csv_path).read_text()
    assert text.count(",NA\n") == 6  # two failing methods, three trials


@pytest.mark.parametrize("case", ["hidden_cells", "margin_cap", "support_cap"])
def test_replacement_decoding_failure_becomes_na(tmp_path, monkeypatch, case):
    # Hidden cells, a structure past the removal-margin search's cap of n = 20,
    # and more supports within the radius than the decoder's cap (radius 1 of
    # the n = 5, r = 3 structure gives 5 supports) each make a missing value.
    cfg_obj = base_config()
    cfg_obj["methods"] = [{"kind": "empirical_mean"}, replacement_method()]
    if case != "hidden_cells":
        cfg_obj["adversary"] = "sample_shift"
    if case == "margin_cap":
        cfg_obj["data"]["structure"] = {"kind": "dense", "n": 21, "r": 3}
    if case == "support_cap":
        monkeypatch.setattr(recovery_module, "REPLACEMENT_SOLVE_CAP", 4)
    result = run_experiment(parse_config(cfg_obj))
    for row in result.rows:
        assert np.isnan(row.value) == (row.method != "empirical_mean")
    csv_path, _ = write_results(result, str(tmp_path / "na"))
    assert Path(csv_path).read_text().count(",NA\n") == 2 * 3  # budgets x trials


def test_replacement_decoding_beats_the_median_under_sample_shift():
    # Every victim of the shipped config's sample shift has all 16 cells moved,
    # past the decoding radius 2 of its structure, so the decoder drops it.
    cfg_obj = load_json(Path(__file__).resolve().parents[1] / "configs" / "experiment.json")
    cfg_obj["adversary"] = "sample_shift"
    cfg_obj["methods"].append(replacement_method())
    means = {
        (e["method"], e["budget"]): e["mean"]
        for e in run_experiment(parse_config(cfg_obj)).summary()
        if e["metric"] == "l2"
    }
    for budget in cfg_obj["budgets"]:
        decoded = means[("two_step+replacement+empirical_mean", budget)]
        assert decoded < means[("coordinate_median", budget)]


def test_known_structure_discards_every_sample_shift_victim(monkeypatch):
    # Fully visible rows are range-tested too, so known_structure drops each
    # shifted row of the shipped config, as replacement decoding does, and so
    # does rank-only completion against the span most clean rows share.
    cfg_obj = load_json(Path(__file__).resolve().parents[1] / "configs" / "experiment.json")
    cfg_obj["adversary"] = "sample_shift"
    cfg_obj["methods"] += [replacement_method(), svd_method(rank=8)]
    plans, reports = [], {"known_structure": [], "replacement": [], "iterative_svd": []}
    make_plan, recover = experiment_module.make_plan, estimators_module.recover

    def plan_spy(*args, **kwargs):
        plans.append(make_plan(*args, **kwargs))
        return plans[-1]

    def recover_spy(ds, spec, structure=None):
        reports[spec.method].append(recover(ds, spec, structure))
        return reports[spec.method][-1]

    monkeypatch.setattr(experiment_module, "make_plan", plan_spy)
    monkeypatch.setattr(estimators_module, "recover", recover_spy)
    result = run_experiment(parse_config(cfg_obj))
    victims = [np.unique(plan.sample).tolist() for plan in plans]
    assert len(victims) == 9 and all(victims)
    for method_reports in reports.values():
        discarded = [np.flatnonzero(r.status == RecoveryStatus.UNRECOVERABLE) for r in method_reports]
        assert [d.tolist() for d in discarded] == victims
        assert not any((r.status == RecoveryStatus.RECOVERED).any() for r in method_reports)
    values = {}
    for row in result.rows:
        values.setdefault((row.method, row.metric), []).append(row.value)
    for metric in cfg_obj["metrics"]:
        known = values[("two_step+known_structure+empirical_mean", metric)]
        assert known == values[("two_step+replacement+empirical_mean", metric)]
        assert known == values[("two_step+iterative_svd+empirical_mean", metric)]
    means = {(e["method"], e["budget"], e["metric"]): e["mean"] for e in result.summary()}
    for budget in cfg_obj["budgets"]:
        known = means[("two_step+known_structure+empirical_mean", budget, "l2")]
        assert known < means[("coordinate_median", budget, "l2")]


def test_metric_failure_becomes_na(tmp_path):
    # CSV-backed data with a single fully visible row has no covariance
    # estimate, so mahalanobis rows are NA while l2 rows are not.
    path = tmp_path / "data.csv"
    rows = ["1.0,2.0,3.0"]
    rng = np.random.default_rng(3)
    for _ in range(19):
        vals = [f"{v:.6f}" for v in rng.normal(size=3)]
        vals[rng.integers(3)] = ""
        rows.append(",".join(vals))
    path.write_text("\n".join(rows) + "\n")
    cfg = parse_config(
        {
            "seed": 1,
            "trials": 1,
            "adversary": "tail_hiding",
            "budgets": [0.1],
            "data": {"kind": "csv", "path": str(path)},
            "methods": [{"kind": "empirical_mean"}],
            "metrics": ["l2", "mahalanobis"],
        }
    )
    result = run_experiment(cfg)
    values = {r.metric: r.value for r in result.rows}
    assert np.isfinite(values["l2"])
    assert np.isnan(values["mahalanobis"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_estimate_becomes_na(tmp_path):
    # Means and medians of cells near the largest double overflow to inf: a
    # missing value, as it was, not an aborted run.
    path = tmp_path / "huge.csv"
    path.write_text("1e308,1\n1.5e308,2\n1.7e308,3\n1e308,4\n")
    cfg = base_config()
    cfg.update(budgets=[0.0], data={"kind": "csv", "path": str(path)}, metrics=["l2", "mahalanobis"])
    cfg["methods"] = cfg["methods"][:2]
    result = run_experiment(parse_config(cfg))
    assert len(result.rows) == 2 * 3 * 2 and all(np.isnan(r.value) for r in result.rows)


def test_summary_statistics_match_rows():
    cfg = parse_config(base_config())
    result = run_experiment(cfg)
    summary = result.summary()
    assert len(summary) == 3 * 2 * 1
    for entry in summary:
        vals = [
            r.value
            for r in result.rows
            if r.method == entry["method"]
            and r.budget == entry["budget"]
            and r.metric == entry["metric"]
            and not np.isnan(r.value)
        ]
        assert entry["n"] == len(vals) == cfg.trials
        assert entry["mean"] == pytest.approx(np.mean(vals))
        assert entry["sd"] == pytest.approx(np.std(vals))


def test_summary_equals_a_per_group_recomputation():
    # Three trials, two metrics, NA rows from the rank-3 covariance's Mahalanobis
    # values and more NA rows blanked here, so groups hold 0 to 3 values.
    cfg_obj = base_config()
    cfg_obj["metrics"] = ["l2", "mahalanobis"]
    result = run_experiment(parse_config(cfg_obj))
    result.rows = [
        dataclasses.replace(r, value=float("nan")) if i % 4 == 0 else r
        for i, r in enumerate(result.rows)
    ]
    expected = []
    for spec in result.config.methods:
        for budget in result.config.budgets:
            for metric in result.config.metrics:
                vals = [
                    r.value
                    for r in result.rows
                    if (r.method, r.budget, r.metric) == (spec.label, budget, metric)
                    and not np.isnan(r.value)
                ]
                expected.append(
                    {
                        "method": spec.label,
                        "budget": budget,
                        "metric": metric,
                        "mean": float(np.mean(vals)) if vals else None,
                        "sd": float(np.std(vals)) if vals else None,
                        "n": len(vals),
                    }
                )
    assert result.summary() == expected  # bit-identical means and sds
    assert {e["n"] for e in expected} == {0, 1, 2, 3}


def test_write_read_round_trip(tmp_path):
    cfg_obj = base_config()
    cfg_obj["adversary"] = "concentrated_hiding"
    cfg_obj["budgets"] = [0.25]
    cfg_obj["methods"] = [{"kind": "complete_case_mean"}, {"kind": "empirical_mean"}]
    result = run_experiment(parse_config(cfg_obj))
    csv_path, json_path = write_results(result, str(tmp_path / "run"))
    back = read_result_rows(csv_path)
    assert len(back) == len(result.rows)
    for orig, got in zip(result.rows, back):
        assert got.method == orig.method
        assert got.budget == orig.budget
        assert got.trial == orig.trial
        assert got.metric == orig.metric
        if np.isnan(orig.value):
            assert np.isnan(got.value)
        else:
            assert got.value == orig.value  # 17 significant digits round-trip
    payload = json.loads(Path(json_path).read_text())
    assert payload["config"] == cfg_obj
    assert len(payload["summary"]) == 2


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    cfg = load_config(path)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.seed == 7
    assert [m.label for m in cfg.methods][0] == "empirical_mean"


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_ingest_csv_standardizes_visible_entries(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.normal(loc=5.0, scale=3.0, size=(30, 3))
    values[:, 2] = 4.25  # zero-variance coordinate
    lines = []
    for i, row in enumerate(values):
        cells = [f"{v:.10f}" for v in row]
        if i % 5 == 0:
            cells[1] = ""
        lines.append(",".join(cells))
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(lines) + "\n")
    ds, _ = ingest_csv(path, standardize=True)
    assert ds.mask.sum() == 6
    for j in range(2):
        col = ds.values[~ds.mask[:, j], j]
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9
    flat = ds.values[~ds.mask[:, 2], 2]
    assert np.allclose(flat, 0.0)  # centered but not rescaled
    plain, _ = ingest_csv(path, standardize=False)
    assert abs(plain.values[~plain.mask[:, 0], 0].mean() - 5.0) < 2.0


@pytest.mark.parametrize("n_rows", [7, 9000])
def test_ingest_csv_standardizes_like_a_column_loop(tmp_path, n_rows):
    # Bit for bit, with a zero-spread coordinate and one with no visible entry.
    rng = np.random.default_rng(n_rows)
    values = rng.standard_normal((n_rows, 5)) * [1e-3, 1.0, 1e4, 1.0, 3.0] + [0, 5, -2e3, 0, 1]
    values[:, 3] = 4.25
    mask = rng.random(values.shape) < [0.0, 0.3, 0.9, 0.2, 1.0]
    mask[0, :4] = False
    values[mask] = np.nan
    path = tmp_path / "raw.csv"
    save_dataset_csv(Dataset(values, mask), path)
    ds, _ = ingest_csv(path, standardize=True)
    assert np.array_equal(ds.values, oracles.standardize_direct(values, mask), equal_nan=True)


def shipped_table(tmp_path):
    """The shipped experiment config, and a seed-1 table of its data written as
    CSV with its structure: (config, table, structure, table path, structure path)."""
    cfg_obj = load_json(Path(__file__).resolve().parents[1] / "configs" / "experiment.json")
    cfg = parse_config(cfg_obj)
    a = make_structure(cfg.data.structure)
    ds = synthesize(a, draw_latents(cfg.data.latent, cfg.data.n_samples, np.random.default_rng(1)))
    data_path, structure_path = tmp_path / "data.csv", tmp_path / "structure.csv"
    save_dataset_csv(ds, data_path)
    save_structure_csv(a, structure_path)
    return cfg_obj, ds, a, data_path, structure_path


@pytest.mark.parametrize("budget", [0.1, 0.2])
def test_standardizing_transforms_the_structure_with_the_table(tmp_path, budget):
    # Known-structure recovery keeps and discards the same rows of the
    # standardized table as of the raw one, so the structure still holds them.
    _, ds, a, _, _ = shipped_table(tmp_path)
    path = tmp_path / "hit.csv"
    save_dataset_csv(apply_plan(ds, plan_tail_hiding(ds, budget)), path)
    raw, same = ingest_csv(path, False, a)
    standardized, scaled = ingest_csv(path, True, a)
    assert same is a
    status = recover_table(raw, a).status
    assert (status == RecoveryStatus.UNRECOVERABLE).any()
    assert np.array_equal(recover_table(standardized, scaled).status, status)
    with pytest.raises(ValueError, match="sample length 16 does not match n=15"):
        ingest_csv(path, True, StructureMatrix(a.entries[:-1]))


def test_standardizing_a_csv_experiment_keeps_its_na_set(tmp_path):
    cfg_obj, _, _, data_path, structure_path = shipped_table(tmp_path)
    missing = []
    for standardize in (False, True):
        cfg_obj["data"] = {
            "kind": "csv",
            "path": str(data_path),
            "structure_path": str(structure_path),
            "standardize": standardize,
        }
        rows = run_experiment(parse_config(cfg_obj)).rows
        missing.append({(r.method, r.budget, r.trial, r.metric) for r in rows if np.isnan(r.value)})
        assert any(r.method.startswith("two_step") and np.isfinite(r.value) for r in rows)
    assert missing[0] == missing[1]


def svd_method(**options):
    return {"kind": "two_step", "recovery": {"method": "iterative_svd", "rank": 3, **options}}


def replacement_method(**options):
    return {"kind": "two_step", "recovery": {"method": "replacement", **options}}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: c.update(seed=-1), "seed"),
        (lambda c: c.update(trials=0), "trials"),
        (lambda c: c.update(adversary="gremlins"), "adversary"),
        (lambda c: c.update(budgets=[]), "budget"),
        (lambda c: c.update(budgets=[0.2, 0.1]), "increasing"),
        (lambda c: c.update(budgets=[0.5, 1.5]), "budgets"),
        (lambda c: c.pop("data"), "data"),
        (lambda c: c["data"].pop("latent"), "latent"),
        (lambda c: c["data"]["latent"].update(dim=2), "latent dimension"),
        (lambda c: c["data"].update(n_samples=0), "n_samples"),
        (lambda c: c.update(methods=[]), "method"),
        (
            lambda c: c.update(methods=[{"kind": "empirical_mean"}] * 2),
            "unique",
        ),
        (lambda c: c.update(methods=[{"kind": "empirical_mean", "name": "mean,raw"}]), "comma"),
        (lambda c: c.update(methods=[{"kind": "empirical_mean", "name": "mean\nraw"}]), "line break"),
        (lambda c: c.update(metrics=["l3"]), "metrics"),
        (lambda c: c.update(metrics=[]), "metrics"),
        (lambda c: c["data"].update(kind="parquet"), "kind"),
        # Retired recovery options are refused whatever their value, not ignored.
        (lambda c: c.update(methods=[svd_method(max_iter=500)]), "max_iter"),
        (lambda c: c.update(methods=[svd_method(tol=1e-9)]), "tol"),
        (lambda c: c.update(methods=[replacement_method(tol=1e-9)]), "tol"),
        (lambda c: c.update(methods=[svd_method(rank=2.5)]), "rank"),
        # A key nothing reads is refused, not dropped.
        (lambda c: c.update(methods=[svd_method(rnak=2)]), "unknown recovery key 'rnak'"),
        (lambda c: c.update(methods=[replacement_method(rank=3)]), "rank is for iterative_svd only"),
        (
            lambda c: c.update(methods=[{"kind": "empirical_mean", "nmae": "x"}]),
            "unknown estimator key 'nmae'",
        ),
        (lambda c: c.update(methods=[replacement_method(exponent=float("inf"))]), "exponent"),
        (
            lambda c: c.update(methods=[replacement_method(exponent=2.0)]),
            "exponent is no longer a recovery option",
        ),
        (lambda c: c.update(trials=2.5), "trials must be a whole number, got 2.5"),
        (lambda c: c.update(seed=1.9), "seed must be a whole number, got 1.9"),
        (lambda c: c.update(seed=True), "seed must be a whole number, got True"),
        (lambda c: c["data"].update(n_samples=100.7), "n_samples must be a whole number"),
        (lambda c: c["data"]["structure"].update(n=5.5), "n must be a whole number"),
        (lambda c: c["data"]["structure"].update(r=3.5), "r must be a whole number"),
        (lambda c: c["data"]["structure"].update(seed=1.5), "seed must be a whole number"),
        (lambda c: c["data"]["latent"].update(dim=3.5), "dim must be a whole number"),
        (
            lambda c: c["data"].update(
                structure={"kind": "block_diagonal", "n": 5, "r": 3, "blocks": [[2.5, 1], [3, 2]]}
            ),
            "blocks must be a whole number, got 2.5",
        ),
        (lambda c: c.update(trials=None), "trials must be a whole number, got None"),
        (lambda c: c.update(budgets=[True]), "budgets must be a float, got True"),
        (lambda c: c.update(budgets=[0.1, "wide"]), "budgets must be a float, got 'wide'"),
        (lambda c: c.update(shift=True), "shift must be a float, got True"),
        (
            lambda c: c["data"].update(
                structure={"kind": "explicit", "n": 2, "r": 1, "entries": [[True], [1]]}
            ),
            "entries must be a float, got True",
        ),
        (lambda c: c["data"]["latent"].update(mean=[False, 0, 0]), "mean must be a float, got False"),
        (lambda c: c["data"]["latent"].update(scale=True), "scale must be a float, got True"),
        (
            lambda c: c.update(data={"kind": "csv", "path": "x.csv", "standardize": "false"}),
            "standardize must be true or false, got 'false'",
        ),
        (
            lambda c: c.update(data={"kind": "csv", "path": "x.csv", "standardize": 1}),
            "standardize must be true or false, got 1",
        ),
    ],
)
def test_parse_config_rejects_bad_fields(mutate, message):
    cfg_obj = base_config()
    mutate(cfg_obj)
    with pytest.raises(ConfigError, match=message):
        parse_config(cfg_obj)


@pytest.mark.parametrize(
    "parse, obj, message",
    [
        (
            parse_recovery_spec,
            {"method": "iterative_svd", "rank": 8, "max_iters": 5000},
            "unknown recovery key 'max_iters'",
        ),
        (
            parse_recovery_spec,
            {"method": "known_structure", "rank": 3},
            "rank is for iterative_svd only",
        ),
        (
            parse_recovery_spec,
            {"method": "replacement", "rank": 3},
            "rank is for iterative_svd only",
        ),
        (
            parse_estimator_spec,
            {"kind": "empirical_mean", "inner": "tukey_median", "recovery_method": "x"},
            "unknown estimator key 'recovery_method'",
        ),
        (
            parse_estimator_spec,
            {"kind": "empirical_mean", "inner": "tukey_median"},
            "inner is for two_step only",
        ),
        # The retired exact-depth estimator is refused as any unknown name is.
        (parse_estimator_spec, {"kind": "tukey_median"}, "kind must be one of"),
        (
            parse_estimator_spec,
            {"kind": "two_step", "recovery": {"method": "known_structure"}, "inner": "tukey_median"},
            "inner estimator cannot be 'tukey_median'",
        ),
    ],
    ids=[
        "misspelt_recovery_option",
        "rank_on_known_structure",
        "rank_on_replacement",
        "unknown_estimator_key",
        "inner_on_a_plain_estimator",
        "retired_kind",
        "retired_inner",
    ],
)
def test_config_objects_refuse_keys_they_do_not_read(parse, obj, message):
    # A key nothing reads would leave the run on a default the config did not ask for.
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse(obj)


def test_integer_fields_keep_their_exact_value():
    cfg_obj = base_config()
    cfg_obj.update(seed=2**53 + 1, trials=2.0)
    cfg_obj["data"]["structure"]["seed"] = 2**60 + 1
    cfg = parse_config(cfg_obj)
    assert (cfg.seed, cfg.trials, cfg.data.structure.seed) == (2**53 + 1, 2, 2**60 + 1)


def test_csv_data_requires_path():
    with pytest.raises(ConfigError, match="path"):
        parse_config(
            {
                "seed": 0,
                "trials": 1,
                "adversary": "tail_hiding",
                "budgets": [0.1],
                "data": {"kind": "csv"},
                "methods": [{"kind": "empirical_mean"}],
            }
        )


def test_unrecoverable_hiding_needs_structure(tmp_path):
    path = tmp_path / "plain.csv"
    rng = np.random.default_rng(5)
    path.write_text(
        "\n".join(",".join(f"{v:.6f}" for v in row) for row in rng.normal(size=(12, 3)))
        + "\n"
    )
    cfg = parse_config(
        {
            "seed": 0,
            "trials": 1,
            "adversary": "unrecoverable_hiding",
            "budgets": [0.1],
            "data": {"kind": "csv", "path": str(path)},
            "methods": [{"kind": "empirical_mean"}],
        }
    )
    with pytest.raises(ConfigError, match="structure"):
        run_experiment(cfg)


def test_removal_margin_is_computed_once_per_run(monkeypatch, tmp_path):
    calls = []
    real = structure_module.min_rows_to_drop_rank

    def counted(structure):
        calls.append(structure)
        return real(structure)

    monkeypatch.setattr(structure_module, "min_rows_to_drop_rank", counted)
    cfg_obj = base_config()
    cfg_obj["adversary"] = "unrecoverable_hiding"
    result = run_experiment(parse_config(cfg_obj))
    assert len(result.rows) == 3 * 2 * 3
    assert len(calls) == 1  # the structure is shared by the 3 trials

    # CSV data: the table is ingested once and the structure loaded once.
    data_path, structure_path = tmp_path / "data.csv", tmp_path / "structure.csv"
    a = make_structure(parse_structure_spec({"kind": "dense", "n": 5, "r": 3}, 7))
    save_dataset_csv(synthesize(a, np.random.default_rng(0).standard_normal((40, 3))), data_path)
    save_structure_csv(a, structure_path)
    ingested = []
    real_ingest = experiment_module.ingest_csv

    def counted_ingest(*args):
        ingested.append(args)
        return real_ingest(*args)

    monkeypatch.setattr(experiment_module, "ingest_csv", counted_ingest)
    cfg_obj["data"] = {
        "kind": "csv",
        "path": str(data_path),
        "structure_path": str(structure_path),
    }
    calls.clear()
    run_experiment(parse_config(cfg_obj))
    assert len(ingested) == 1
    assert len(calls) == 1


def test_removal_margin_cap_surfaces():
    cfg_obj = base_config()
    cfg_obj["adversary"] = "unrecoverable_hiding"
    cfg_obj["data"]["structure"] = {"kind": "dense", "n": 21, "r": 3}
    with pytest.raises(CapExceededError):
        run_experiment(parse_config(cfg_obj))


def test_threads_must_be_positive():
    cfg = parse_config(base_config())
    with pytest.raises(ConfigError):
        run_experiment(cfg, threads=0)


def test_trial_seeds_differ_across_trials():
    cfg_obj = base_config()
    cfg_obj["trials"] = 2
    result = run_experiment(parse_config(cfg_obj))
    first = [r.value for r in result.rows if r.trial == 0]
    second = [r.value for r in result.rows if r.trial == 1]
    assert first != second
