import re
import sys

import numpy as np
import pytest

from gnar.errors import DataError, GnarError, SizeError
from gnar.estimate import build_design
from gnar.forecast import (ExternalForecast, ModelSpec, compare, forecast,
                           load_external_forecast, naive_forecast, rmspe)
from gnar.model import GnarCoefficients, parse_order, to_var
from gnar.panel import TimeSeriesPanel, default_node_labels, write_panel
from gnar.partition import CommunityPartition
from gnar.simulate import simulate

from oracles import structural_prediction


def make_panel(values):
    values = np.asarray(values, dtype=float)
    return TimeSeriesPanel(values, default_node_labels(values.shape[0]),
                           [str(t) for t in range(values.shape[1])])


def test_zero_model_forecasts_zero(fivenet, fivenet_weights):
    coeffs = GnarCoefficients.from_theta(np.zeros(2), parse_order("global:1;[1]"))
    panel = make_panel(np.random.default_rng(0).normal(size=(5, 10)))
    pred = forecast(coeffs, fivenet, fivenet_weights, panel, 3)
    assert np.array_equal(pred, np.zeros((3, 5)))


def test_forecast_matches_structural_oracle(fivenet, fivenet_weights,
                                            fivenet_partition, table1_model):
    coeffs, order = table1_model
    rng = np.random.default_rng(5)
    panel = make_panel(rng.normal(size=(5, 12)))
    pred = forecast(coeffs, fivenet, fivenet_weights, panel, 1,
                    fivenet_partition)[0]
    oracle = structural_prediction(coeffs, order, fivenet, fivenet_weights,
                                   fivenet_partition, panel.values)
    assert np.max(np.abs(pred - oracle)) < 1e-12


def test_forecast_feeds_predictions_back(fivenet, fivenet_weights):
    coeffs = GnarCoefficients.from_theta([0.5], parse_order("global:1;[0]"))  # alpha.1
    panel = make_panel(np.ones((5, 4)))
    pred = forecast(coeffs, fivenet, fivenet_weights, panel, 3)
    assert np.allclose(pred[0], 0.5)
    assert np.allclose(pred[1], 0.25)
    assert np.allclose(pred[2], 0.125)


def test_forecast_rejects_short_panel(fivenet, fivenet_weights, fivenet_partition,
                                      table1_model):
    coeffs, _ = table1_model
    panel = make_panel(np.ones((5, 1)))
    with pytest.raises(GnarError):
        forecast(coeffs, fivenet, fivenet_weights, panel, 1,
                 fivenet_partition)


def test_naive_baseline():
    panel = make_panel(np.arange(10.0).reshape(2, 5))
    pred = naive_forecast(panel, 2)
    assert np.array_equal(pred[0], panel.values[:, -1])
    assert np.array_equal(pred[1], panel.values[:, -1])


def test_naive_baseline_refuses_a_horizon_below_one():
    with pytest.raises(GnarError, match="^horizon must be >= 1, got 0$"):
        naive_forecast(make_panel(np.ones((2, 3))), horizon=0)


def test_rmspe_values():
    assert rmspe(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert rmspe(np.array([1.0, 2.0]), np.zeros(2)) == pytest.approx(np.sqrt(2.5))
    with pytest.raises(GnarError, match="mismatch"):
        rmspe(np.zeros(3), np.zeros(2))


def test_rmspe_invariances():
    rng = np.random.default_rng(1)
    a, f = rng.normal(size=8), rng.normal(size=8)
    base = rmspe(a, f)
    perm = rng.permutation(8)
    assert rmspe(a[perm], f[perm]) == pytest.approx(base, abs=1e-14)
    assert rmspe(a + 3.7, f + 3.7) == pytest.approx(base, abs=1e-12)


def test_naive_centred_equals_raw(fivenet, fivenet_weights):
    rng = np.random.default_rng(2)
    panel = make_panel(rng.normal(size=(5, 12)) + 40.0)
    report = compare(panel, fivenet, fivenet_weights, [], holdout=-1)
    naive = report.entry("naive")
    assert naive.rmspe_centred == pytest.approx(naive.rmspe, abs=1e-12)


def test_report_entry_refuses_an_unknown_name(fivenet, fivenet_weights):
    panel = make_panel(np.random.default_rng(2).normal(size=(5, 12)))
    report = compare(panel, fivenet, fivenet_weights, [], holdout=-1)
    with pytest.raises(KeyError) as info:
        report.entry("community")
    assert info.value.args == ("community",)


def test_compare_report_structure(fivenet, fivenet_weights, fivenet_partition,
                                  table1_model):
    coeffs, order = table1_model
    panel = simulate(coeffs, order, fivenet, fivenet_weights, 60,
                     part=fivenet_partition, seed=3)
    specs = [ModelSpec("community", order),
             ModelSpec("pooled", parse_order("global:1;[1]"))]
    report = compare(panel, fivenet, fivenet_weights, specs, fivenet_partition)
    names = [e.name for e in report.entries]
    assert names == ["community", "pooled", "naive"]
    assert report.entry("community").n_params == 6
    assert report.entry("pooled").n_params == 2
    assert report.entry("naive").n_params is None
    text = report.to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "metric,community,pooled,naive"
    assert lines[1].startswith("rmspe,")
    assert lines[3] == "n_params,6,2,NA"


def test_election_order_parameter_counts():
    community = parse_order("community:[2,2,2];{[1,0],[1,0],[1,0]}")
    pooled = parse_order("global:2;[1,0]")
    assert community.param_count() == 9
    assert pooled.param_count() == 3


def test_holdout_error_concentrates_at_noise_sd(fivenet, fivenet_weights,
                                                fivenet_partition, table1_model):
    coeffs, order = table1_model
    sd = coeffs.noise_sd
    errors = []
    for seed in range(50):
        panel = simulate(coeffs, order, fivenet, fivenet_weights, 120,
                         part=fivenet_partition, seed=seed)
        train = make_panel(panel.values[:, :-1])
        pred = forecast(coeffs, fivenet, fivenet_weights, train, 1,
                        fivenet_partition)[0]
        errors.append(rmspe(panel.values[:, -1], pred))
    mean_error = float(np.mean(errors))
    assert abs(mean_error - sd) < 0.3 * sd


def test_external_forecast_round_trip(tmp_path, fivenet, fivenet_weights):
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # d=3, rows raw/centred
    panel = TimeSeriesPanel(values, ("a", "b", "c"), ("raw", "centred"))
    path = tmp_path / "ext.csv"
    write_panel(panel, path)
    ext = load_external_forecast("other", path)
    assert np.array_equal(ext.raw, values[:, 0])
    assert np.array_equal(ext.centred, values[:, 1])
    with pytest.raises(DataError, match="^external forecast 'other' has 3 nodes, panel has 5$"):
        compare(make_panel(np.zeros((5, 10))), fivenet, fivenet_weights, [], external=[ext])


@pytest.mark.parametrize("rows, where", [
    (("raw", "raw", "centred"), ":3: step 2 repeats the time label 'raw' of step 1"),
    (("raw", "centred", "centred"), ":4: step 3 repeats the time label 'centred' of step 2"),
    (("raw", "centered"), ": row 'centered' is neither 'raw' nor 'centred'"),
], ids=["raw-twice", "centred-twice", "misspelt"])
def test_external_forecast_refuses_rows_it_cannot_use(tmp_path, rows, where):
    path = tmp_path / "ext.csv"
    path.write_text("time,a,b,c\n" + "".join(f"{row},1.0,1.0,1.0\n" for row in rows))
    with pytest.raises(DataError, match=f"^{re.escape(str(path) + where)}$"):
        load_external_forecast("other", path)


def test_external_forecast_needs_a_raw_row(tmp_path):
    path = tmp_path / "ext.csv"
    write_panel(TimeSeriesPanel(np.ones((3, 1)), ("a", "b", "c"), ("centred",)), path)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no row labelled 'raw'$"):
        load_external_forecast("other", path)


def test_compare_scores_externals(fivenet, fivenet_weights):
    rng = np.random.default_rng(9)
    panel = make_panel(rng.normal(size=(5, 10)))
    actual = panel.values[:, -1]
    ext = ExternalForecast(name="import", raw=actual.copy())
    report = compare(panel, fivenet, fivenet_weights, [], external=[ext])
    assert report.entry("import").rmspe == 0.0
    assert report.entry("import").rmspe_centred is None
    bad = ExternalForecast(name="bad", raw=np.zeros(4))
    with pytest.raises(DataError):
        compare(panel, fivenet, fivenet_weights, [], external=[bad])


@pytest.mark.parametrize("raw, centred, where", [
    (np.zeros(4), None, "'x'"), (np.zeros(5), np.zeros(4), "'x' centred row")],
    ids=["raw", "centred"])
def test_compare_checks_external_sizes_before_any_fit(fivenet, fivenet_weights, monkeypatch,
                                                      raw, centred, where):
    def refuse(*args):
        raise AssertionError("a spec was fitted before the external forecasts were checked")

    monkeypatch.setattr(sys.modules["gnar.forecast"], "_fit_and_predict", refuse)
    panel = make_panel(np.random.default_rng(2).normal(size=(5, 20)))
    specs = [ModelSpec("m", parse_order("global:1;[1]"))]
    with pytest.raises(SizeError, match=f"^external forecast {where} has 4 nodes, panel has 5$"):
        compare(panel, fivenet, fivenet_weights, specs,
                external=[ExternalForecast("x", raw, centred)])


def test_compare_holdout_validation(fivenet, fivenet_weights):
    panel = make_panel(np.random.default_rng(0).normal(size=(5, 6)))
    with pytest.raises(GnarError):
        compare(panel, fivenet, fivenet_weights, [], holdout=0)
    with pytest.raises(GnarError):
        compare(panel, fivenet, fivenet_weights, [], holdout=6)


@pytest.mark.parametrize("text", ["global:1;[1]", "local:1;[1]"])
@pytest.mark.parametrize("entry", ["simulate", "to_var", "build_design", "forecast", "compare"])
def test_non_community_orders_refuse_a_partition_of_another_size(fivenet, fivenet_weights,
                                                                  entry, text):
    order, part = parse_order(text), CommunityPartition((1, 1, 2, 2), 2)
    coeffs = GnarCoefficients.from_theta(np.full(order.param_count(5), 0.1), order, d=5)
    panel = make_panel(np.random.default_rng(0).normal(size=(5, 20)))
    calls = {
        "simulate": lambda: simulate(coeffs, order, fivenet, fivenet_weights, 10, part=part),
        "to_var": lambda: to_var(coeffs, fivenet, fivenet_weights, part),
        "build_design": lambda: build_design(panel, order, fivenet, fivenet_weights, part),
        "forecast": lambda: forecast(coeffs, fivenet, fivenet_weights, panel, 1, part),
        "compare": lambda: compare(panel, fivenet, fivenet_weights,
                                   [ModelSpec("m", order)], part),
    }
    with pytest.raises(SizeError, match="^partition has 4 nodes, network has 5$"):
        calls[entry]()


@pytest.mark.parametrize("make", [lambda o: ModelSpec("a,b", o),
                                  lambda o: ExternalForecast("a,b", np.zeros(5))],
                         ids=["ModelSpec", "ExternalForecast"])
def test_model_names_that_would_break_the_report_are_refused(make):
    with pytest.raises(GnarError, match="label 'a,b' holds ','"):
        make(parse_order("global:1;[0]"))


@pytest.mark.parametrize("spec_names, ext_names, taken", [
    (("a", "a"), (), "a"), (("naive",), (), "naive"), (("a",), ("a",), "a")])
def test_compare_refuses_repeated_or_naive_names(fivenet, fivenet_weights,
                                                 spec_names, ext_names, taken):
    panel = make_panel(np.random.default_rng(1).normal(size=(5, 20)))
    specs = [ModelSpec(n, parse_order("global:1;[0]")) for n in spec_names]
    external = [ExternalForecast(n, np.zeros(5)) for n in ext_names]
    with pytest.raises(GnarError, match=f"^model name '{taken}' is taken"):
        compare(panel, fivenet, fivenet_weights, specs, external=external)
