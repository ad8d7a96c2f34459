"""Equality and hashing of gnar's records.

A record that holds arrays compares and hashes by identity: a generated
field-wise ``==`` would compare arrays, which raises for any array of two
or more entries, and its ``hash`` would raise too.  Records of plain values
(an order, a partition, a network) compare by value.
"""

import copy
import dataclasses

import numpy as np
import pytest

from gnar.autocorr import corbit_grid
from gnar.elections import STATE_NAMES, classify, load_returns
from gnar.estimate import (KroneckerCovariance, build_design, fit_gls, fit_ols,
                           fit_per_community)
from gnar.forecast import ExternalForecast, ModelSpec, compare
from gnar.model import (GnarCoefficients, parse_order, stationarity_margin,
                        to_local_alpha)
from gnar.network import read_edge_list
from gnar.partition import read_partition
from gnar.simulate import simulate

from conftest import DATA_DIR


@pytest.fixture(scope="module")
def records(table1_model, fivenet, fivenet_weights, fivenet_partition):
    coeffs, order = table1_model
    panel = simulate(coeffs, order, fivenet, fivenet_weights, 60, part=fivenet_partition)
    ds = build_design(panel, order, fivenet, fivenet_weights, fivenet_partition)
    report = compare(panel, fivenet, fivenet_weights, [ModelSpec("m", order)],
                     fivenet_partition, external=[ExternalForecast("x", np.zeros(5))])
    elections = load_returns(DATA_DIR / "synthetic_returns.csv")
    return {
        "CorbitGrid": corbit_grid(panel, fivenet, fivenet_weights, 2, 1, "nacf"),
        "DesignSystem": ds,
        "FitResult": fit_ols(ds),
        "KroneckerCovariance": KroneckerCovariance(np.eye(5)),
        "ExternalForecast": ExternalForecast("x", np.zeros(5), np.ones(5)),
        "ComparisonEntry": report.entries[0],
        "ForecastReport": report,
        "GnarCoefficients": GnarCoefficients.from_theta(np.array([0.1, 0.2]),
                                                        parse_order("global:1;[1]")),
        "StationarityReport": stationarity_margin(coeffs),
        "NodewiseCoefficients": to_local_alpha(coeffs, fivenet_partition),
        "TimeSeriesPanel": panel,
        "ElectionPanel": elections,
        "StateClassification": classify(elections),
    }


ARRAY_RECORDS = ["CorbitGrid", "DesignSystem", "FitResult", "KroneckerCovariance",
                 "ExternalForecast", "ComparisonEntry", "ForecastReport", "GnarCoefficients",
                 "StationarityReport", "NodewiseCoefficients", "TimeSeriesPanel",
                 "ElectionPanel", "StateClassification"]


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_and_hash_by_identity(records, name):
    x = records[name]
    assert type(x).__name__ == name
    assert x == x
    assert hash(x) == hash(x)
    assert x in {x}
    assert x != copy.copy(x)


def test_value_records_compare_and_hash_by_value():
    for make in (lambda: parse_order("community:[1,2];{[1],[1,1]}"),
                 lambda: read_partition(DATA_DIR / "fivenet_partition.csv"),
                 lambda: read_edge_list(DATA_DIR / "fivenet_edges.csv")):
        a, b = make(), make()
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_records_store_no_copy_of_what_another_field_holds(records, fivenet, fivenet_weights,
                                                            fivenet_partition):
    """A design's rows are its ``node_labels``, a fit's variant is its order's and the
    classified states are ``STATE_NAMES``: none is stored a second time."""
    fields = {name: {f.name for f in dataclasses.fields(records[name])}
              for name in ("DesignSystem", "FitResult", "StateClassification")}
    assert not fields["DesignSystem"] & {"lag_offset", "node_ids"}
    assert "variant" not in fields["FitResult"]
    assert "states" not in fields["StateClassification"]
    ds = records["DesignSystem"]
    fits = [fit_ols(ds), fit_gls(ds, KroneckerCovariance(np.eye(5))),
            *fit_per_community(records["TimeSeriesPanel"], ds.order, fivenet, fivenet_weights,
                               fivenet_partition)]
    assert [fit.variant for fit in fits] == [fit.order.variant for fit in fits] == \
        ["community"] * 4
    rows = records["StateClassification"].to_csv_text().splitlines()[1:]
    assert tuple(row.split(",")[0] for row in rows) == STATE_NAMES
