"""Tests for the detector package."""

import ast
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_flow
from repro.detect.base import Alarm, MetadataItem
from repro.detect.entropy import entropy_of_counts, normalized_entropy, sample_entropy
from repro.detect.features import (
    ENTROPY_COLUMNS,
    VOLUME_COLUMNS,
    WindowCounts,
    build_feature_matrix,
)
from repro.detect.histogram import HistogramDetectorConfig, HistogramKLDetector
from repro.detect.kl import kl_contributions, kl_distance
from repro.detect.netreflex import NetReflexConfig, NetReflexDetector
from repro.detect.pca import (
    _normal_quantile,
    fit_pca_model,
    q_statistic_threshold,
)
from repro.errors import DetectorError
from repro.flows.record import FlowFeature
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace
from repro.synth.anomalies import PortScan, SynFlood, UdpFlood
from repro.synth.background import BackgroundConfig
from repro.synth.scenario import Scenario
from tests.attribution_oracle import HEADER_FEATURES, oracle_attribution


def _train_trace(topology, bins=10, fps=8.0, seed=100):
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=fps),
        bin_count=bins,
    )
    return scenario.build(seed=seed).trace


class TestEntropy:
    def test_uniform_is_log2_n(self):
        assert math.isclose(entropy_of_counts([5, 5, 5, 5]), 2.0)

    def test_point_mass_is_zero(self):
        assert entropy_of_counts([10, 0, 0]) == 0.0
        assert sample_entropy({"a": 42}) == 0.0

    def test_empty_is_zero(self):
        assert entropy_of_counts([]) == 0.0
        assert normalized_entropy({}) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DetectorError):
            entropy_of_counts([1, -2])

    def test_normalized_uniform_is_one(self):
        assert math.isclose(normalized_entropy({1: 3, 2: 3, 3: 3}), 1.0)


class TestKL:
    def test_diverging_histograms_positive(self):
        assert kl_distance({1: 100}, {2: 100}) > 1.0

    def test_contributions_sorted_and_sum(self):
        p = {1: 80, 2: 10, 3: 10}
        q = {1: 10, 2: 45, 3: 45}
        contributions = kl_contributions(p, q)
        values = [v for _, v in contributions]
        assert values == sorted(values, reverse=True)
        assert math.isclose(
            sum(values), kl_distance(p, q), rel_tol=1e-6
        )
        assert contributions[0][0] == 1  # over-represented value first

    def test_empty_pair_rejected(self):
        with pytest.raises(DetectorError):
            kl_distance({}, {})


class TestFeatures:
    def test_window_counts_bin_features(self):
        flows = [make_flow(packets=3, bytes_=100),
                 make_flow(dport=53, packets=7, bytes_=200)]
        features = WindowCounts.from_table(
            FlowTable.from_records(flows)
        ).bin_features()
        assert features.flows == 2
        assert features.packets == 10
        assert features.bytes == 300
        assert features.entropy_dst_port == 1.0  # two equally likely ports

    def test_build_feature_matrix_shape(self, topology):
        trace = _train_trace(topology, bins=4)
        matrix = build_feature_matrix(trace)
        assert matrix.data.shape == (4, 7)
        assert matrix.columns == VOLUME_COLUMNS + ENTROPY_COLUMNS
        assert matrix.bin_interval(1)[0] == trace.origin + trace.bin_seconds

    def test_empty_trace_rejected(self):
        with pytest.raises(DetectorError):
            build_feature_matrix(FlowTrace())


class TestPCA:
    def _training(self, rows=60, cols=6, seed=0):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(rows, 2))
        mix = rng.normal(size=(2, cols))
        return base @ mix + 0.01 * rng.normal(size=(rows, cols))

    def test_captures_low_rank_structure(self):
        model = fit_pca_model(self._training(), variance_captured=0.95)
        assert model.n_components <= 3

    def test_normal_rows_below_threshold(self):
        training = self._training()
        model = fit_pca_model(training)
        spe = model.spe(training)
        assert (spe <= model.spe_threshold).mean() > 0.95

    def test_anomalous_row_detected(self):
        training = self._training()
        model = fit_pca_model(training)
        anomaly = training[:1] + 30.0 * np.ones((1, training.shape[1]))
        assert model.anomalous_rows(anomaly)[0]

    def test_q_statistic_positive(self):
        assert q_statistic_threshold(np.array([0.5, 0.2, 0.05])) > 0
        assert q_statistic_threshold(np.array([])) > 0

    def test_normal_quantile_is_pinned(self):
        # The standard library's inverse CDF: the same threshold with
        # or without scipy installed. The default alpha's value is
        # scipy.special.ndtri's bit for bit; the others sit within
        # 3 ulp of it.
        for alpha, pinned in (
            (0.001, "0x1.8b8cbb7204470p+1"),
            (0.01, "0x1.29c5c4630ff0ep+1"),
            (0.05, "0x1.a515209676ab8p+0"),
        ):
            assert _normal_quantile(alpha).hex() == pinned
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(DetectorError):
                _normal_quantile(bad)

    def test_training_never_imports_scipy_stats(self):
        # One quantile must not cost a scipy import at every start-up
        # (scipy.stats was ~40 % of the e2e setup_s, scipy.special a
        # further 0.3 s): training imports none of it.
        script = (
            "import sys\n"
            "from repro.detect.netreflex import NetReflexDetector\n"
            "from repro.synth.background import BackgroundConfig\n"
            "from repro.synth.scenario import Scenario\n"
            "from repro.synth.topology import Topology\n"
            "scenario = Scenario(topology=Topology(), bin_count=6,\n"
            "    background=BackgroundConfig(flows_per_second=4.0))\n"
            "NetReflexDetector().train(scenario.build(seed=3).trace)\n"
            "assert 'scipy' not in sys.modules\n"
        )
        subprocess.run(
            [sys.executable, "-c", script], check=True, timeout=120
        )

    def test_validation(self):
        with pytest.raises(DetectorError):
            fit_pca_model(np.zeros((2, 3)))
        with pytest.raises(DetectorError):
            fit_pca_model(np.zeros((10, 3)))  # zero variance
        with pytest.raises(DetectorError):
            fit_pca_model(self._training(), variance_captured=1.5)
        model = fit_pca_model(self._training())
        with pytest.raises(DetectorError):
            model.spe(np.zeros((2, 99)))


class TestHistogramDetector:
    def test_requires_training(self, topology):
        detector = HistogramKLDetector()
        with pytest.raises(DetectorError):
            detector.detect(_train_trace(topology, bins=3))
        with pytest.raises(DetectorError):
            detector.threshold(FlowFeature.SRC_IP)

    def test_too_few_bins_rejected(self, topology):
        detector = HistogramKLDetector()
        with pytest.raises(DetectorError):
            detector.train(_train_trace(topology, bins=2))

    def test_quiet_on_normal_traffic(self, topology):
        detector = HistogramKLDetector()
        detector.train(_train_trace(topology, bins=10, seed=1))
        alarms = detector.detect(_train_trace(topology, bins=6, seed=2))
        assert len(alarms) <= 1  # at most an occasional borderline bin

    def test_detects_port_scan_with_metadata(self, topology):
        detector = HistogramKLDetector()
        detector.train(_train_trace(topology, bins=10, seed=1))
        scenario = Scenario(
            topology=topology,
            background=BackgroundConfig(flows_per_second=8.0),
            bin_count=4,
        )
        target = topology.host_address(topology.pops[2], 5)
        scenario.add(PortScan("scan", 0xC0A80001, target, 2000), 2)
        alarms = detector.detect(scenario.build(seed=3).trace)
        scan_alarms = [a for a in alarms if a.start == 600.0]
        assert scan_alarms
        metadata_values = {
            (m.feature, m.value) for m in scan_alarms[0].metadata
        }
        assert (FlowFeature.SRC_IP, 0xC0A80001) in metadata_values
        assert (FlowFeature.DST_IP, target) in metadata_values

    def test_config_validation(self):
        with pytest.raises(DetectorError):
            HistogramDetectorConfig(features=())
        with pytest.raises(DetectorError):
            HistogramDetectorConfig(hash_buckets=1)
        with pytest.raises(DetectorError):
            HistogramDetectorConfig(threshold_sigmas=0)
        with pytest.raises(DetectorError):
            HistogramDetectorConfig(weight="megabytes")


class TestNetReflex:
    def test_requires_training(self, topology):
        with pytest.raises(DetectorError):
            NetReflexDetector().detect(_train_trace(topology, bins=3))

    def test_detects_scan_and_flood(self, topology):
        detector = NetReflexDetector()
        detector.train(_train_trace(topology, bins=12, seed=10))
        scenario = Scenario(
            topology=topology,
            background=BackgroundConfig(flows_per_second=8.0),
            bin_count=6,
        )
        target = topology.host_address(topology.pops[4], 2)
        scenario.add(PortScan("scan", 0xC0A80001, target, 3000), 2)
        scenario.add(
            UdpFlood("flood", 0xC0A80002, target, packets_total=1_000_000),
            4,
        )
        alarms = detector.detect(scenario.build(seed=11).trace)
        alarm_bins = {a.start for a in alarms}
        assert 600.0 in alarm_bins  # scan bin
        assert 1200.0 in alarm_bins  # flood bin
        flood_alarm = [a for a in alarms if a.start == 1200.0][0]
        hinted = {(m.feature, m.value) for m in flood_alarm.metadata}
        assert (FlowFeature.SRC_IP, 0xC0A80002) in hinted

    def test_labels_syn_flood_family(self, topology):
        detector = NetReflexDetector()
        detector.train(_train_trace(topology, bins=12, seed=20))
        scenario = Scenario(
            topology=topology,
            background=BackgroundConfig(flows_per_second=8.0),
            bin_count=4,
        )
        target = topology.host_address(topology.pops[1], 3)
        scenario.add(SynFlood("ddos", target, 80, flow_count=4000), 2)
        alarms = detector.detect(scenario.build(seed=21).trace)
        assert alarms
        assert any(a.label for a in alarms)

    def test_config_validation(self):
        with pytest.raises(DetectorError):
            NetReflexConfig(excess_threshold=0.0)
        with pytest.raises(DetectorError):
            NetReflexConfig(weightings=())
        with pytest.raises(DetectorError):
            NetReflexConfig(metadata_per_feature=-1)


def _as_arrays(histogram):
    """A ``Counter`` in the kernel's form: ascending values, int64."""
    values = sorted(histogram)
    return (
        np.array(values, dtype=np.uint32),
        np.array([histogram[v] for v in values], dtype=np.int64),
    )


def _attribute(config, references, observed):
    """The array kernel over ``Counter`` inputs: a detector whose
    trained references are ``references``, asked about ``observed``."""
    detector = NetReflexDetector(config)
    detector._references = {
        key: (*_as_arrays(histogram), sum(histogram.values()))
        for key, histogram in references.items()
    }
    return detector.attribute_histograms(
        {key: _as_arrays(histogram) for key, histogram in observed.items()}
    )


# Few values and few distinct counts: absent values, exact ties in
# excess and empty or all-zero histograms all come up; the wide counts
# reach past 2**32 (still far below the 2**53 exactness bound).
_COUNTS = st.one_of(
    st.integers(0, 6), st.sampled_from([0, 10, 100, 2**33, 2**40 + 1])
)
_HISTOGRAMS = st.dictionaries(
    st.sampled_from([0, 1, 2, 80, 443, 55548, 65535, 0xC0A80001]),
    _COUNTS, max_size=8,
).map(Counter)


@st.composite
def _attribution_cases(draw):
    config = NetReflexConfig(
        metadata_per_feature=draw(st.sampled_from([0, 1, 3])),
        excess_threshold=draw(st.sampled_from([0.05, 0.1, 0.25, 0.5])),
        weightings=draw(st.sampled_from([
            ("flows",), ("flows", "packets"), ("packets", "bytes"),
            ("flows", "packets", "bytes"),
        ])),
    )
    keys = [(f, w) for f in HEADER_FEATURES for w in config.weightings]
    references = {key: draw(_HISTOGRAMS) for key in keys}
    observed = {
        key: draw(_HISTOGRAMS) for key in keys if draw(st.booleans())
    }
    return config, references, observed


class TestAttributionKernel:
    @given(case=_attribution_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_value_oracle(self, case):
        config, references, observed = case
        assert _attribute(config, references, observed) == \
            oracle_attribution(config, references, observed)

    def test_tie_in_excess_keeps_smaller_value(self):
        config = NetReflexConfig(weightings=("flows",))
        key = (FlowFeature.DST_PORT, "flows")
        references = {
            (f, "flows"): Counter({1: 5}) for f in HEADER_FEATURES
        }
        observed = {key: Counter({443: 4, 80: 4, 1: 2})}
        (item,) = _attribute(config, references, observed)
        assert (item.feature, item.value) == (FlowFeature.DST_PORT, 80)
        assert item.weight == 4 / 10
        assert [item] == oracle_attribution(config, references, observed)

    def test_value_heavy_under_one_weighting_only(self):
        """A point-to-point flood: one flow in a hundred, nearly all
        the bytes — caught by the bytes histogram alone."""
        config = NetReflexConfig(weightings=("flows", "bytes"))
        flows = (FlowFeature.SRC_IP, "flows")
        volume = (FlowFeature.SRC_IP, "bytes")
        references = {
            (f, w): Counter() for f in HEADER_FEATURES
            for w in config.weightings
        }
        references[flows] = Counter({7: 50, 9: 50})
        references[volume] = Counter({7: 500, 9: 500})
        observed = {
            flows: Counter({7: 49, 9: 50, 0xC0A80001: 1}),
            volume: Counter({7: 490, 9: 500, 0xC0A80001: 99_010}),
        }
        (item,) = _attribute(config, references, observed)
        assert item.value == 0xC0A80001
        assert item.weight == 99_010 / 100_000
        assert [item] == oracle_attribution(config, references, observed)

    def test_retraining_replaces_the_references(self, topology):
        first = _train_trace(topology, bins=4, seed=30)
        second = _train_trace(topology, bins=4, fps=5.0, seed=31)
        window = second.bin_table(1)
        retrained, fresh, stale = (NetReflexDetector() for _ in range(3))
        retrained.train(first)
        retrained.train(second)
        fresh.train(second)
        stale.train(first)
        assert retrained._references.keys() == fresh._references.keys()
        for key, (values, counts, total) in fresh._references.items():
            got = retrained._references[key]
            assert np.array_equal(got[0], values)
            assert np.array_equal(got[1], counts)
            assert got[2] == total
            assert not np.array_equal(stale._references[key][0], values)
        histograms = fresh._histograms(
            WindowCounts.from_table(window, fresh.weightings)
        )
        assert retrained.attribute_histograms(histograms) == \
            fresh.attribute_histograms(histograms)

    def test_training_materialises_no_records(self, topology):
        table = FlowTable(
            _train_trace(topology, bins=4, seed=30).table._data.copy()
        )
        trace = FlowTrace(table)
        NetReflexDetector().train(trace)
        assert trace.table is table
        assert table._rows is None


def test_detect_is_defined_once():
    """Every detector scores windows through ``evaluate_window``; the
    one ``detect`` is the base class's loop over a trace's bins."""
    import repro.detect

    root = Path(repro.detect.__file__).parent
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "detect"
            for item in node.body
        )
    ]
    assert defined == ["base.py:Detector"]


class TestAlarmModel:
    def test_alarm_validation(self):
        with pytest.raises(DetectorError):
            Alarm(alarm_id="", detector="d", start=0, end=1, score=1)
        with pytest.raises(DetectorError):
            Alarm(alarm_id="a", detector="d", start=1, end=1, score=1)

    def test_metadata_for_sorted_by_weight(self):
        alarm = Alarm(
            alarm_id="a", detector="d", start=0, end=1, score=1,
            metadata=[
                MetadataItem(FlowFeature.SRC_IP, 1, weight=0.1),
                MetadataItem(FlowFeature.SRC_IP, 2, weight=0.9),
                MetadataItem(FlowFeature.DST_PORT, 80, weight=0.5),
            ],
        )
        hints = alarm.metadata_for(FlowFeature.SRC_IP)
        assert [h.value for h in hints] == [2, 1]

    def test_describe_mentions_metadata(self):
        alarm = Alarm(
            alarm_id="a", detector="d", start=0, end=1, score=1,
            metadata=[MetadataItem(FlowFeature.DST_PORT, 80)],
        )
        assert "dstPort=80" in alarm.describe()
        bare = Alarm(alarm_id="b", detector="d", start=0, end=1, score=1)
        assert "(none)" in bare.describe()
