"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import account_spans, tail_percentile  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_spec_digests(name):
    def digests(seed):
        wl = WORKLOADS[name](seed)
        return [s.config_digest() for s in wl.specs], wl.precached

    assert digests(7) == digests(7)
    assert digests(7)[0] != digests(8)[0]


def test_sweep_cold_shares_do_not_depend_on_the_seed():
    for seed in range(5):
        wl = WORKLOADS["sweep-cold"](seed)
        digests = [s.config_digest() for s in wl.specs]
        assert len(digests) == 48 and len(set(digests)) == 40
        cached = {digests[k] for k in wl.precached}
        assert len(wl.precached) == len(cached) == 12
        # no repeated digest is pre-cached, and every repeat comes later
        for k, d in enumerate(digests):
            if digests.index(d) != k:
                assert d not in cached


def test_self_time_of_nested_spans():
    spans = [
        ("scenario", 0.0, 10.0, -1),
        ("simcore.run", 1.0, 9.0, 0),
        ("dsm.apply_notices", 2.0, 4.0, 1),
        ("network.transmit", 2.5, 3.0, 2),
        ("dsm.access", 5.0, 6.0, 1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 5.0, 1.5, 0.5, 1.0])
    agg = {}
    account_spans(spans, agg)
    layers = {k: v for k, v in agg.items() if k.startswith("self.")}
    assert layers == pytest.approx({"self.remainder": 2.0, "self.simcore": 5.0,
                                    "self.dsm": 2.5, "self.network": 0.5})
    assert agg["_tiling_error"] == pytest.approx(0.0)


def test_tiling_check_catches_a_child_outside_its_parent():
    agg = {}
    account_spans([("scenario", 0.0, 10.0, -1),
                   ("simcore.run", 1.0, 9.0, 0),
                   ("dsm.access", 8.0, 12.0, 1)], agg)
    assert agg["_tiling_error"] == pytest.approx(3.0)


def test_self_time_of_interleaved_generator_resumes():
    # Two generators resumed alternately under one parent: each resume is
    # its own span, so the parent loses exactly the resumed time.
    spans = [
        ("simcore.run", 0.0, 10.0, -1),
        ("dsm.access", 1.0, 2.0, 0),
        ("apps.body", 2.0, 3.5, 0),
        ("dsm.access", 4.0, 4.5, 0),
        ("apps.body", 6.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 1.5, 0.5, 1.0])


def test_overlapping_children_count_once_and_clip_to_the_parent():
    spans = [
        ("simcore.run", 0.0, 10.0, -1),
        ("dsm.access", 1.0, 4.0, 0),
        ("network.transmit", 3.0, 5.0, 0),      # overlaps the previous
        ("network.nic_send", 3.5, 4.5, 0),      # inside both
        ("dsm.make_diff", 9.0, 12.0, 0),        # runs past the parent
    ]
    own = self_times(spans)
    # covered: [1, 5] and [9, 10] -> 5 of the parent's 10 seconds
    assert own[0] == pytest.approx(5.0)
    assert own[1:] == pytest.approx([3.0, 2.0, 1.0, 3.0])


@pytest.mark.parametrize("n, pct, rank", [
    (11, 9, 1),     # 10 beyond the smallest sample
    (15, 33, 5),
    (20, 50, 10),
    (32, 68, 22),
    (100, 90, 90),
    (1000, 99, 990),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct, rank):
    samples = list(range(n, 0, -1))   # unsorted input
    got_pct, value = tail_percentile(samples)
    assert (got_pct, value) == (pct, rank)
    assert sum(s > value for s in samples) >= 10
    # the next whole percentile up would leave fewer than ten beyond
    assert n - math.ceil((pct + 1) * n / 100) < 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_percentile_needs_more_than_ten_samples(n):
    assert tail_percentile(list(range(n))) is None


def test_metric_names_and_units_match_benchmark_json():
    import json

    from run import END_TO_END_UNITS, PER_LAYER_UNITS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
