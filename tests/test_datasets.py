"""Tests for the dataset registry (Table II stand-ins)."""

import hashlib

import pytest

from repro.datasets import DATASETS, dataset_keys, load_dataset
from repro.errors import DatasetError
from repro.graph import stats


class TestRegistry:
    def test_twelve_datasets(self):
        assert len(DATASETS) == 12

    def test_paper_order_preserved(self):
        assert dataset_keys() == (
            "rt", "se", "sd", "am", "ts", "bd", "bs", "wg", "sk", "wt",
            "lj", "dp",
        )

    def test_unknown_key(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            load_dataset("nope")

    def test_caching(self):
        assert load_dataset("rt") is load_dataset("rt")

    def test_specs_have_k_ranges(self):
        for spec in DATASETS.values():
            assert len(spec.k_range) >= 2
            assert all(k >= 2 for k in spec.k_range)


class TestStandInFidelity:
    @pytest.mark.parametrize("key", ["rt", "se", "sd", "bd", "wg", "wt"])
    def test_average_degree_close_to_paper(self, key):
        spec = DATASETS[key]
        g = load_dataset(key)
        d_avg = stats.average_degree(g)
        assert d_avg == pytest.approx(spec.paper_avg_degree, rel=0.25), key

    def test_vertex_ordering_matches_paper(self):
        """Stand-ins must preserve the relative |V| ordering of Table II."""
        sizes = [load_dataset(k).num_vertices for k in dataset_keys()]
        paper = [DATASETS[k].paper_vertices for k in dataset_keys()]
        for i in range(len(sizes) - 1):
            for j in range(i + 1, len(sizes)):
                if paper[i] < paper[j]:
                    assert sizes[i] < sizes[j], (
                        dataset_keys()[i], dataset_keys()[j]
                    )

    def test_amazon_has_longest_effective_diameter(self):
        """The paper's AM has by far the largest D90; its stand-in must be
        the suite's long-diameter graph (the Fig. 8/10 narratives rely on
        this)."""
        am = stats.effective_diameter(load_dataset("am"), samples=10, seed=1)
        ts = stats.effective_diameter(load_dataset("ts"), samples=10, seed=1)
        rt = stats.effective_diameter(load_dataset("rt"), samples=10, seed=1)
        assert am > ts
        assert am > rt

    def test_ts_is_sparse_low_diameter(self):
        g = load_dataset("ts")
        assert stats.average_degree(g) < 8
        assert stats.effective_diameter(g, samples=10, seed=1) < 8

    def test_deterministic_builds(self):
        spec = DATASETS["se"]
        assert spec.build() == spec.build()


#: ``sha256(indptr.tobytes() + indices.tobytes())`` of every stand-in.
#: Every modelled metric, oracle golden and committed benchmark baseline
#: rests on these exact graphs, so a build change must leave them equal.
DATASET_DIGESTS = {
    "rt": "7b8899758caf24e4a2512c58a53d0c5da411a690de4f93e5a79c28155a8487fc",
    "se": "b53d4098868cbd533b759d46eeb6f8d44b2030563001fcff282642e574ed9e0a",
    "sd": "3120e9e0a4ef3d16a99f7287e6f4f7688ac24284a3b52d3ba027f78b693ed71f",
    "am": "0bf627a9e137641cfe4cdf03606b03b673256f81c6d2de45495b9664ba894c22",
    "ts": "fc84ba40ea6996188892d339e24a79a8f8b3cdb1c400efc54441727a99ff162b",
    "bd": "b06ba6011fc47df9f7b7253e72e4ca74b258aa21abdb124180aebbb762760830",
    "bs": "691ed6e96ff6f2925ea31c96bdbfb84068bb9bc26e6258a3f8b2deb9b1cd34d3",
    "wg": "6c3aef71685b427a053a414ec07ab5aa669733507907ddd153789f4711a4db73",
    "sk": "7efa3eff77c2dfaf18585cfa93a978f14f26d83b8a4c356a95e59705b98dd780",
    "wt": "f99c67393fdad4280c174af56f041b183fc1d6ddde94cbe69ae0fd41171108af",
    "lj": "6e020c6d0b9efa11cb4138b35b6cf5dc38d943098d1096d1608afcb42a255ea3",
    "dp": "ab17394fb2708d6261611d87ebe65ffe0c863a1140bbe38591fdbfc080532d29",
}


def test_digests_cover_every_dataset():
    assert tuple(DATASET_DIGESTS) == dataset_keys()


@pytest.mark.parametrize("key", list(DATASET_DIGESTS))
def test_dataset_bytes_are_pinned(key):
    g = load_dataset(key)
    digest = hashlib.sha256(g.indptr.tobytes() + g.indices.tobytes())
    assert digest.hexdigest() == DATASET_DIGESTS[key]
