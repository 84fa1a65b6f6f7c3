"""Unit tests for the synthetic application traffic (SPLASH-2/PARSEC stand-in)."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.topology.elevators import standard_placement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.applications import (
    APPLICATION_NAMES,
    ApplicationSpec,
    application_spec,
    make_application_traffic,
)


@pytest.fixture
def mesh():
    return Mesh3D(4, 4, 4)


class TestApplicationSpec:
    def test_all_six_benchmarks_present(self):
        assert set(APPLICATION_NAMES) == {
            "canneal",
            "fft",
            "fluidanimate",
            "lu",
            "radix",
            "water",
        }

    def test_spec_lookup_case_insensitive(self):
        assert application_spec("FFT").name == "fft"

    def test_unknown_application(self):
        with pytest.raises(ValueError, match="unknown application"):
            application_spec("blackscholes")

    def test_load_grouping_matches_paper(self):
        # Section IV-C: canneal, fft, radix, water are high-load;
        # fluidanimate and lu are low-load.
        high = {"canneal", "fft", "radix", "water"}
        low = {"fluidanimate", "lu"}
        min_high = min(application_spec(a).load_factor for a in high)
        max_low = max(application_spec(a).load_factor for a in low)
        assert min_high > 2 * max_low

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ApplicationSpec(
                name="bad",
                load_factor=0.0,
                partners_per_node=4,
                hotspot_nodes=1,
                hotspot_share=0.1,
                locality=0.5,
                zipf_exponent=1.0,
            )
        with pytest.raises(ValueError):
            ApplicationSpec(
                name="bad",
                load_factor=1.0,
                partners_per_node=0,
                hotspot_nodes=1,
                hotspot_share=0.1,
                locality=0.5,
                zipf_exponent=1.0,
            )


class TestApplicationTraffic:
    @pytest.mark.parametrize("name", APPLICATION_NAMES)
    def test_matrix_rows_sum_to_one(self, mesh, name):
        traffic = make_application_traffic(name, mesh, seed=1)
        matrix = traffic.traffic_matrix()
        for src in range(mesh.num_nodes):
            row = sum(w for (s, _d), w in matrix.items() if s == src)
            assert row == pytest.approx(1.0, abs=1e-9)

    def test_no_self_traffic(self, mesh):
        traffic = make_application_traffic("fft", mesh, seed=1)
        assert all(src != dst for (src, dst) in traffic.traffic_matrix())

    def test_destinations_follow_graph(self, mesh):
        traffic = make_application_traffic("canneal", mesh, seed=2)
        matrix = traffic.traffic_matrix()
        allowed = {dst for (src, dst) in matrix if src == 5}
        for _ in range(50):
            assert traffic.destination(5) in allowed

    def test_graph_is_deterministic_per_seed(self, mesh):
        a = make_application_traffic("radix", mesh, seed=7).traffic_matrix()
        b = make_application_traffic("radix", mesh, seed=7).traffic_matrix()
        assert a == b

    def test_different_seeds_differ(self, mesh):
        a = make_application_traffic("radix", mesh, seed=1).traffic_matrix()
        b = make_application_traffic("radix", mesh, seed=2).traffic_matrix()
        assert a != b

    def test_traffic_is_non_uniform(self, mesh):
        traffic = make_application_traffic("water", mesh, seed=1)
        matrix = traffic.traffic_matrix()
        weights = [w for (s, _d), w in matrix.items() if s == 0]
        assert max(weights) > 3 * min(weights)

    def test_sparser_than_uniform(self, mesh):
        traffic = make_application_traffic("fluidanimate", mesh, seed=1)
        matrix = traffic.traffic_matrix()
        pairs_per_source = len([1 for (s, _d) in matrix if s == 0])
        assert pairs_per_source < mesh.num_nodes - 1

    def test_load_factor_exposed(self, mesh):
        traffic = make_application_traffic("lu", mesh, seed=0)
        assert traffic.load_factor == application_spec("lu").load_factor


#: Digest of ``traffic_matrix()`` and the per-source tables of every
#: bundled application on PS1, as the quadratic-time graph build produced
#: them.  A faster build must keep every RNG draw and every table order.
_PS1_GRAPH_DIGESTS = {
    ("canneal", 0): "91c9b2fab72d93a7c6386488021f3a415a59a4c483587301e0b6af0c0b9e144f",
    ("canneal", 7): "b853bb5b3dc7bfbfe62010b4f25f77406ab49437bb56498196fbb7904ee1f759",
    ("fft", 0): "cbffdc5ca8017fa302d303a10b17d7cdaa5eeca64cb98f78b174c9f6d97981e9",
    ("fft", 7): "97fcfd0bd6f21628853a2a20a23b86117b20a7ac93417364ad8be91fb3cca90d",
    ("fluidanimate", 0): "b5fa224eb38923e8e0863c06dd15383dd1a2edda34ca7fed4bf675d1b375940c",
    ("fluidanimate", 7): "418471d2413e206072d5218411656abc0830607beb085caab187b56f30cba020",
    ("lu", 0): "6b491065d909436f0624e4a458b091d6cca1ee3448ba666eeddb50c8d7fd42ae",
    ("lu", 7): "5b23b67bcc74e03663e23e299fe52f662c68531efffa8edf617299a2e029c7e6",
    ("radix", 0): "209bd9b0b2e9a1c5b90bf0a07e159e8eda118a77a2385910ccccc2c682d24b8f",
    ("radix", 7): "faeed08e40f0e0aa4406a3d04e648fba944d933622a43f142fbb17128048e9ba",
    ("water", 0): "85b5d8a8728d4e6454af1da87c079eecf3eaf3490ab78e9709a8de0701098b63",
    ("water", 7): "46934bb83d35d2c1a9c410df888d7324b1375013bb5715eb58d0b799ced623f5",
}


@pytest.mark.parametrize("name, seed", sorted(_PS1_GRAPH_DIGESTS))
def test_ps1_graphs_are_pinned(name, seed):
    traffic = make_application_traffic(name, standard_placement("PS1").mesh, seed=seed)
    blob = repr(
        (list(traffic.traffic_matrix().items()), list(traffic._per_source.items()))
    )
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == _PS1_GRAPH_DIGESTS[(name, seed)]


#: Prints the traffic-matrix digest of every registered application.
_DIGEST_SCRIPT = textwrap.dedent(
    """
    import hashlib, json
    from repro.topology.mesh3d import Mesh3D
    from repro.traffic.applications import (
        available_applications, make_application_traffic,
    )

    digests = {}
    for name in available_applications():
        traffic = make_application_traffic(name, Mesh3D(4, 4, 4), seed=1)
        blob = repr(sorted(traffic.traffic_matrix().items())).encode()
        digests[name] = hashlib.sha256(blob).hexdigest()
    print(json.dumps(digests))
    """
)


class TestCrossProcessDeterminism:
    def test_graph_does_not_depend_on_the_hash_seed(self):
        """Python salts ``hash()`` of strings per process; the graph of a
        seeded application must be the same in every process."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        runs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            runs.append(json.loads(result.stdout))
        assert sorted(runs[0]) == sorted(APPLICATION_NAMES)
        assert runs[0] == runs[1]
