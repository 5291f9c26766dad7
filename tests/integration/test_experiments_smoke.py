"""Integration: every registered experiment runs at reduced scale and its
claims hold (the benchmarks run them at full scale).

Each smoke render is also pinned by its SHA-256: renders carry no
wall-clock values, so a routing, kernel or DAG change that moves any table
cell fails here and names the experiment.
"""

import hashlib

import pytest

from repro.experiments import EXPERIMENTS, run_experiment

from repro.experiments.registry import SCALE_PRESETS

SMOKE = "smoke"

# SHA-256 of ``run_experiment(eid, scale="smoke").render()``.
SMOKE_RENDER_SHA256 = {
    "E1": "bef84e364e60430b6dac41b8fbafa055654ae736079780d14214d9d43a38d734",
    "E2": "b253da596000152cf663c6c591d0e28ce446b0b4db0b2bd3eb10b8a8fef756ec",
    "E3": "e2d4d154a9d52739c5fa8f045b7854362bfa329f9c294dc054f55edf0626006b",
    "E4": "51d2e169ed83ca617363505e1895c175ac3ac29a07638f0e4bcd3da0b3d67c1d",
    "E5": "edc4ddae4a0258081ea1895fba2db9ce02e16bc485b8b9e59171f715e74b1e58",
    "E6": "afb100578e308cda754249338b0228039081f5deadaf2ee141e8b353b16375c6",
    "E7": "34857d895a296c37fc2f6f664dcb1ba0cd895eafce7e6a73bbf0f5384c8180bb",
    "E8": "5b1fd3a58aee30212f2ccdc972070206a569f483bee456f118d060e390891e41",
    "E9": "f68c11881c177845c04360c2581eb497380acd7ef39ade9f70da9e93a867af1f",
    "E10": "d5b9169342ab4d427d7469463d34c0487f8aa0d0c9a7d073d173d36f6d480667",
    "E11": "2b4fc793946f71d7376c35e67d07f1f3e6729b1a52526070f0a73aa4a5391491",
    "E12": "a79e52aacb7f4db72923ae92e73b40bffe401ef346929b441d2871cc571fd8a2",
    "E13": "467e4164b24467bf2e3f6d132dd43c4da7f5324a5dc7500197fa6b5f2a32565e",
    "E14": "96a72c5cb7e3315a0d1ae8b75802d0f0db5481105d0416c000a04a0168e8c9d4",
    "E15": "c0c4236353f9801440d8311afe3ae7c9091eae848e669ce1cb1658c62ec668a8",
    "E16": "e76dab55ba15a38b3690a1c932fd0930e30f4dcea3e8a1aee050af19018e2696",
    "E17": "2e88764697b6a5bcbb2cdef9dbed6c884d90f7ee2b21878d03bc557f0221a8b7",
}


@pytest.mark.parametrize("experiment_id", sorted(SCALE_PRESETS[SMOKE]))
def test_experiment_runs_and_claims_hold(experiment_id):
    result = run_experiment(experiment_id, scale=SMOKE)
    assert result.experiment_id == experiment_id
    assert result.rows or result.figures
    failed = result.failed_claims()
    assert not failed, [c.description for c in failed]
    digest = hashlib.sha256(result.render().encode()).hexdigest()
    assert digest == SMOKE_RENDER_SHA256[experiment_id], experiment_id


def test_registry_covers_design_doc_index():
    assert len(EXPERIMENTS) == 17


def test_smoke_preset_covers_every_experiment():
    from repro.experiments import SCALE_PRESETS

    assert set(SCALE_PRESETS["smoke"]) == set(EXPERIMENTS)


def test_unknown_scale_rejected():
    with pytest.raises(KeyError, match="unknown scale"):
        run_experiment("E1", scale="galactic")


def test_render_is_printable():
    result = run_experiment("E1")
    out = result.render()
    assert "paper artifact" in out and "claims:" in out
