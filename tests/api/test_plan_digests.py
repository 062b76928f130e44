"""Plan-digest pins: every registered experiment expands to the same jobs.

``sweep_digest`` hashes a plan's full (spec, tags) job list, so these pins
hold every cell's spec, seed and tags byte for byte, for the smoke and the
full grid of all nine experiments — without running a single cell.  A
refactor of the sweep layer that moves any of them changes what every
export, checkpoint and claim is computed from.
"""

from __future__ import annotations

import pytest

from repro.api.checkpoint import sweep_digest
from repro.api.experiment import EXPERIMENT_REGISTRY, ExperimentOptions, plan_experiment

PLAN_DIGESTS = {
    ("ablation", True): "8c49a6cb21ba78ec1c1e8637648c47a8d684b80fba7e5fb16c0841b72f81dd5a",
    ("ablation", False): "f5d629c3f0f1eec3b584d478a6dc8da2d1c7bd4cf14c00b36871eccf0df901c3",
    ("attack_matrix", True): "34af461130f4ffaef9a1359fa9a6ac87b702f152f4d4a56c89764873c15e76cb",
    ("attack_matrix", False): "120933f8ecbfbe3d2721a8697004ea69ec76c409045e4e336fe8f2cc6716d004",
    ("chaos", True): "7cc06b90f940a45b28224e8ff71b60fcd164e26cf3db9705e919ebe1a9608718",
    ("chaos", False): "8128c3cdcdd16acb7d5dd802f38379028f8ae3d8e0c67dc2767cf66d50f592b9",
    ("figure2", True): "e0781835ebf9e02b8c4dacad558221048bd97c68f2a7f5c17c7b535e8fea8eff",
    ("figure2", False): "c7d0bbafc7f5ca90eb32ddd231f6ade86f80b59db314af2205c10c762b80f9d3",
    ("frontrunning", True): "7f8f67c1027c7d7b59677ad872a9322e56d7c87350483117e2566efaf9d1f25f",
    ("frontrunning", False): "b6a658555b81e0d7fdb65e9e93297687f950f2838c3368f4f5ac64a0f9be5c4e",
    ("horizon", True): "539dda1face7fea84f11548510824e31c41534b2da24b1861d0a950c46ec858a",
    ("horizon", False): "0604acbcbf7aced4b0a890fa497d85522614af536e5cc6234c412dd95f0fe2cf",
    ("oracle", True): "187f1649a909f4def3d126cb6d94d8dcc5922a19a650cc052599f7b07464fd6b",
    ("oracle", False): "f2b82f4bc2ad7f6873312321393d02e3c261b622bf5e5fd8dd04aee1bcbae3fd",
    ("propagation", True): "120a2ca4b8f9c837cf3093ee48f238463bf0e37f9f542b29bde3813a43278be0",
    ("propagation", False): "c0e635eeac15ade9c582a65d1dc282423a529445798c6cb307bf97d0d3fcc275",
    ("sequential", True): "5e98684398c98f5d4dd47e8d58ad1832a57b834406cb1aed817fb6c18ed18083",
    ("sequential", False): "4e8372e433517d267a2d2bc08fa1c66e9fc0c3448bf0173abcadd1260bef2d37",
}


def test_every_registered_experiment_is_pinned():
    assert {name for name, _smoke in PLAN_DIGESTS} == set(EXPERIMENT_REGISTRY.names())


@pytest.mark.parametrize("name, smoke", sorted(PLAN_DIGESTS))
def test_plan_digest_is_pinned(name, smoke):
    _experiment, _options, sweep = plan_experiment(name, ExperimentOptions(smoke=smoke))
    assert sweep_digest(sweep.jobs()) == PLAN_DIGESTS[name, smoke]
