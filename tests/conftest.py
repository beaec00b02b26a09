import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import chunkcode as cc

sys.path.insert(0, str(Path(__file__).parent))
# The scripts, for the conversion of flat cache entries.
sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


@pytest.fixture
def codebook():
    return cc.Codebook(
        (
            cc.Dimension(id="fidelity", name="Fidelity", definition="How faithful it is."),
            cc.Dimension(id="use-cases", name="Use-Cases", definition="What it is for."),
            cc.Dimension(id="state", name="State", definition="Whether state is tracked."),
        )
    )


@pytest.fixture
def tiny_corpus():
    words_a = " ".join(f"alpha{i}" for i in range(7))
    words_b = " ".join(f"beta{i}" for i in range(4))
    return [
        cc.DocumentText.from_raw("doc-a", words_a),
        cc.DocumentText.from_raw("doc-b", words_b),
    ]


@pytest.fixture
def old_cache_entry():
    """A cache entry recorded while entries still held the prompt text.

    It answers doc-a/fidelity/i1/c1 of a record-mode chunk run of
    ``tiny_corpus`` and ``codebook`` (model "m", chunk size 4) against an
    endpoint that answers by a hash of the prompt; its name is its key.
    """
    (entry,) = (Path(__file__).parent / "data" / "cache_with_prompt_text").iterdir()
    return entry


@pytest.fixture
def positive_mock():
    return cc.LLMClient(mode="mock", mock=lambda request: "Yes, the parameter is mentioned.")


@pytest.fixture
def negative_mock():
    return cc.LLMClient(mode="mock", mock=lambda request: "The paper does not focus on it.")
