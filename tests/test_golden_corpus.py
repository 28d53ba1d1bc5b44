"""Every config of the golden corpus (``make_golden_corpus.CONFIGS``), gate on
and off, reproduces its stored document in ``tests/golden/``, read here and
never written.

Numbers are compared as ``test_golden.py`` compares them, 1e-10 relative plus
a 1e-13 floor; the config echo is compared as JSON text.
"""

import json

import numpy as np
import pytest
from make_golden_corpus import CONFIGS, GATES, GOLDEN_DIR, document
from test_golden import close

CASES = [(name, suffix) for name in CONFIGS for suffix in GATES]


def assert_close(got, want, where="") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{k}]")
    else:
        assert close(got, want), (where, got, want)


@pytest.mark.parametrize("name, suffix", CASES, ids=[f"{n}.{s}" for n, s in CASES])
def test_corpus_config_matches_its_stored_document(name, suffix):
    want = json.loads((GOLDEN_DIR / f"{name}.{suffix}.json").read_text())
    got = json.loads(document(CONFIGS[name], GATES[suffix]))
    assert json.dumps(got.pop("config")) == json.dumps(want.pop("config"))
    assert_close(got, want)


def test_corpus_holds_exactly_the_listed_documents():
    stored = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert stored == {f"{name}.{suffix}.json" for name, suffix in CASES}


def test_exponential_action_document_does_not_depend_on_the_global_seed(monkeypatch):
    # the corpus's one sector above CHAIN_SECTOR_LIMIT takes expm_multiply,
    # whose norm estimates draw from NumPy's global generator
    from cavityconv import propagate

    actions = []
    expm_multiply = propagate.expm_multiply
    monkeypatch.setattr(propagate, "expm_multiply",
                        lambda *args: actions.append(1) or expm_multiply(*args))
    name = "degenerate_squeeze-2100_0"
    want = (GOLDEN_DIR / f"{name}.gate_off.json").read_text()
    for seed in (0, 1):
        np.random.seed(seed)
        caller = np.random.get_state()
        assert document(CONFIGS[name], False) == want
        after = np.random.get_state()
        assert np.array_equal(after[1], caller[1]) and after[2:] == caller[2:]
    assert actions
