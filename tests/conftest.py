from __future__ import annotations

import os

import pytest

from semepred import TripletStore, make_triplet, sememe_id, synset_id


@pytest.fixture(scope="session", autouse=True)
def _no_semepred_env():
    """The CLI reads os.environ, so a stray ``SEMEPRED_*`` override would leak into
    every run; clear them for the session, before any module fixture runs.  Tests
    that set one use ``monkeypatch.setenv``."""
    with pytest.MonkeyPatch.context() as mp:
        for name in list(os.environ):
            if name.startswith("SEMEPRED_"):
                mp.delenv(name)
        yield


@pytest.fixture
def toy_store() -> TripletStore:
    """Five nodes (three synsets, two sememes), mixed relations, all train."""
    a, b, c = synset_id("a"), synset_id("b"), synset_id("c")
    p, q = sememe_id("p"), sememe_id("q")
    return TripletStore(
        [
            make_triplet(a, "related", b),
            make_triplet(b, "related", c),
            make_triplet(p, "antonym", q),
            make_triplet(q, "antonym", p),
            make_triplet(a, "have_sememe", p),
            make_triplet(b, "have_sememe", q),
            make_triplet(c, "have_sememe", p),
            make_triplet(c, "have_sememe", q),
        ]
    )
