"""The mutant table of ``mutants.py`` still fits today's sources, so it cannot
rot unnoticed: each mutant's text occurs exactly once in its module, and each
of its node ids names a test that exists. ``python tests/mutants.py`` runs the
mutants themselves."""

import pytest

from mutants import MUTANTS, PACKAGE, ROOT


@pytest.mark.parametrize("path,old,new,node_ids", MUTANTS,
                         ids=[f"{i}-{path}" for i, (path, *_) in enumerate(MUTANTS)])
def test_each_mutant_still_applies(path, old, new, node_ids):
    assert (PACKAGE / path).read_text(encoding="utf-8").count(old) == 1
    assert new != old and node_ids
    for node_id in node_ids:
        file, name = node_id.split("[")[0].split("::")
        assert f"\ndef {name}(" in (ROOT / file).read_text(encoding="utf-8"), node_id
