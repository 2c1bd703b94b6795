"""The golden suite replayed with every stored tree from each path engine.

The code picks the path engine itself (the kernel per source, the batch
engine for large enough bulk fills), so the engines it does not pick for
a golden case would otherwise go unchecked end to end.  Each run here
substitutes one engine for every tree the scheme builders take from
their :class:`~repro.paths.store.TreeStore` (see ``force_path_engine``
in ``tests/conftest.py``) and requires every committed fixture to match
hop for hop and byte for byte.
"""

import os

import pytest

from repro.paths import batch
from repro.regress import check_all

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "golden")


@pytest.mark.parametrize("engine", ["kernel", "batch", "reference"])
def test_every_case_matches_under_each_engine(force_path_engine, engine):
    if engine == "batch" and not batch.numpy_available():
        pytest.skip("numpy not installed (the repro[fast] optional extra)")
    calls = force_path_engine(engine)
    failed = [f"{result.case} {result.status}:\n{result.detail}"
              for result in check_all(GOLDEN_DIR) if not result.ok]
    assert not failed, "\n".join(failed)
    # The substitution really ran: the forced engine built trees, and
    # under kernel or reference no bulk sweep did.
    assert calls[engine] > 0
    if engine != "batch":
        assert calls["batch"] == 0
