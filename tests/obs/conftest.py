"""Telemetry tests must leave no global state behind."""

import pytest

from repro.obs import events as obs_events
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import disable, reset


def _clean():
    disable()
    reset()
    obs_tracing.clear_spans()
    obs_events.clear_events()
    obs_events.set_live_consumer(None)
    obs_events.set_current_shard(None)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Start disabled and empty; restore that state afterwards."""
    _clean()
    yield
    _clean()
