"""Every storage test ends with its devices' books balanced."""

import pytest

from repro.storage.device import DeviceBase


@pytest.fixture(autouse=True)
def _device_invariants(monkeypatch):
    """Run ``check_invariants()`` on each device the test built, as it
    left them: mid-run, drained, crashed or reset (ROADMAP item 4)."""
    built = []
    init = DeviceBase.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(DeviceBase, "__init__", recording_init)
    yield
    for device in built:
        device.check_invariants()
