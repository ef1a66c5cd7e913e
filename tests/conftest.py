"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def full_disk(monkeypatch):
    """Every file that ``ringwalk.core`` or ``ringwalk.envgen`` opens for writing
    takes half of the first write and then fails, as a full disk does."""
    real_open = open

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    for module in ("ringwalk.core", "ringwalk.envgen"):
        monkeypatch.setattr(f"{module}.open", failing_open, raising=False)
