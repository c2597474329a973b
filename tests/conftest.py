"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps each process it starts: after it, this process has
    no child, running or exited, for waitpid to find."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
