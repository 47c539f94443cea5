import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from enriq import presets

# Property tests draw the same examples on every run, keep no example
# database and stay bounded in time.
settings.register_profile(
    "enriq", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("enriq")
# Even without a database, hypothesis caches constants read from local
# source files under its home directory; keep that in a temporary
# directory removed at exit instead of a .hypothesis/ in the checkout.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="enriq-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

WITNESS = (12, 111, 13)


@pytest.fixture(scope="session")
def k_tower_witness():
    """The full 18-step splitting tower at the witness triplet, shared
    across the whole run."""
    return presets.k_tower(*WITNESS)


@pytest.fixture(scope="session")
def k1_tower_witness():
    return presets.k1_tower(*WITNESS)


@pytest.fixture(scope="session")
def k0_tower():
    return presets.k0_tower()
