import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qhc import KeySet, verify_resistance

sys.path.insert(0, str(Path(__file__).parent))  # makes `import oracles` work

# A failing hypothesis test imports hypothesis.extra._patching to build its
# failure report, and that import chain (libcst -> mypy_extensions) can warn
# on import.  Under `pytest -W error` the warning would abort the session
# instead of reporting the failure, so the module is imported here, with its
# import-time warnings ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # an older hypothesis, or libcst missing: nothing to import
        pass


@pytest.fixture(scope="session")
def certified_n64() -> KeySet:
    """A nontrivial (d = 40 < N) key set over Z_64, exactly certified at
    delta = 0.3.  Seed 0 is frozen; the certification is re-proved here,
    not assumed."""
    keys = tuple(sorted(np.random.default_rng(0).choice(64, size=40, replace=False).tolist()))
    report = verify_resistance(KeySet(modulus=64, keys=keys), 0.3)
    assert report.certified, "frozen seed no longer certifies"
    return report.key_set
