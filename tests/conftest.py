"""Test-suite settings: every hypothesis property test draws the same
examples on every run, and the suite writes no .hypothesis/ directory."""

import tempfile

from hypothesis import configuration, settings

settings.register_profile("circlepoly", derandomize=True, database=None)
settings.load_profile("circlepoly")

# with no example database, hypothesis still caches the constants it reads
# from the source (at collection) in its storage directory: a temporary
# one, removed when the session's interpreter exits
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_storage.name)
