"""Hypothesis settings profiles for the shared strategies.

``STANDARD_SETTINGS`` decorates an ordinary property test.  Importing this
module also registers the ``thorough`` profile; ``tests/conftest.py`` loads
the profile named by ``HYPOTHESIS_PROFILE`` (unset = hypothesis's own
default), which governs the property tests that carry no explicit settings.
"""

from hypothesis import settings

#: Examples build and persist a small index each, so the per-example
#: deadline is off: a cold page cache must not read as a flaky failure.
STANDARD_SETTINGS = settings(max_examples=40, deadline=None)

settings.register_profile("thorough", max_examples=400, deadline=None)
