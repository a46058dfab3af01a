"""Hypothesis settings profiles for the shared strategies.

``STANDARD_SETTINGS`` decorates an ordinary property test.  Importing this
module also registers the ``thorough`` profile; ``tests/conftest.py`` loads
the profile named by ``HYPOTHESIS_PROFILE`` (unset = hypothesis's own
default), which governs the property tests that carry no explicit settings.
Under ``thorough``, the ``STANDARD_SETTINGS`` tests take its example count
too (an explicit ``max_examples`` would otherwise override the profile);
so do the tests decorated with ``property_settings(n)``, which run ``n``
examples otherwise.
"""

import os

from hypothesis import settings

THOROUGH_EXAMPLES = 400

settings.register_profile("thorough", max_examples=THOROUGH_EXAMPLES, deadline=None)

def property_settings(default_examples: int) -> settings:
    """``default_examples`` per property, or the thorough profile's count
    under ``HYPOTHESIS_PROFILE=thorough``; no per-example deadline."""
    thorough = os.environ.get("HYPOTHESIS_PROFILE") == "thorough"
    return settings(
        max_examples=THOROUGH_EXAMPLES if thorough else default_examples,
        deadline=None,
    )


#: Examples build and persist a small index each, so the per-example
#: deadline is off: a cold page cache must not read as a flaky failure.
STANDARD_SETTINGS = property_settings(40)
