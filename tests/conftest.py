"""Hypothesis settings profiles for the property tests.

``default`` is Tier-1's: 400 examples for each property test that sets no
count of its own.  ``ci`` searches the same properties at 5,000 examples::

    python -m pytest tests/test_olsr_incremental.py --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("default", max_examples=400, deadline=None)
settings.register_profile("ci", max_examples=5000, deadline=None)
