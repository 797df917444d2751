"""Shared test settings.

``pytest --hypothesis-profile=ci`` derandomizes the property tests, so a
failure in CI reproduces on any machine with the same command.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
