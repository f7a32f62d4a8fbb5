"""Test-suite settings: hypothesis runs derandomized (a fixed example
sequence per test) and without a per-example deadline, so every run of
the suite checks the same cases in about the same time."""

from hypothesis import settings

settings.register_profile("steinbounds", derandomize=True, deadline=None)
settings.load_profile("steinbounds")
