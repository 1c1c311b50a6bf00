"""Shared test settings.

Every property test runs under one derandomized ``hypothesis`` profile: the
examples are drawn from a seed fixed per test, nothing is read from or
written to an example database, and no per-example deadline applies, so the
suite draws the same examples on every run and on every machine.  A test
may still set its own example count with ``@settings(max_examples=...)``.
"""

from hypothesis import settings

settings.register_profile("strata", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("strata")
