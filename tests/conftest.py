"""The ``mutants`` hypothesis profile, which ``tests/mutants.py`` passes to pytest
as ``--hypothesis-profile mutants``: only the explicit and generated examples
run, and no example database is read or written.  A mutant is killed by its
first failing example, so shrinking that example only costs time."""

try:
    from hypothesis import Phase, settings
except ImportError:  # the property modules skip themselves without hypothesis
    pass
else:
    settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)
