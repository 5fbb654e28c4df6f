from hypothesis import settings

# No per-example deadline: wall time on a shared host can double for
# minutes at a time, which would fail a property test on timing alone.
settings.register_profile("dpxa", deadline=None)
settings.load_profile("dpxa")
