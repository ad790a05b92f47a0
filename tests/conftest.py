from hypothesis import settings

# Derandomized so that every run draws the same examples, and without a
# deadline so that a slow host does not fail an example on timing alone.
settings.register_profile("binvio", derandomize=True, deadline=None)
settings.load_profile("binvio")
