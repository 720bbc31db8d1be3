from hypothesis import settings

# every run draws the same examples: derandomized, with no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
