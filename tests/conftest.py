"""Suite-wide settings: a fixed Hypothesis profile, so every run of the
suite tries the same examples and gives the same verdict."""

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")
