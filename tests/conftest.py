"""Suite-wide test settings.

Every hypothesis property test replays the same examples on every run: the
examples derive from the test itself, not from a random seed or a saved
database, and no example fails for being slow.
"""

from hypothesis import settings

settings.register_profile("replay", derandomize=True, database=None, deadline=None)
settings.load_profile("replay")
