"""Every Hypothesis test draws the same examples on every run and in every
checkout, so two runs of one commit agree and a failure replays anywhere."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
