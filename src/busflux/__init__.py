"""Passenger-flow estimation from Wi-Fi probe frames.

The pipeline: parse captured probe frames, clean them down to plausible
waiting passengers, aggregate dwell segments into hourly counts, join
weather, encode features, and fit seeded regression models that predict
hourly demand per bus stop. A synthetic scenario generator with planted
ground truth makes every stage verifiable end to end.
"""

__version__ = "0.1.0"
