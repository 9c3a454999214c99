"""Strategic content moderation as an optimization problem.

Users rewrite content toward a trend as far as a moderator's benign region
allows; this package computes those best responses in closed form, measures
the induced social distortion and free-speech indices, fits approximately
optimal halfspace moderators via a smoothed penalized objective, and checks
everything against two-dimensional candidate-set reference searches.
"""

from .model import *
from .metrics import *
from .solver import *
from .oracle import *
from .data import *

__version__ = "0.1.0"
