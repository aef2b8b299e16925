"""Relativistic bit-commitment and coin-tossing simulator.

A secret bit is committed as the parity of block-replicated bits carried by
two-hump wavepackets that cross the channel at light speed: while only the
front humps have arrived, the receiver's best parity guess is exponentially
close to a coin flip, while a sender who delays the choice is caught by the
orthogonal-outcome verification with probability exponentially close to one.
The package reproduces every closed-form rate of that analysis by Monte
Carlo and exact enumeration, and runs the full two-party protocols with
honest and cheating strategies.
"""

from .experiment import *  # noqa: F401,F403
from .measurement import *  # noqa: F401,F403
from .parity import *  # noqa: F401,F403
from .protocol import *  # noqa: F401,F403
from .wavepacket import *  # noqa: F401,F403

__version__ = "0.18.0"
