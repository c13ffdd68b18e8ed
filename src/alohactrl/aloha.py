"""Random channel access: classical (per-slot) and block (per-block) ALOHA.

Under block ALOHA each controller decides once per block whether to transmit
in all T slots; under classical ALOHA it decides anew in every slot. The
draws themselves live with their consumers (`channel.block_success_prob`
draws the interferers' activity, the simulators the typical pair's).
"""

from __future__ import annotations

from enum import Enum

__all__ = ["Protocol"]


class Protocol(str, Enum):
    BLOCK = "block"
    CLASSICAL = "classical"
