"""Built-in simlint rules.

Importing this package registers SL001–SL009 and SL011–SL014 with the
rule registry in :mod:`repro.analysis.core`; third-party rules register
identically from modules listed under ``[tool.simlint] plugins``.
"""

from repro.analysis.rules import (
    determinism,
    guards,
    layers,
    phy,
    protocol,
    taint,
    taxonomy,
    worldbuild,
)

__all__ = [
    "determinism",
    "guards",
    "layers",
    "phy",
    "protocol",
    "taint",
    "taxonomy",
    "worldbuild",
]
