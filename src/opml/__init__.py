"""Optimistic ML fraud-proof kernel.

Subsystems: Merkle-committed memory (`merkle`), the fraud-proof VM (`fpvm`),
the deterministic fixed-point inference engine (`ml`, `lowering`), single-
and multi-phase dispute games (`dispute`, `multiphase`), incentive and
security analytics (`economics`), and the scenario CLI (`cli`).
"""

from .hashing import get_scheme

__all__ = ["get_scheme"]
__version__ = "0.1.0"
