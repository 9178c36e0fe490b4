"""Crossbar processing-in-memory with diagonal-parity ECC.

Functional + cycle-accounted model of a MAGIC NOR/NOT crossbar extended
with per-block diagonal parity: codec, check-memory architecture and
protocols, netlist compiler with ECC-aware scheduling, fault injection,
and closed-form reliability analytics. Each name is imported from its
module (``xbarecc.checkmem.Machine``); this top level holds only
``__version__``.
"""

__version__ = "0.1.0"
