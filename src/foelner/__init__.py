"""Folner-type invariants on finite truncations of l2(G).

Exact word arithmetic and boundary ratios for the group invariant, and
frame-based evaluation of the Connes-Folner condition for group von Neumann
algebras, with certified witness constructions and a paradoxical-set audit.
"""

__version__ = "0.1.0"
