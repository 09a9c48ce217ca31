"""Exact verification engine for Hopf-algebra double constructions.

Everything is computed over the cyclotomic field Q(zeta_4p): structure
constants of the root-of-unity algebra family and its monomial dual, the
Drinfeld and Heisenberg doubles built from them, the Yetter-Drinfeld
structure carried by the Heisenberg double, truncations to the familiar
small quantum group and its Weyl-algebra counterpart, and alternating
braided-product chains.  Every claim is checked mechanically and failures
come with replayable counterexample witnesses.
"""

__version__ = "0.1.0"
