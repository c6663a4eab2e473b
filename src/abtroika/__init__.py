"""abtroika: desk-scale numerics for the magnetic Aharonov-Bohm phase shift.

The electron, the solenoid current and the radiation field each admit a
computation of the same interference phase; this package evaluates all three
routes numerically (line integral of the solenoid potential, source exchange
through the electron's retarded potential, and the phase of the driven-field
coherent state), together with the variational extra-phase bookkeeping and
the decoherence amplitude of the field radiated by the two traverses.

Natural units c = hbar = 1 throughout; lengths in units of the orbit radius.
"""

__version__ = "0.1.0"
