"""Sequential measurement-device-independent entanglement witnessing.

A simulation library for two-qubit entanglement detection through a
semi-quantum game with trusted quantum inputs and untrusted measurements,
and for the protocol where many observers witness one shared pair in
sequence through unsharp measurements.
"""

__version__ = "0.1.0"
