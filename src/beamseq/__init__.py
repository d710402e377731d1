"""Learning-based mmWave beam alignment for vehicle-to-infrastructure links.

Synthesizes time-varying V2I channels for a source and a target base station,
builds supervised datasets from them, and trains a sequence-to-sequence
predictor mapping the source BS's past CSI to the target BS's future optimal
beam indices.
"""

__version__ = "0.1.0"
