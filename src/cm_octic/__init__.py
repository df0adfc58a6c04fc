"""Verification toolkit for the quadratic character of 1 + sqrt(2) mod p.

For primes p = 1 (mod 8) the package checks, prime by prime, that the
character (1 + sqrt(2) | p) is pinned down by three equivalent conditions:
the curve order #E(F_p) = (a-1)^2 + b^2 of E: y^2 = x^3 - x mod 32, the
parity of d in p = c^2 + 8*d^2, and the class number h(-4p) mod 8.

The names below are the library API; everything else lives in the
submodules (modular, decompose, curve, classnumber, criteria, harness).
"""

from .classnumber import class_number
from .criteria import Certificate, ErrorCertificate, ProofTrace, check_prime, proof_trace
from .errors import InvariantViolation
from .harness import ScanConfig, ScanReport, scan
from .modular import Prime, pipeline_prime

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ErrorCertificate",
    "InvariantViolation",
    "Prime",
    "ProofTrace",
    "ScanConfig",
    "ScanReport",
    "check_prime",
    "class_number",
    "pipeline_prime",
    "proof_trace",
    "scan",
]
