"""Error-correcting-code substrate: parity and SEC-DED Hsiao codes."""

from .parity import (
    build_parity,
    build_parity_checker,
    check_parity,
    encode_parity,
    interleaved_parity,
    parity_of,
)
from .hamming import (
    DecodeResult,
    SecDedCode,
    build_corrector,
    build_encoder,
    build_syndrome,
    hsiao_columns,
    suggest_check_bits,
)
from .address import (
    AddressedSecDed,
    build_address_signature,
    build_addressed_encoder,
)

__all__ = [
    "parity_of", "encode_parity", "check_parity", "build_parity",
    "build_parity_checker", "interleaved_parity",
    "DecodeResult", "SecDedCode", "hsiao_columns", "suggest_check_bits",
    "build_encoder", "build_syndrome", "build_corrector",
    "AddressedSecDed", "build_address_signature",
    "build_addressed_encoder",
]
