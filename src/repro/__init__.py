"""repro — Message Morphing for evolving middleware data exchanges.

A from-scratch Python reproduction of *"Lightweight Morphing Support for
Evolving Middleware Data Exchanges in Distributed Applications"*
(ICDCS 2005): the PBIO binary wire format with out-of-band meta-data, the
ECode C-subset compiler (dynamic code generation), the MaxMatch/morphing
receiver pipeline, the ECho publish/subscribe middleware, an XML/XSLT
baseline, a simulated network substrate and a B2B broker scenario.

Typical use::

    from repro import (
        ArraySpec, FormatRegistry, IOField, IOFormat,
        MorphReceiver, PBIOContext,
    )

    old_fmt = IOFormat("Reading", [IOField("celsius", "float")], version="1")
    new_fmt = IOFormat("Reading", [IOField("kelvin", "float")], version="2")

    registry = FormatRegistry()
    registry.add_transform(new_fmt, old_fmt,
                           "old.celsius = new.kelvin - 273.15;")

    receiver = MorphReceiver(registry)
    receiver.register_handler(old_fmt, print)

    sender = PBIOContext(registry)
    receiver.process(sender.encode(new_fmt, new_fmt.make_record(kelvin=300.0)))
"""

from repro.ecode import (
    ECodeProcedure,
    InterpretedProcedure,
    compile_procedure,
    interpret_procedure,
)
from repro.errors import (
    DecodeError,
    ECodeError,
    EncodeError,
    FormatError,
    MorphError,
    NoMatchError,
    PBIOError,
    ReproError,
    TransformError,
    TransportError,
    UnknownFormatError,
    XMLError,
)
from repro.morph import (
    MorphReceiver,
    TransformChain,
    Transformation,
    coerce_record,
    diff,
    is_perfect_match,
    max_match,
    mismatch_ratio,
)
from repro.pbio import (
    ArraySpec,
    FormatRegistry,
    IOField,
    IOFormat,
    PBIOContext,
    Record,
    TransformSpec,
    TypeKind,
    encode_record,
    make_record,
    native_size,
    records_equal,
)

__version__ = "1.0.0"

__all__ = [
    "ArraySpec",
    "DecodeError",
    "ECodeError",
    "ECodeProcedure",
    "EncodeError",
    "FormatError",
    "FormatRegistry",
    "IOField",
    "IOFormat",
    "InterpretedProcedure",
    "MorphError",
    "MorphReceiver",
    "NoMatchError",
    "PBIOContext",
    "PBIOError",
    "Record",
    "ReproError",
    "TransformChain",
    "TransformError",
    "TransformSpec",
    "Transformation",
    "TransportError",
    "TypeKind",
    "UnknownFormatError",
    "XMLError",
    "__version__",
    "coerce_record",
    "compile_procedure",
    "diff",
    "encode_record",
    "interpret_procedure",
    "is_perfect_match",
    "make_record",
    "max_match",
    "mismatch_ratio",
    "native_size",
    "records_equal",
]
