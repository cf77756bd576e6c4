"""Exception hierarchy shared across the package."""


class SelencError(Exception):
    """Base class for every error this package raises deliberately."""


class NoStartCode(SelencError):
    """A nonempty stream contains no Annex B start code."""


class EscapingViolation(SelencError):
    """A NAL list would not read back as itself once written, or a NAL to
    cipher would not unescape: a payload holds a run that 7.4.1 forbids, or
    a written one ends in 00 before a 3-byte start code."""


class MalformedEscape(SelencError):
    """ebsp_to_rbsp met a run that 7.4.1 forbids in bare payload bytes, or a
    NAL to cipher ends in 00 00 03, a 03 that re-escaping would not restore."""


class OutOfBits(SelencError):
    """A bit-level read ran past the end of its buffer."""


class OutOfRange(SelencError):
    """A parsed syntax element lies outside its legal range."""


class BadKeyLength(SelencError):
    """Cipher key is not exactly 16 bytes."""


class CounterOverflow(SelencError):
    """Requested keystream exceeds the 32-bit block counter space."""


class WrongKey(SelencError):
    """Key-check value in the sidecar does not match the supplied key."""


class OrdinalOutOfRange(SelencError):
    """A sidecar or a selection lists a NAL ordinal the stream does not contain."""


class BadMagic(SelencError):
    """Sidecar does not begin with the expected magic bytes."""


class BadVersion(SelencError):
    """Sidecar version byte is not recognized."""


class MalformedHeader(SelencError):
    """Sidecar is truncated or internally inconsistent."""


class BadHex(SelencError):
    """Raw key string is not exactly 32 hexadecimal characters."""


class EmptyPassphrase(SelencError):
    """Passphrase-based key derivation needs a non-empty passphrase."""
