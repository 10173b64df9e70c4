"""Optical-port meter readout codec (IEC 62056-21 mode-C subset).

Implements the three messages the beacon emulation needs: the sign-on
request, the identification reply, and a single data-readout block.
A readout frame has the byte layout

    STX <data lines> '!' CR LF ETX BCC

where every data line is ``ADDRESS(VALUE*UNIT)`` followed by CR LF
(``ADDRESS(VALUE)`` when the value carries no unit), ADDRESS is an OBIS
register code rendered ``C.Q.T``, and BCC is the XOR fold of every byte
after STX up to and including ETX.

All functions are pure and all message types are immutable, so the codec
is safe to share between threads.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

STX = 0x02
ETX = 0x03
SIGN_ON_REQUEST = b"/?!\r\n"
READOUT_TERMINATOR = b"!\r\n"

# Register values wrap at 1,000,000 kWh, matching the 10-character
# display field "000123.456" (resolution 0.001 kWh).
REGISTER_MODULUS_KWH = Decimal(1_000_000)
REGISTER_RESOLUTION_KWH = Decimal("0.001")


class ProtocolError(Exception):
    """Base for every decoding or encoding failure in this module."""


class MissingStx(ProtocolError):
    """Input does not start with the STX byte."""


class MissingEtx(ProtocolError):
    """No ETX byte found after the frame start."""


class TruncatedFrame(ProtocolError):
    """Frame ends before the block-check byte."""


class EmptyPayload(ProtocolError):
    """Block check requested over zero bytes; the frame is malformed."""


class ChecksumMismatch(ProtocolError):
    """Stored BCC does not match the XOR fold of the frame body."""

    def __init__(self, expected: int, found: int):
        super().__init__(
            "BCC mismatch: expected 0x{:02X}, found 0x{:02X}".format(expected, found)
        )
        self.expected = expected
        self.found = found


class MalformedLine(ProtocolError):
    """A data line does not match the line grammar."""

    def __init__(self, index: int, reason: str):
        super().__init__("line {}: {}".format(index, reason))
        self.index = index
        self.reason = reason


class TrailingBytes(ProtocolError):
    """Input continues past the BCC byte."""

    def __init__(self, count: int):
        super().__init__("{} byte(s) after BCC".format(count))
        self.count = count


class MalformedValue(ProtocolError):
    """A register value is not a plain unsigned decimal number."""


class EncodingError(ProtocolError):
    """A line cannot be serialized without breaking the grammar."""


# The pieces of docs/readout-grammar.ebnf.  The encoder and the decoder
# both match them whole (``fullmatch``), so each accepts what the other does.
_OBIS_PART = r"(?:0|[1-9][0-9]?)"
_OBIS = r"{p}\.{p}\.{p}".format(p=_OBIS_PART)
_VALUE = r"[\x20-\x27\x2b-\x7e]*"  # printable ASCII but "(", ")" and "*"
_MANUFACTURER, _BAUD_ID, _IDENTIFIER = r"[A-Z]{3}", r"[\x20-\x7e]", r"[\x20-\x7e]*"
_OBIS_RE = re.compile(_OBIS)
_VALUE_RE = re.compile(_VALUE)
_LINE_RE = re.compile(r"({})\(({})(?:\*(kWh|kvarh))?\)".format(_OBIS, _VALUE))
_IDENT_RE = re.compile("/({})({})({})\r\n".format(_MANUFACTURER, _BAUD_ID, _IDENTIFIER))
_DECIMAL_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")


class Unit(Enum):
    KWH = "kWh"
    KVARH = "kvarh"
    NONE = ""


@dataclass(frozen=True, order=True)
class ObisCode:
    """OBIS register address rendered ``C.Q.T``, each part in 0..99."""

    channel: int
    quantity: int
    tariff: int

    def __post_init__(self):
        for part in (self.channel, self.quantity, self.tariff):
            if not isinstance(part, int) or not 0 <= part <= 99:
                raise ValueError("OBIS components must be integers in 0..99")

    def __str__(self) -> str:
        return "{}.{}.{}".format(self.channel, self.quantity, self.tariff)

    @classmethod
    def parse(cls, text: str) -> "ObisCode":
        """Parse a canonical ``C.Q.T`` rendering (no leading zeros)."""
        return _parse_obis(text)


# Every CSV row and log line names its register, and few distinct codes
# occur, so valid parses are cached; a ValueError is raised, never cached.
@functools.lru_cache(maxsize=256)
def _parse_obis(text: str) -> ObisCode:
    if _OBIS_RE.fullmatch(text) is None:
        raise ValueError("not an OBIS code: {!r}".format(text))
    return ObisCode(*map(int, text.split(".")))


# The register the simulated meters emit and the analysis reads.
POSITIVE_ACTIVE_ENERGY = ObisCode(1, 8, 0)


@dataclass(frozen=True)
class DataLine:
    """One register line of a readout: address, exact value text, unit.

    The value is kept as text so that serialize/parse round-trips are
    bit-exact; numeric conversion happens only in :func:`extract_energy`.
    """

    address: ObisCode
    value: str
    unit: Unit = Unit.NONE

    def serialize(self) -> bytes:
        """Render ``ADDRESS(VALUE*UNIT)\\r\\n`` as ASCII bytes.

        Raises:
            EncodingError: if the value text holds anything but printable
                ASCII other than ``(``, ``)`` and ``*``.
        """
        if _VALUE_RE.fullmatch(self.value) is None:
            raise EncodingError("value {!r} is not printable ASCII without '(', ')' or '*'".format(self.value))
        unit = "" if self.unit is Unit.NONE else "*" + self.unit.value
        return "{}({}{})\r\n".format(self.address, self.value, unit).encode("ascii")


@dataclass(frozen=True)
class ReadoutFrame:
    """A parsed data-readout block: ordered lines plus the verified BCC."""

    lines: tuple[DataLine, ...]
    bcc: int


@dataclass(frozen=True)
class IdentificationMessage:
    """Meter identification reply ``/MMMZIdent\\r\\n``.

    ``manufacturer`` is the three-letter FLAG id, ``baud_id`` the single
    baud-rate character, ``identifier`` the free-text model field.
    """

    manufacturer: str
    baud_id: str
    identifier: str

    def __post_init__(self):
        if not re.fullmatch(_MANUFACTURER, self.manufacturer):
            raise ValueError("manufacturer must be exactly 3 uppercase letters")
        if not re.fullmatch(_BAUD_ID, self.baud_id):
            raise ValueError("baud_id must be one printable ASCII character")
        if not re.fullmatch(_IDENTIFIER, self.identifier):
            raise ValueError("identifier must be printable ASCII without CR/LF")

    def serialize(self) -> bytes:
        return "/{}{}{}\r\n".format(
            self.manufacturer, self.baud_id, self.identifier
        ).encode("ascii")


def parse_identification(data: bytes) -> IdentificationMessage:
    """Decode ``/MMMZIdent\\r\\n``; inverse of :meth:`IdentificationMessage.serialize`.

    Raises:
        MalformedLine: input does not match the identification grammar.
    """
    try:
        text = bytes(data).decode("ascii")
    except UnicodeDecodeError:
        raise MalformedLine(0, "non-ASCII identification message") from None
    m = _IDENT_RE.fullmatch(text)
    if m is None:
        raise MalformedLine(0, "not an identification message: {!r}".format(text))
    return IdentificationMessage(*m.groups())


def encode_request() -> bytes:
    """Return the 5-byte mode-C sign-on request ``/?!\\r\\n``."""
    return SIGN_ON_REQUEST


def is_sign_on_request(data: bytes) -> bool:
    """Recognize a sign-on request; anything else is rejected."""
    return bytes(data) == SIGN_ON_REQUEST


def compute_bcc(payload: bytes) -> int:
    """XOR-fold the frame body (bytes after STX through ETX inclusive).

    Raises:
        EmptyPayload: if ``payload`` is empty.
    """
    if len(payload) == 0:
        raise EmptyPayload("BCC over empty payload")
    return functools.reduce(operator.xor, payload)


def encode_readout(lines) -> bytes:
    """Assemble a readout frame from data lines.

    ``parse_readout(encode_readout(lines)).lines == tuple(lines)`` for every
    sequence of serializable lines; an empty sequence yields a frame whose
    body is just the ``!\\r\\n`` terminator.

    Raises:
        EncodingError: propagated from :meth:`DataLine.serialize`.
    """
    body = b"".join(line.serialize() for line in lines) + READOUT_TERMINATOR
    payload = body + bytes([ETX])
    return bytes([STX]) + payload + bytes([compute_bcc(payload)])


def parse_readout(data: bytes) -> ReadoutFrame:
    """Decode a readout frame, validating structure and block check.

    Any byte input yields either a frame or a typed :class:`ProtocolError`;
    the parser never raises anything else.

    Raises:
        MissingStx: input empty or not starting with STX.
        MissingEtx: no ETX byte after the start.
        TruncatedFrame: ETX present but no BCC byte follows.
        ChecksumMismatch: stored BCC differs from the XOR fold.
        TrailingBytes: input continues past the BCC byte.
        MalformedLine: terminator missing or a line violates the grammar.
    """
    data = bytes(data)
    if not data or data[0] != STX:
        raise MissingStx("frame must start with STX (0x02)")
    etx = data.find(ETX, 1)
    if etx < 0:
        raise MissingEtx("no ETX (0x03) in frame")
    if len(data) < etx + 2:
        raise TruncatedFrame("frame ends before BCC byte")
    payload = data[1 : etx + 1]
    expected = compute_bcc(payload)
    found = data[etx + 1]
    if expected != found:
        raise ChecksumMismatch(expected, found)
    if len(data) > etx + 2:
        raise TrailingBytes(len(data) - etx - 2)

    body = data[1:etx]
    if not body.endswith(READOUT_TERMINATOR):
        raise MalformedLine(0, "body does not end with '!' CR LF terminator")
    segments = body[: -len(READOUT_TERMINATOR)].split(b"\r\n")
    if segments[-1] != b"":
        raise MalformedLine(
            max(0, len(segments) - 1), "last line not terminated by CR LF"
        )
    lines = []
    for index, raw in enumerate(segments[:-1]):
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError:
            raise MalformedLine(index, "non-ASCII bytes in line") from None
        m = _LINE_RE.fullmatch(text)
        if m is None:
            raise MalformedLine(index, "does not match ADDRESS(VALUE*UNIT): {!r}".format(text))
        lines.append(DataLine(ObisCode.parse(m[1]), m[2], Unit(m[3] or "")))
    return ReadoutFrame(tuple(lines), found)


def extract_energy(frame: ReadoutFrame, code: ObisCode) -> Decimal | None:
    """Return the first value registered under ``code``, in kWh.

    Returns None when the frame has no line for ``code``.

    Raises:
        MalformedValue: the matching line's value is not an unsigned
            decimal number.
    """
    for line in frame.lines:
        if line.address == code:
            if not _DECIMAL_RE.fullmatch(line.value):
                raise MalformedValue(
                    "value {!r} of {} is not a decimal number".format(line.value, code)
                )
            return Decimal(line.value)
    return None


def format_register_kwh(value: Decimal) -> str:
    """Render a register value in the 10-character field, e.g. ``000123.456``.

    Values at or above the register modulus wrap around, mirroring the
    physical display rollover.
    """
    wrapped = value % REGISTER_MODULUS_KWH
    return "{:010.3f}".format(wrapped)
