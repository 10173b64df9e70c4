from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from meterwatch.protocol import (
    ChecksumMismatch,
    DataLine,
    EmptyPayload,
    EncodingError,
    ETX,
    IdentificationMessage,
    MalformedLine,
    MalformedValue,
    MissingEtx,
    MissingStx,
    ObisCode,
    ProtocolError,
    ReadoutFrame,
    STX,
    TrailingBytes,
    TruncatedFrame,
    Unit,
    compute_bcc,
    encode_readout,
    encode_request,
    extract_energy,
    format_register_kwh,
    is_sign_on_request,
    parse_identification,
    parse_readout,
)
from oracles import xor_fold

OBIS_180 = ObisCode(1, 8, 0)
SAMPLE_LINE = DataLine(OBIS_180, "000123.456", Unit.KWH)


# -- sign-on request ----------------------------------------------------------


def test_request_is_the_five_signon_bytes():
    assert encode_request() == b"/?!\r\n"
    assert list(encode_request()) == [0x2F, 0x3F, 0x21, 0x0D, 0x0A]


def test_request_roundtrips_through_recognizer():
    assert is_sign_on_request(encode_request())


@pytest.mark.parametrize("bad", [b"X?!\r\n", b"?!\r\n", b"/?!\r", b"", b"/?!\r\n\x00"])
def test_recognizer_rejects_other_inputs(bad):
    assert not is_sign_on_request(bad)


# -- block check --------------------------------------------------------------


def test_bcc_of_terminator_and_etx_is_0x25():
    payload = bytes([0x21, 0x0D, 0x0A, 0x03])
    assert compute_bcc(payload) == 0x25
    assert compute_bcc(payload) == xor_fold(payload)


def test_bcc_single_byte_is_identity():
    assert compute_bcc(bytes([0x7E])) == 0x7E


def test_bcc_of_doubled_payload_is_zero():
    payload = b"1.8.0(000123.456*kWh)\r\n"
    assert compute_bcc(payload + payload) == 0x00


def test_bcc_of_empty_payload_is_an_error():
    with pytest.raises(EmptyPayload):
        compute_bcc(b"")


# -- encoding -----------------------------------------------------------------


def test_encode_single_register_line():
    data = encode_readout([SAMPLE_LINE])
    body = b"1.8.0(000123.456*kWh)\r\n!\r\n"
    assert data[0] == STX
    assert data[1 : 1 + len(body)] == body
    assert data[1 + len(body)] == ETX
    assert data[-1] == xor_fold(body + bytes([ETX]))


def test_encode_empty_readout_has_terminator_only():
    data = encode_readout([])
    assert data[1:-2] == b"!\r\n"
    assert parse_readout(data).lines == ()


def test_encode_rejects_forbidden_value_characters():
    for value in ["12(3", "12)3", "12*3", "12\r3", "12\n3", "1\x032", "1\x7f2", "1\x002"]:
        with pytest.raises(EncodingError):
            encode_readout([DataLine(OBIS_180, value)])


def test_encode_rejects_non_ascii_value():
    with pytest.raises(EncodingError):
        encode_readout([DataLine(OBIS_180, "12€")])


def test_unitless_line_omits_the_separator():
    data = encode_readout([DataLine(ObisCode(0, 9, 1), "123456")])
    assert b"0.9.1(123456)\r\n" in data
    assert b"*" not in data


# -- parsing ------------------------------------------------------------------


def test_parse_roundtrips_encoded_frame():
    data = encode_readout([SAMPLE_LINE])
    frame = parse_readout(data)
    assert frame.lines == (SAMPLE_LINE,)
    assert encode_readout(frame.lines) == data


def test_flipped_bcc_is_a_checksum_mismatch():
    data = bytearray(encode_readout([SAMPLE_LINE]))
    data[-1] ^= 0xFF
    with pytest.raises(ChecksumMismatch) as err:
        parse_readout(bytes(data))
    assert err.value.found == data[-1]
    assert err.value.expected == data[-1] ^ 0xFF


def test_line_missing_tariff_component_is_malformed():
    body = b"1.8(00)\r\n!\r\n" + bytes([ETX])
    data = bytes([STX]) + body + bytes([compute_bcc(body)])
    with pytest.raises(MalformedLine) as err:
        parse_readout(data)
    assert err.value.index == 0


def test_structural_errors_are_typed():
    good = encode_readout([SAMPLE_LINE])
    with pytest.raises(MissingStx):
        parse_readout(good[1:])
    with pytest.raises(MissingEtx):
        parse_readout(good[:-2].replace(bytes([ETX]), b"x"))
    with pytest.raises(TruncatedFrame):
        parse_readout(good[:-1])
    with pytest.raises(TrailingBytes) as err:
        parse_readout(good + b"zz")
    assert err.value.count == 2
    with pytest.raises(MissingStx):
        parse_readout(b"")


def frame_of(body: bytes) -> bytes:
    """``body`` framed by STX, ETX and a correct BCC."""
    payload = body + bytes([ETX])
    return bytes([STX]) + payload + bytes([compute_bcc(payload)])


@pytest.mark.parametrize(
    "body",
    [b"1.8.0(5*kWh)\n\r\n!\r\n", b"1.8.0(5\x7f)\r\n!\r\n"],
    ids=["lf-before-crlf", "del-in-value"],
)
def test_line_is_matched_whole(body):
    with pytest.raises(MalformedLine) as err:
        parse_readout(frame_of(body))
    assert err.value.index == 0


def test_bad_terminator_is_malformed():
    body = b"1.8.0(1)\r\n" + bytes([ETX])  # no '!' CR LF before ETX
    data = bytes([STX]) + body + bytes([compute_bcc(body)])
    with pytest.raises(MalformedLine):
        parse_readout(data)


# -- energy extraction --------------------------------------------------------


def test_extract_energy_finds_first_matching_register():
    frame = parse_readout(encode_readout([SAMPLE_LINE]))
    assert extract_energy(frame, OBIS_180) == Decimal("123.456")


def test_extract_energy_absent_register_returns_none():
    frame = parse_readout(encode_readout([SAMPLE_LINE]))
    assert extract_energy(frame, ObisCode(2, 8, 0)) is None


def test_extract_energy_rejects_non_decimal_value():
    frame = ReadoutFrame((DataLine(OBIS_180, "abc"),), 0)
    with pytest.raises(MalformedValue):
        extract_energy(frame, OBIS_180)


# -- obis codes ---------------------------------------------------------------


def test_obis_rendering_roundtrips():
    for code in [ObisCode(1, 8, 0), ObisCode(15, 8, 0), ObisCode(0, 0, 99)]:
        assert ObisCode.parse(str(code)) == code


@pytest.mark.parametrize("text", ["01.8.0", "1.8", "1.8.0.0", "100.8.0", "a.b.c", "", "1.8.0\n"])
def test_obis_rejects_non_canonical_text(text):
    with pytest.raises(ValueError):
        ObisCode.parse(text)


def test_obis_parse_cache_keeps_errors_uncached():
    assert ObisCode.parse("1.8.0") is ObisCode.parse("1.8.0")
    for _ in range(2):
        with pytest.raises(ValueError, match=r"not an OBIS code: '01\.8\.0'"):
            ObisCode.parse("01.8.0")
    assert ObisCode.parse("2.8.0") == ObisCode(2, 8, 0)


def test_obis_component_range_is_validated():
    with pytest.raises(ValueError):
        ObisCode(100, 8, 0)
    with pytest.raises(ValueError):
        ObisCode(-1, 8, 0)


# -- identification message ---------------------------------------------------


def test_identification_roundtrips():
    msg = IdentificationMessage("ABC", "5", "OneM3ter v2")
    assert msg.serialize() == b"/ABC5OneM3ter v2\r\n"
    assert parse_identification(msg.serialize()) == msg


def test_parse_identification_rejects_garbage():
    for bad in [b"ABC5x\r\n", b"/ab15x\r\n", b"/ABC5x", b"/AB\xff5x\r\n", b"/ABC5x\r\n\n", b"/ABC5x\n\r\n"]:
        with pytest.raises(MalformedLine):
            parse_identification(bad)


def test_identification_validates_fields():
    with pytest.raises(ValueError):
        IdentificationMessage("AbC", "5", "x")
    with pytest.raises(ValueError):
        IdentificationMessage("ABCD", "5", "x")
    with pytest.raises(ValueError):
        IdentificationMessage("ABC", "\r", "x")


# -- register field -----------------------------------------------------------


def test_register_field_is_ten_characters():
    assert format_register_kwh(Decimal("123.456")) == "000123.456"
    assert format_register_kwh(Decimal("0")) == "000000.000"


def test_register_field_wraps_at_modulus():
    assert format_register_kwh(Decimal("1000000.000")) == "000000.000"
    assert format_register_kwh(Decimal("1000123.456")) == "000123.456"


# -- properties ---------------------------------------------------------------

# The value grammar: printable ASCII but "(", ")" and "*".
_VALUE_ALPHABET = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in "()*")
_value_chars = st.text(alphabet=_VALUE_ALPHABET, min_size=0, max_size=12)
_obis = st.builds(
    ObisCode,
    st.integers(0, 99),
    st.integers(0, 99),
    st.integers(0, 99),
)
_line = st.builds(DataLine, _obis, _value_chars, st.sampled_from(list(Unit)))
_lines = st.lists(_line, min_size=0, max_size=6).map(tuple)


@given(_lines)
def test_roundtrip_of_any_valid_line_sequence(lines):
    assert parse_readout(encode_readout(lines)).lines == lines


_outside_value = st.characters(blacklist_characters=_VALUE_ALPHABET)


@given(_obis, _value_chars, _outside_value, _value_chars, st.sampled_from(list(Unit)))
def test_value_outside_the_grammar_is_an_encoding_error(address, head, bad, tail, unit):
    with pytest.raises(EncodingError):
        encode_readout([DataLine(address, head + bad + tail, unit)])


@given(_lines.filter(lambda ls: len(ls) > 0), st.data())
def test_body_corruption_never_passes_silently(lines, data):
    encoded = bytearray(encode_readout(lines))
    etx_at = len(encoded) - 2
    position = data.draw(st.integers(1, etx_at - 1))
    new_value = data.draw(st.integers(0, 255).filter(lambda b: b != encoded[position]))
    encoded[position] = new_value
    with pytest.raises(ProtocolError):
        parse_readout(bytes(encoded))


@given(_lines.filter(lambda ls: len(ls) > 0), st.data())
def test_body_byte_change_preserving_framing_is_checksum_mismatch(lines, data):
    encoded = bytearray(encode_readout(lines))
    etx_at = len(encoded) - 2
    position = data.draw(st.integers(1, etx_at - 1))
    new_value = data.draw(
        st.integers(0, 255).filter(lambda b: b not in (encoded[position], ETX))
    )
    encoded[position] = new_value
    with pytest.raises(ChecksumMismatch):
        parse_readout(bytes(encoded))


@given(st.binary(min_size=0, max_size=120))
def test_parser_total_on_arbitrary_bytes(data):
    try:
        frame = parse_readout(data)
    except ProtocolError:
        return
    assert isinstance(frame, ReadoutFrame)
