"""Every binary parser reads through `wire.Reader`: a cut or overlong input
is a `wire.ParseError` naming an offset inside the input, never an
IndexError or a struct.error."""

import random
import struct

import pytest

from opml import fpvm, merkle, ml, wire
from opml.cli import WITNESS_MAGIC, read_witness_bundle
from opml.hashing import get_scheme

from fixtures import build_mlp, rand_tensor

SCHEME = get_scheme("sha256")


def _witness() -> fpvm.StepWitness:
    """A witness with a read, a write and a preimage chunk: a PREIMAGE step."""
    oracle = fpvm.PreimageOracle(SCHEME)
    key = oracle.put(bytes(range(80)))
    state = fpvm.load_program(fpvm.assemble([
        fpvm.encode("LI", rd=1), 1, fpvm.encode("LI", rd=2), 2,
        fpvm.encode("PREIMAGE", rd=1, rs=2), fpvm.encode("HALT"),
    ]), scheme=SCHEME)
    state.memory = fpvm.write_bytes(state.memory, fpvm.ORACLE_KEY_BASE, key)
    witness = fpvm.gen_step_witness(fpvm.run_trace(state, oracle).state_at(2), oracle)
    assert witness.mem_reads and witness.mem_writes and witness.preimage_chunk
    return witness


def _bundle(witness: fpvm.StepWitness) -> bytes:
    blob = witness.to_bytes()
    return (WITNESS_MAGIC + b"\x06sha256" + bytes(32) + bytes(range(32))
            + struct.pack("<I", len(blob)) + blob + struct.pack("<II", 1, 3) + b"abc")


def _parsers():
    witness = _witness()
    mlp = build_mlp(seed=2, in_dim=3, hidden=4, out_dim=2, with_argmax=True)
    return [
        pytest.param(ml.serialize_tensor(rand_tensor(random.Random(1), (2, 3))),
                     ml.deserialize_tensor, id="tensor"),
        pytest.param(ml.save_model_bytes(mlp), ml.load_model_bytes, id="model"),
        pytest.param(witness.mem_reads[0][2].to_bytes(), merkle.MerkleProof.from_bytes, id="proof"),
        pytest.param(witness.to_bytes(), fpvm.StepWitness.from_bytes, id="witness"),
        pytest.param(_bundle(witness), read_witness_bundle, id="bundle"),
    ]


@pytest.mark.parametrize("blob, parse", _parsers())
def test_every_cut_is_a_parse_error_at_an_offset_inside_the_input(blob, parse):
    parse(blob)
    for cut in range(len(blob)):
        with pytest.raises(wire.ParseError) as exc:
            parse(blob[:cut])
        assert 0 <= exc.value.offset <= cut, cut


@pytest.mark.parametrize("parse, blob", [
    (ml.deserialize_tensor, ml.serialize_tensor(rand_tensor(random.Random(2), (3,)))),
    (ml.load_model_bytes, ml.save_model_bytes(build_mlp(seed=3, in_dim=2, hidden=2, out_dim=2))),
    (merkle.MerkleProof.from_bytes, _witness().mem_reads[0][2].to_bytes()),
    (fpvm.StepWitness.from_bytes, _witness().to_bytes()),
    (read_witness_bundle, _bundle(_witness())),
], ids=["tensor", "model", "proof", "witness", "bundle"])
def test_a_trailing_byte_is_a_parse_error_at_its_offset(parse, blob):
    with pytest.raises(wire.ParseError, match="trailing") as exc:
        parse(blob + b"\x00")
    assert exc.value.offset == len(blob)


def test_a_count_too_large_for_struct_is_checked_against_the_bytes_left():
    """Eight dims of 2**32 - 1 ask for ~2**256 elements; `struct` cannot even
    build that format, so the count must be refused before it is asked to."""
    blob = struct.pack("<9I", 8, *[0xFFFF_FFFF] * 8) + bytes(64)
    with pytest.raises(wire.ParseError, match="truncated tensor data") as exc:
        ml.deserialize_tensor(blob)
    assert exc.value.offset == 36
    with pytest.raises(wire.ParseError):
        wire.Reader(bytes(8)).i32s(1 << 256, "values")


def test_a_witness_in_a_bundle_reports_offsets_into_the_bundle():
    witness = _witness()
    bundle = bytearray(_bundle(witness))
    flag_at = bundle.index(witness.to_bytes()) + len(witness.to_bytes()) - 69
    assert bundle[flag_at] == 1
    bundle[flag_at] = 7
    with pytest.raises(wire.ParseError, match="bad chunk flag") as exc:
        read_witness_bundle(bytes(bundle))
    assert exc.value.offset == flag_at


def test_a_witness_ends_where_its_length_field_says_not_where_the_bundle_does():
    """A length field one byte short cuts the witness's last field inside
    the witness, though the bundle's own fields follow it."""
    witness = _witness()
    blob = witness.to_bytes()
    bundle = bytearray(_bundle(witness))
    at = bundle.index(blob) - 4
    struct.pack_into("<I", bundle, at, len(blob) - 1)
    with pytest.raises(wire.ParseError, match="truncated") as exc:
        read_witness_bundle(bytes(bundle))
    assert at + 4 <= exc.value.offset < at + 4 + len(blob) - 1


def test_an_out_of_range_const_index_names_its_own_offset():
    blob = bytearray(ml.save_model_bytes(build_mlp(seed=4, in_dim=2, hidden=2, out_dim=2)))
    at = 16 + 2 + 4 + 4 * 2 + 2  # header, the input node's record, node 1's op and arity
    assert struct.unpack_from("<I", blob, at) == (0,)
    struct.pack_into("<I", blob, at, 99)
    with pytest.raises(wire.ParseError, match="const index 99 out of range") as exc:
        ml.load_model_bytes(bytes(blob))
    assert exc.value.offset == at


@pytest.mark.parametrize("at, value, reason", [(4, ml.MODEL_VERSION + 1, "unsupported version"),
                                               (6, ml.FRAC - 1, "unsupported frac")])
def test_a_model_of_another_version_or_scale_names_its_header_field(at, value, reason):
    blob = bytearray(ml.save_model_bytes(build_mlp(seed=4, in_dim=2, hidden=2, out_dim=2)))
    struct.pack_into("<H", blob, at, value)
    with pytest.raises(wire.ParseError, match=reason) as exc:
        ml.load_model_bytes(bytes(blob))
    assert exc.value.offset == at


def test_model_parse_error_is_the_wire_error():
    assert ml.ModelParseError is wire.ParseError
    assert issubclass(wire.ParseError, ValueError)
