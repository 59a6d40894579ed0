"""Tests for complement / GC content / decode."""

import pytest
from hypothesis import given, strategies as st

from repro.core.ops.basic import (
    base_composition,
    complement,
    decode,
    decode_protein,
    decode_rna,
    dna_to_rna,
    gc_content,
    reverse_complement,
    rna_to_dna,
)
from repro.core.types import DnaSequence, ProteinSequence, RnaSequence
from repro.errors import SequenceError

dna_strategy = st.text(alphabet="ACGTRYSWKMBDHVN", max_size=100)


class TestComplement:
    def test_simple(self):
        assert str(complement(DnaSequence("ATGC"))) == "TACG"

    def test_reverse_complement(self):
        assert str(reverse_complement(DnaSequence("ATGC"))) == "GCAT"

    def test_rna(self):
        assert str(complement(RnaSequence("AUGC"))) == "UACG"

    def test_ambiguity_codes(self):
        assert str(complement(DnaSequence("RYN"))) == "YRN"

    def test_protein_rejected(self):
        with pytest.raises(SequenceError):
            complement(ProteinSequence("MKL"))

    @given(dna_strategy)
    def test_complement_is_involution(self, text):
        sequence = DnaSequence(text)
        assert complement(complement(sequence)) == sequence

    @given(dna_strategy)
    def test_reverse_complement_is_involution(self, text):
        sequence = DnaSequence(text)
        assert reverse_complement(reverse_complement(sequence)) == sequence

    @given(dna_strategy)
    def test_reverse_complement_preserves_gc(self, text):
        sequence = DnaSequence(text)
        assert gc_content(reverse_complement(sequence)) == pytest.approx(
            gc_content(sequence)
        )


class TestGcContent:
    def test_all_gc(self):
        assert gc_content(DnaSequence("GGCC")) == 1.0

    def test_all_at(self):
        assert gc_content(DnaSequence("AATT")) == 0.0

    def test_half(self):
        assert gc_content(DnaSequence("ATGC")) == 0.5

    def test_empty_is_zero(self):
        assert gc_content(DnaSequence("")) == 0.0

    def test_s_counts_as_gc(self):
        assert gc_content(DnaSequence("SS")) == 1.0

    def test_n_excluded_from_denominator(self):
        assert gc_content(DnaSequence("GCNN")) == 1.0

    def test_base_composition(self):
        assert base_composition(DnaSequence("AACG")) == {
            "A": 2, "C": 1, "G": 1,
        }


class TestDecode:
    def test_genbank_origin_block(self):
        raw = """
        1 atggccattg taatgggccg
        21 ctgaaagggt gcccgatag
        """
        assert str(decode(raw)) == "ATGGCCATTGTAATGGGCCGCTGAAAGGGTGCCCGATAG"

    def test_separators_stripped(self):
        assert str(decode("ac-gt; a,c.g:t")) == "AC-GTACGT".replace("-", "-")

    def test_invalid_symbol_still_rejected(self):
        with pytest.raises(Exception):
            decode("acgu")  # U is not DNA

    def test_decode_rna(self):
        assert str(decode_rna("augc 123")) == "AUGC"

    def test_decode_protein(self):
        assert str(decode_protein("mkl vt")) == "MKLVT"


def _reference_decode(kind, raw):
    """The per-character filter every decoder used before the shared
    ``str.translate`` cleaner: the behaviour to preserve."""
    cleaned = "".join(
        ch for ch in raw if not ch.isdigit() and not ch.isspace()
        and ch not in "/\\.,;:"
    )
    return kind(cleaned.upper())


def _outcome(function, *args):
    try:
        return ("value", str(function(*args)))
    except SequenceError as exc:
        return ("error", type(exc), str(exc))


#: Repository-like text: sequence letters of every alphabet, digits,
#: separators, ASCII and non-ASCII whitespace and digits.
repository_text = st.text(
    alphabet="acgturykmACGTUNmkl*-/\\.,;: \t\n\r\x0b\x1c0123456789"
             "\u00a0\u2003\u0663\u00b2\u0130\u00df",
    max_size=80,
)


class TestDecodeMatchesPerCharacterFilter:
    DECODERS = ((decode, DnaSequence), (decode_rna, RnaSequence),
                (decode_protein, ProteinSequence))

    @given(st.one_of(st.text(max_size=80), repository_text))
    def test_output_or_alphabet_error_is_unchanged(self, raw):
        for decoder, kind in self.DECODERS:
            assert _outcome(decoder, raw) == _outcome(
                _reference_decode, kind, raw)

    def test_non_ascii_digits_and_spaces_are_still_dropped(self):
        assert str(decode("ac\u0663g\u00a0t\u2003")) == "ACGT"


class TestRelettering:
    def test_dna_to_rna(self):
        assert str(dna_to_rna(DnaSequence("ATGT"))) == "AUGU"

    def test_rna_to_dna(self):
        assert str(rna_to_dna(RnaSequence("AUGU"))) == "ATGT"

    @given(dna_strategy)
    def test_roundtrip(self, text):
        sequence = DnaSequence(text)
        assert rna_to_dna(dna_to_rna(sequence)) == sequence
