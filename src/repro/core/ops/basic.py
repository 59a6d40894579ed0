"""Elementary genomic operations: complement, GC content, decoding raw text.

These are the small building blocks of the algebra — operations whose
signature is a single sequence (or raw repository text) in and a sequence
or scalar out.
"""

from __future__ import annotations

from repro.core.types.sequence import (
    DnaSequence,
    PackedSequence,
    ProteinSequence,
    RnaSequence,
)
from repro.errors import SequenceError


def complement(sequence: PackedSequence) -> PackedSequence:
    """The base-wise complement (same orientation)."""
    alphabet = sequence.alphabet
    if not alphabet.has_complement:
        raise SequenceError(
            f"cannot complement a {alphabet.name} sequence"
        )
    complemented = "".join(alphabet.complement(s) for s in str(sequence))
    return type(sequence)(complemented)


def reverse_complement(sequence: PackedSequence) -> PackedSequence:
    """The reverse complement — the opposite strand read 5'→3'."""
    return complement(sequence).reverse()


def gc_content(sequence: PackedSequence) -> float:
    """Fraction of G and C bases among concrete (non-ambiguous) bases.

    S (which stands for G or C) counts as GC; other ambiguity codes and
    gaps are excluded from the denominator.
    """
    text = str(sequence)
    gc = sum(text.count(base) for base in "GCS")
    at = sum(text.count(base) for base in "ATUW")
    total = gc + at
    return gc / total if total else 0.0


def base_composition(sequence: PackedSequence) -> dict[str, int]:
    """Counts of every symbol that occurs in the sequence."""
    text = str(sequence)
    return {symbol: text.count(symbol) for symbol in sorted(set(text))}


#: Separators repository text puts between sequence blocks.
_SEPARATORS = "/\\.,;:"

#: One deletion table for every ASCII character a decoder drops.
_ASCII_DROPS = str.maketrans("", "", "".join(
    ch for ch in map(chr, range(128))
    if ch.isdigit() or ch.isspace() or ch in _SEPARATORS
))


def _cleaned(raw: str) -> str:
    """*raw* without digits, whitespace and separators, upper-cased.

    ASCII text (every repository flat file) goes through one
    ``str.translate``; other text keeps the per-character filter, since
    ``isdigit``/``isspace`` also accept non-ASCII digits and spaces.
    """
    if raw.isascii():
        return raw.translate(_ASCII_DROPS).upper()
    return "".join(
        ch for ch in raw if not ch.isdigit() and not ch.isspace()
        and ch not in _SEPARATORS
    ).upper()


def decode(raw: str) -> DnaSequence:
    """Decode raw repository sequence text into a DNA value.

    Repository flat files ship sequence as numbered, whitespace-broken,
    lower-case blocks (GenBank's ``ORIGIN`` section).  ``decode`` strips
    digits, whitespace and separators and validates the remainder against
    the IUPAC DNA alphabet — this is the paper's ``decode`` operation: the
    step from low-level repository text to a high-level GDT value.
    """
    return DnaSequence(_cleaned(raw))


def decode_rna(raw: str) -> RnaSequence:
    """Like :func:`decode` but for RNA text."""
    return RnaSequence(_cleaned(raw))


def decode_protein(raw: str) -> ProteinSequence:
    """Like :func:`decode` but for amino-acid text."""
    return ProteinSequence(_cleaned(raw))


def dna_to_rna(dna: DnaSequence) -> RnaSequence:
    """Re-letter a DNA sequence as RNA (T → U), preserving ambiguity codes."""
    return RnaSequence(str(dna).replace("T", "U"))


def rna_to_dna(rna: RnaSequence) -> DnaSequence:
    """Re-letter an RNA sequence as DNA (U → T), preserving ambiguity codes."""
    return DnaSequence(str(rna).replace("U", "T"))
