"""Word tokenization and the special tokens (paper §IV-A3, adapted).

:func:`word_tokenize` lowercases text, replaces digit runs with the
``<digit>`` token and keeps each punctuation mark as its own token.  The
paper tokenises with BERT's WordPiece instead; here every encoder embeds
these whole-word tokens through :class:`~repro.data.Vocabulary`, and the
BERTSUM encoder puts a ``[CLS]`` before each sentence
(:class:`~repro.models.BertSumEncoder`).  Pages are not split into
sub-documents; DESIGN.md §2 records the deviation.
"""

from __future__ import annotations

import re
from sys import intern
from typing import List

__all__ = ["DIGIT_TOKEN", "CLS_TOKEN", "PAD_TOKEN", "word_tokenize"]

DIGIT_TOKEN = "<digit>"
CLS_TOKEN = "[CLS]"
PAD_TOKEN = "[PAD]"

_TOKEN_PATTERN = re.compile(r"[a-z]+|[0-9]+(?:\.[0-9]+)?|[^\sa-z0-9]")


def word_tokenize(text: str) -> List[str]:
    """Lowercase + digit-replace + punctuation-splitting word tokenizer.

    Word tokens are interned, so every cached document and retained brief
    shares one string per distinct word.
    """
    return [
        DIGIT_TOKEN if piece[0].isdigit() else intern(piece)
        for piece in _TOKEN_PATTERN.findall(text.lower())
    ]
