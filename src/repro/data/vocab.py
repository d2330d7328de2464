"""Vocabulary: token ↔ id mapping with the special tokens used everywhere.

Id layout is fixed so that checkpoints and tests are stable:
``[PAD]=0, [UNK]=1, [CLS]=2, [BOS]=3, [EOS]=4`` followed by corpus tokens in
sorted order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .preprocessing import CLS_TOKEN, PAD_TOKEN

__all__ = ["Vocabulary", "UNK_TOKEN", "BOS_TOKEN", "EOS_TOKEN"]

UNK_TOKEN = "[UNK]"
BOS_TOKEN = "[BOS]"
EOS_TOKEN = "[EOS]"

_SPECIALS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, BOS_TOKEN, EOS_TOKEN)


class Vocabulary:
    """Immutable token ↔ id mapping."""

    def __init__(self, tokens: Iterable[str]) -> None:
        self._token_to_id: Dict[str, int] = {}
        self._id_to_token: List[str] = []
        for token in _SPECIALS:
            self._add(token)
        for token in tokens:
            if token not in self._token_to_id:
                self._add(token)

    def _add(self, token: str) -> None:
        self._token_to_id[token] = len(self._id_to_token)
        self._id_to_token.append(token)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK_TOKEN]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[BOS_TOKEN]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[EOS_TOKEN]

    def encode(self, tokens: Sequence[str]) -> List[int]:
        get, unk = self._token_to_id.get, self.unk_id
        return [get(t, unk) for t in tokens]

    def decode(self, ids: Sequence[int], skip_special: bool = True) -> List[str]:
        tokens = [self._id_to_token[i] for i in ids]
        if skip_special:
            specials = set(_SPECIALS)
            tokens = [t for t in tokens if t not in specials]
        return tokens

    def as_dict(self) -> Dict[str, int]:
        return dict(self._token_to_id)

    @classmethod
    def from_corpus(cls, corpus) -> "Vocabulary":
        """Vocabulary over every corpus token + topic-phrase token."""
        return cls(corpus.vocabulary())
