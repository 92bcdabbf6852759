"""Token-set similarity for person names and free-text keywords."""

from __future__ import annotations

import re
import unicodedata

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Token overlap at which two names count as the same person: a name or
# keyword query matches a corpus subject, and two identifier-free clusters
# merge.
NAME_MATCH_THRESHOLD = 0.5


def fold_text(value: str) -> str:
    """Lowercase *value* and strip diacritics (NFKD, combining marks dropped)."""
    decomposed = unicodedata.normalize("NFKD", value)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch)).lower()


def name_tokens(value: str) -> frozenset[str]:
    """Split *value* into a set of folded alphanumeric tokens."""
    return frozenset(_TOKEN_RE.findall(fold_text(value)))


def jaccard(left: frozenset[str], right: frozenset[str]) -> float:
    """Jaccard overlap of two token sets (0.0 when both are empty)."""
    shared = len(left & right)
    union = len(left) + len(right) - shared
    return shared / union if union else 0.0
