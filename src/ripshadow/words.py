"""Words in free groups: free reduction, hole words and group presentations.

Both of the paper's group-theoretic claims are about such words.  A loop in
a planar Rips complex is null-homotopic iff its hole word, a freely reduced
word over the hole-anchor alphabet, is the identity; and a quasi-Rips
complex carries the group of any finite presentation, whose relators are
freely reduced words over its generators.  A letter is a signed 1-based
index: +i is the i-th generator (or anchor), -i its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

Word = Tuple[int, ...]  # letters +i / -i, 1-based anchor index


def free_reduce(letters: Sequence[int]) -> Word:
    out: List[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class HoleWord:
    """Freely reduced word over the hole-anchor alphabet."""

    letters: Word

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(
            f"a{abs(l)}" if l > 0 else f"a{abs(l)}^-1" for l in self.letters
        )


@dataclass(frozen=True)
class GroupPresentation:
    """Generators 1..n and relators as signed generator sequences."""

    n_generators: int
    relators: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.n_generators) is not int or self.n_generators < 1:
            raise ValueError(f"generators must be an int >= 1, not {self.n_generators!r}")
        for rel in self.relators:
            if not rel:
                raise ValueError("relators must be nonempty")
            if free_reduce(rel) != tuple(rel):
                raise ValueError(f"relator {rel} is not freely reduced")
            # exactly int: True and 2.0 would pass as generators 1 and 2
            if any(type(g) is not int or abs(g) < 1 or abs(g) > self.n_generators for g in rel):
                raise ValueError(f"relator {rel} uses an unknown generator")

    @classmethod
    def parse(cls, generators: int, relator_words: Sequence[str]) -> "GroupPresentation":
        """Parse words like "aba'b'": letters a..z, apostrophe for inverse."""
        if not isinstance(relator_words, (list, tuple)) or not all(
            isinstance(word, str) for word in relator_words
        ):
            raise ValueError(f"relators must be a list of strings, not {relator_words!r}")
        rels = []
        for word in relator_words:
            rel: List[int] = []
            for ch in word:
                if ch == "'":
                    if not rel:
                        raise ValueError(f"dangling inverse mark in {word!r}")
                    rel[-1] = -rel[-1]
                else:
                    idx = ord(ch) - ord("a") + 1
                    if not ("a" <= ch <= "z" and idx <= generators):
                        raise ValueError(f"unknown generator {ch!r} in {word!r}")
                    rel.append(idx)
            rels.append(tuple(rel))
        return cls(n_generators=generators, relators=tuple(rels))
