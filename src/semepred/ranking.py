"""Scored sememe rankings shared by all predictors."""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractError, UnknownIdError, ValidationError
from .graph import NodeId, NodeKind


class CandidateOrder:
    """A set of candidate nodes in name order, with each node's position
    and name.

    A prediction run builds one and passes it wherever candidates are
    taken, so its rankings share one order and one position table and line
    up element for element.
    """

    def __init__(self, nodes: Iterable[NodeId]) -> None:
        self.key = frozenset(nodes)
        self.nodes: tuple[NodeId, ...] = tuple(sorted(self.key, key=operator.attrgetter("name")))
        self.position: dict[NodeId, int] = {s: i for i, s in enumerate(self.nodes)}
        self.names: tuple[str, ...] = tuple(s.name for s in self.nodes)

    @classmethod
    def of(cls, candidates: Iterable[NodeId]) -> "CandidateOrder":
        """``candidates`` itself if it is an order already, else its order."""
        return candidates if isinstance(candidates, cls) else cls(candidates)

    @cached_property
    def _non_sememe(self) -> NodeId | None:
        return next((s for s in self.nodes if s.kind is not NodeKind.SEMEME), None)

    def check_sememes(self) -> None:
        """Raise :class:`ContractError` naming the first candidate that is not a sememe."""
        if self._non_sememe is not None:
            raise ContractError(f"candidate {self._non_sememe} is not a sememe")

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


class ScoredRanking:
    """A target synset's candidate sememes ordered best-first.

    Entries are (sememe, score) pairs with finite scores, sorted by
    descending score with lexicographic name order breaking ties, so equal
    inputs always yield identical rankings.  Ranks are 1-based positions
    in that order.

    The ranking is held as arrays over a name-ordered :class:`CandidateOrder`:
    ``scores[i]`` is the score of ``candidates.nodes[i]``, and ``order`` lists
    candidate positions best-first, from one stable descending sort of the
    scores, which keeps tied sememes in name order.  ``entries`` is built
    from them on first use.  Equality, hashing and ``repr`` go through
    ``entries``, as for a frozen dataclass of ``target`` and ``entries``.
    """

    target: NodeId
    candidates: CandidateOrder
    scores: np.ndarray
    order: np.ndarray

    def __init__(self, target: NodeId, entries: Iterable[tuple[NodeId, float]]) -> None:
        entries = tuple(entries)
        scores = np.array([v for _, v in entries], dtype=np.float64)
        ranking = self.from_ranked(target, [s for s, _ in entries], scores)
        self.__dict__.update(vars(ranking), entries=entries)

    @classmethod
    def _new(
        cls, target: NodeId, candidates: CandidateOrder, scores: np.ndarray, order: np.ndarray
    ) -> "ScoredRanking":
        ranking = object.__new__(cls)
        scores.flags.writeable = order.flags.writeable = False
        ranking.__dict__.update(target=target, candidates=candidates, scores=scores, order=order)
        return ranking

    @classmethod
    def from_array(cls, target: NodeId, candidates: CandidateOrder, scores: np.ndarray) -> "ScoredRanking":
        """The ranking of ``scores``, a float64 array over ``candidates``
        that the ranking keeps, read-only, as its own."""
        finite = np.isfinite(scores)
        if not finite.all():
            bad = [candidates.names[i] for i in np.flatnonzero(~finite)]
            raise ValidationError(f"ranking for {target} has non-finite scores for {bad}")
        return cls._new(target, candidates, scores, np.argsort(-scores, kind="stable"))

    @classmethod
    def from_scores(cls, target: NodeId, scores: Mapping[NodeId, float]) -> "ScoredRanking":
        """The ranking of ``scores``, sorted here."""
        candidates = CandidateOrder(scores)
        return cls.from_array(
            target, candidates, np.array([scores[s] for s in candidates.nodes], dtype=np.float64)
        )

    @classmethod
    def from_ranked(
        cls,
        target: NodeId,
        nodes: Sequence[NodeId],
        scores: np.ndarray,
        reuse: CandidateOrder | None = None,
    ) -> "ScoredRanking":
        """The ranking whose sememes, best first, are ``nodes``, scored by
        the float64 array ``scores``, after checking that it is one: no
        repeats, finite scores, and descending scores with ties in name
        order.  ``reuse`` is taken as the candidate order when it holds
        the same set as ``nodes``."""
        key = frozenset(nodes)
        candidates = reuse if reuse is not None and reuse.key == key else CandidateOrder(key)
        if len(candidates) != len(nodes):
            names = [s.name for s in nodes]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"ranking for {target} repeats sememes: {dupes}")
        finite = np.isfinite(scores)
        if not finite.all():
            bad = [s.name for s, ok in zip(nodes, finite.tolist()) if not ok]
            raise ValidationError(f"ranking for {target} has non-finite scores for {bad}")
        order = np.fromiter(map(candidates.position.__getitem__, nodes), dtype=np.intp, count=len(nodes))
        # Positions follow name order, so they decide between tied scores.
        head, tail = scores[:-1], scores[1:]
        wrong = (tail > head) | ((tail == head) & (order[1:] < order[:-1]))
        if wrong.any():
            raise ValidationError(
                f"ranking for {target} is out of order at position {int(wrong.argmax()) + 2}"
            )
        aligned = np.empty_like(scores)
        aligned[order] = scores
        return cls._new(target, candidates, aligned, order)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def entries(self) -> tuple[tuple[NodeId, float], ...]:
        return tuple(zip(self.sememes(), self.scores[self.order].tolist()))

    @cached_property
    def ranks(self) -> np.ndarray:
        """The 1-based rank of each candidate, in candidate order."""
        ranks = np.empty(len(self.order), dtype=np.intp)
        ranks[self.order] = np.arange(1, len(ranks) + 1)
        ranks.flags.writeable = False
        return ranks

    def __len__(self) -> int:
        return len(self.order)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.target, self.entries) == (other.target, other.entries)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.target, self.entries))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(target={self.target!r}, entries={self.entries!r})"

    def _position(self, sememe: NodeId) -> int:
        try:
            return self.candidates.position[sememe]
        except KeyError as exc:
            raise UnknownIdError(f"{sememe} is not ranked for {self.target}") from exc

    def rank(self, sememe: NodeId) -> int:
        return int(self.ranks[self._position(sememe)])

    def score(self, sememe: NodeId) -> float:
        return float(self.scores[self._position(sememe)])

    def sememes(self) -> tuple[NodeId, ...]:
        nodes = self.candidates.nodes
        return tuple([nodes[i] for i in self.order.tolist()])

    def __contains__(self, sememe: NodeId) -> bool:
        return sememe in self.candidates.position
