"""Finitely represented subsets of omega and of the index pairs {(i,j) : i < j}.

A ``TailSet`` is a finite set of naturals together with an optional end
segment ``[threshold, omega)``.  An ``IndexSet`` stores its first-coordinate
projection as a ``TailSet`` and its second-coordinate projections piecewise:
finitely many intervals of i-values, each holding one stored ``TailSet``, the
last interval unbounded.  The effective projection at i is the stored set cut
down to ``(i, omega)``, so a single stored set can describe the i-dependent
family ``[i+1, omega)``.

The family is closed under every construction performed here (intersection,
square restriction, coherence repair); arbitrary subsets of omega such as the
even numbers are deliberately not representable, which keeps the cobounded /
coherent / eventually-coherent classification exactly decidable.  Its one
caller in the package is ``decomp.witness_equivalence``, which classifies the
index set it is handed and evaluates entries on its pairs; square restriction,
coherence repair and successor pairs have no caller there and stay defined
while the benchmark's span tracer names them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TailSet:
    """``set(finite) | [threshold, omega)``; ``threshold=None`` means no tail."""

    finite: tuple[int, ...] = ()
    threshold: int | None = None

    def to_json(self) -> dict:
        return {"finite": list(self.finite), "threshold": self.threshold}

    # -- queries ------------------------------------------------------------

    def contains(self, x: int) -> bool:
        if self.threshold is not None and x >= self.threshold:
            return True
        return x in self.finite

    def is_unbounded(self) -> bool:
        return self.threshold is not None

    def min_value(self) -> int:
        least = self.least_in(0)
        if least is None:
            raise ValueError("empty tail set has no minimum")
        return least

    def least_in(self, start: int, end: int | None = None) -> int | None:
        """Least member of ``[start, end)`` (``end=None`` = omega), or ``None``."""
        least = next((x for x in self.finite if x >= start), None)
        if least is None and self.threshold is not None:
            least = max(self.threshold, start)
        if least is None or (end is not None and least >= end):
            return None
        return least

    def min_from(self, k: int) -> int:
        """Least member >= k; raises on bounded sets exhausted below k."""
        least = self.least_in(k)
        if least is None:
            raise ValueError(f"no member of {self!r} at or above {k}")
        return least

    def elements_below(self, k: int) -> tuple[int, ...]:
        out = [x for x in self.finite if x < k]
        if self.threshold is not None and self.threshold < k:
            out.extend(range(self.threshold, k))
        return tuple(sorted(out))

    # -- algebra ------------------------------------------------------------

    def intersect(self, other: TailSet) -> TailSet:
        finite = [x for x in self.finite if other.contains(x)]
        finite += [x for x in other.finite if self.contains(x)]
        if self.threshold is None or other.threshold is None:
            return tailset(finite)
        return tailset(finite, max(self.threshold, other.threshold))

    def union(self, other: TailSet) -> TailSet:
        if self.threshold is not None or other.threshold is not None:
            t = min(x for x in (self.threshold, other.threshold) if x is not None)
        else:
            t = None
        finite = set(self.finite) | set(other.finite)
        return tailset(finite, t)

    def shift_past(self, i: int) -> TailSet:
        """The members strictly above ``i``."""
        return self.intersect(tail(i + 1))

    def issubset(self, other: TailSet) -> bool:
        if other.threshold is None:
            return self.threshold is None and all(other.contains(x) for x in self.finite)
        return all(other.contains(x) for x in self.elements_below(other.threshold))


def tailset(finite=(), threshold: int | None = None) -> TailSet:
    """Canonicalizing constructor: sorted finite part disjoint from the tail."""
    elems = set(int(x) for x in finite)
    if any(x < 0 for x in elems):
        raise ValueError(f"tail set members must be non-negative: {sorted(elems)!r}")
    if threshold is not None:
        threshold = int(threshold)
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        elems = {x for x in elems if x < threshold}
        while threshold - 1 in elems:
            threshold -= 1
            elems.discard(threshold)
    return TailSet(tuple(sorted(elems)), threshold)


FULL = tailset((), 0)


def tail(t: int) -> TailSet:
    """The end segment ``[t, omega)``."""
    return tailset((), t)


def below(j: int) -> TailSet:
    """The initial segment ``[0, j)``."""
    return tailset(range(j))


def singleton(x: int) -> TailSet:
    return tailset((x,))


@dataclass(frozen=True)
class Classification:
    cobounded: bool
    coherent: bool
    eventually_coherent: bool


@dataclass(frozen=True)
class ProPiece:
    """Stored projection set for the i-interval ``[start, end)`` (``end=None`` = omega)."""

    start: int
    end: int | None
    pro: TailSet

    def to_json(self) -> dict:
        return {"i_from": self.start, "i_to": self.end, "set": self.pro.to_json()}


@dataclass(frozen=True)
class IndexSet:
    """A subset of ``{(i,j) : i < j < omega}`` in piecewise tail-set form."""

    first: TailSet
    pieces: tuple[ProPiece, ...]

    def to_json(self) -> dict:
        return {"first": self.first.to_json(), "pro": [p.to_json() for p in self.pieces]}

    # -- structure ----------------------------------------------------------

    def stored_at(self, i: int) -> TailSet:
        for piece in self.pieces:
            if piece.start <= i and (piece.end is None or i < piece.end):
                return piece.pro
        raise AssertionError("pieces must cover omega")

    def pro(self, i: int) -> TailSet:
        """The effective projection ``{j : (i,j) in I}`` for ``i`` in ``first``."""
        if not self.first.contains(i):
            raise ValueError(f"{i} is not in the first projection")
        return self.stored_at(i).shift_past(i)

    def contains(self, i: int, j: int) -> bool:
        return j > i and self.first.contains(i) and self.stored_at(i).contains(j)

    def _relevant_pieces(self) -> list[tuple[int, ProPiece]]:
        """Pieces meeting ``first``, tagged with their least first-member."""
        out = []
        for piece in self.pieces:
            i0 = self.first.least_in(piece.start, piece.end)
            if i0 is not None:
                out.append((i0, piece))
        return out

    # -- classification -------------------------------------------------------

    def classify(self) -> Classification:
        if not self.first.is_unbounded():
            return Classification(False, False, False)
        relevant = self._relevant_pieces()
        pro_unbounded = all(piece.pro.is_unbounded() for _, piece in relevant)
        cobounded = pro_unbounded
        eventually_coherent = pro_unbounded
        coherent = True
        for i0, piece in relevant:
            if piece.pro.shift_past(i0) != self.first.shift_past(i0):
                coherent = False
                break
        return Classification(cobounded, coherent, eventually_coherent)

    # -- operations -----------------------------------------------------------

    def square_restrict(self, s: TailSet) -> IndexSet:
        """Keep exactly the pairs with both coordinates in ``s``."""
        return index_set(
            self.first.intersect(s),
            [ProPiece(p.start, p.end, p.pro.intersect(s)) for p in self.pieces],
        )

    def coherify(self, s: TailSet) -> IndexSet:
        """An eventually coherent subset with first projection ``s`` whose
        projections form a decreasing chain of end segments of ``s``.

        For each j in ``s`` the new projection is the intersection, over the
        members i of ``s`` up to j, of the old projections cut past the
        supremum of ``first`` minus the projection at i.  The cut suprema take
        only finitely many values beyond the i-interval boundaries, so the
        result stays in the piecewise representation.
        """
        if not self.classify().eventually_coherent:
            raise ValueError("index set must be eventually coherent")
        if not s.is_unbounded():
            raise ValueError("the selector set must be unbounded")
        if not s.issubset(self.first):
            raise ValueError("the selector set must lie within the first projection")

        # Per piece: the least s-member hitting it and the top of the defect
        # ``first - pro``, which lies below pro's threshold: eventual coherence
        # makes every piece that meets ``first`` unbounded.
        hits = []
        for piece in self.pieces:
            j_hit = s.least_in(piece.start, piece.end)
            if j_hit is None:
                continue
            defect = [x for x in self.first.elements_below(piece.pro.threshold)
                      if not piece.pro.contains(x)]
            hits.append((j_hit, max(defect, default=None)))
        hits.sort()

        pieces = []
        running: int | None = None
        for idx, (j_hit, defect) in enumerate(hits):
            if defect is not None:
                running = defect if running is None else max(running, defect)
            cut = 0 if running is None else running + 1
            end = hits[idx + 1][0] if idx + 1 < len(hits) else None
            start = 0 if idx == 0 else j_hit
            pieces.append(ProPiece(start, end, s.intersect(tail(cut))))
        result = index_set(s, pieces)

        self._validate_coherified(result)
        return result

    def _validate_coherified(self, j_set: IndexSet) -> None:
        if not j_set.issubset(self):
            raise AssertionError("coherified set escaped the original index set")
        if not j_set.classify().eventually_coherent:
            raise AssertionError("coherified set is not eventually coherent")
        prev_min = None
        for i0, piece in j_set._relevant_pieces():
            pro = piece.pro.shift_past(i0)
            if pro != j_set.first.intersect(tail(pro.min_value())):
                raise AssertionError("projection is not an end segment of the selector set")
            if prev_min is not None and pro.min_value() < prev_min:
                raise AssertionError("projection minima must be non-decreasing")
            prev_min = pro.min_value()

    def successor_pair(self, i: int) -> tuple[int, int]:
        """``(i', i'')`` with ``i'`` the next first-member past ``i`` and
        ``i''`` the least member of the projection at ``i'``."""
        i1 = self.first.min_from(i + 1)
        i2 = self.pro(i1).min_value()
        return i1, i2

    def issubset(self, other: IndexSet) -> bool:
        if not self.first.issubset(other.first):
            return False
        cuts = sorted({p.start for p in self.pieces} | {p.start for p in other.pieces})
        for k, start in enumerate(cuts):
            end = cuts[k + 1] if k + 1 < len(cuts) else None
            i0 = self.first.least_in(start, end)
            if i0 is None:
                continue
            mine = self.stored_at(i0).shift_past(i0)
            theirs = other.stored_at(i0).shift_past(i0)
            if not mine.issubset(theirs):
                return False
        return True


def index_set(first: TailSet, pieces) -> IndexSet:
    """Canonicalizing constructor: contiguous pieces covering omega, merged,
    and the first projection shrunk to members with nonempty projections."""
    pieces = sorted(pieces, key=lambda p: p.start)
    if not pieces:
        raise ValueError("an index set needs at least one projection piece")
    if pieces[0].start != 0:
        raise ValueError("projection pieces must start at 0")
    if pieces[-1].end is not None:
        raise ValueError("the last projection piece must be unbounded")
    merged: list[ProPiece] = []
    for piece in pieces:
        if merged:
            prev = merged[-1]
            if prev.end != piece.start:
                raise ValueError(f"projection pieces must be contiguous at {piece.start}")
            if prev.pro == piece.pro:
                merged[-1] = ProPiece(prev.start, piece.end, prev.pro)
                continue
        merged.append(piece)
    for piece in merged:
        if piece.pro.is_unbounded():
            continue
        # bounded stored set: first-members in [max(start, its top), end) see nothing
        top = max(piece.pro.finite) if piece.pro.finite else 0
        cut_from = max(piece.start, top)
        first = first.intersect(tailset(range(cut_from), piece.end))
    return IndexSet(first, tuple(merged))


def ind_omega() -> IndexSet:
    """The full index set ``{(i,j) : i < j < omega}``."""
    return index_set(FULL, [ProPiece(0, None, FULL)])
