"""Whole-haplotype retrieval from the forward-stepping structure alone.

Column 1 of the prefix array is the identity, so row i sits at position i
there; a predecessor query over the first column's sub-run starts locates the
initial sub-run, after which one symbol access and one forward step per
column reproduce the row. The panel itself is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stepindex import StepIndex


@dataclass
class RetrievalIndex:
    step: StepIndex

    @property
    def h(self) -> int:
        return self.step.h

    @property
    def w(self) -> int:
        return self.step.w

    def extract(self, i: int) -> list[int]:
        """Reconstruct row i; in terminator mode the output stops before the
        terminator, so ragged rows come back at their true lengths."""
        if not 1 <= i <= self.h:
            raise ValueError(f"row {i} out of range [1..{self.h}]")
        st = self.step
        shift = 1 if st.terminator is not None else 0
        x = st.find_fore_subrun(1, i)
        cur = i
        out: list[int] = []
        for j in range(1, st.w + 1):
            c = st.symbol_at_fore(j, x)
            if shift and c == st.terminator:
                break
            out.append(c - shift)
            if j < st.w:
                cur, x = st.fore_step(cur, j, x)
        return out
