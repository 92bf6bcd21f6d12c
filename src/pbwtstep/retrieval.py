"""Whole-haplotype retrieval from the forward-stepping structure alone.

Column 1 of the prefix array is the identity, so row i sits at position i
there; a predecessor query over the first column's sub-run starts locates the
initial sub-run, after which one symbol access and one forward step per
column reproduce the row, read from the step index's flat tables. The panel
itself is never stored.
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
        """Reconstruct row i; in ragged mode the output stops before the
        terminator, so ragged rows come back at their true lengths."""
        if not 1 <= i <= self.h:
            raise ValueError(f"row {i} out of range [1..{self.h}]")
        st = self.step
        m, shift = st.mv, int(st.ragged)
        sym, delta, lam, end = m.fore_vals, m.fore_delta, m.fore_lam, m.fore_ends
        g, out = st.find_fore_subrun(1, i) - 1, []
        for _ in range(st.w - 1):
            c = sym[g]
            if c < shift:
                return out
            out.append(c - shift)
            i += delta[g]
            g = lam[g]
            while end[g] <= i:
                g += 1
        c = sym[g]
        if c >= shift:
            out.append(c - shift)
        return out
