import numpy as np

from pbwtstep.subruns import normalize

from conftest import (brute_normalize, brute_overlaps, normalized_pieces, rand_partition,
                      starts_of)

PARTS = np.array([1, 2, 12])
REF = np.array([1, 3, 4, 6, 8, 10, 11, 14, 15])


def test_worked_example():
    pieces, src = normalized_pieces(PARTS, 16, REF)
    assert pieces.tolist() == [1, 2, 6, 11, 12]
    assert src.tolist() == [0, 1, 1, 1, 2]
    # the parts' first and last positions, interleaved: only [2, 11] is cut
    k, cuts = normalize(np.array([1, 1, 2, 11, 12, 16]), REF)
    assert k.tolist() == [0, 2, 0] and cuts.tolist() == [6, 11]


def test_small_ref_is_copy():
    one = np.array([1])
    pieces, src = normalized_pieces(one, 9, one)
    assert pieces.tolist() == [1] and src.tolist() == [0]
    parts = np.array([1, 5])
    pieces, src = normalized_pieces(parts, 9, np.array([1, 2, 3]))
    assert pieces.tolist() == [1, 5] and src.tolist() == [0, 1]


def test_matches_brute_force(rng):
    for _ in range(400):
        n = int(rng.integers(1, 51))
        parts, ref = rand_partition(rng, n), rand_partition(rng, n)
        pieces, _ = normalized_pieces(starts_of(parts), n, starts_of(ref))
        assert pieces.tolist() == starts_of(brute_normalize(parts, ref)).tolist()


def test_properties(rng):
    for _ in range(300):
        n = int(rng.integers(1, 120))
        parts, ref = rand_partition(rng, n), rand_partition(rng, n)
        pieces, src = normalized_pieces(starts_of(parts), n, starts_of(ref))
        # a partition of [1..n]
        assert pieces[0] == 1 and (np.diff(pieces) > 0).all() and pieces[-1] <= n
        ends = np.append(pieces[1:] - 1, n).tolist()
        out = list(zip(pieces.tolist(), ends))
        # three-overlap constraint
        assert all(len(brute_overlaps(iv, ref)) <= 3 for iv in out)
        # split bound
        assert len(out) <= len(parts) + len(ref) // 2
        # refinement: merging pieces by source reproduces the input
        merged = {}
        for (b, e), s in zip(out, src.tolist()):
            lo, hi = merged.get(s, (b, e))
            merged[s] = (min(lo, b), max(hi, e))
        assert [merged[s] for s in sorted(merged)] == parts
        # every introduced cut lands on a ref right endpoint
        ref_ends = {e for _, e in ref}
        part_ends = {e for _, e in parts}
        for _, e in out:
            if e not in part_ends:
                assert e in ref_ends
