package signature

import "math/bits"

// Bitset-packed tuples: the database keeps each stored signature packed
// into []uint64 words alongside its boolean form, so the best-match scan is
// popcount loops instead of per-coordinate branches, with early exits that
// skip the loop entirely for entries whose score is already determined (or
// provably below MinScore) by the precomputed population counts. The packed
// path computes the exact same integer tallies (both/either/equal/ones/
// compared) the boolean walk produces and feeds them through the same
// similarityFromCounts, so scores are bit-identical — pinned by
// TestBitsetMatchesBoolSimilarity.

// packed is the bitset form of one stored tuple.
type packed struct {
	words []uint64
	ones  int
}

// packWords packs a boolean slice, LSB-first within each word. Padding bits
// beyond len(t) are zero, which the popcount identities below rely on.
func packWords(t []bool) []uint64 {
	if len(t) == 0 {
		return nil
	}
	w := make([]uint64, (len(t)+63)/64)
	for i, v := range t {
		if v {
			w[i/64] |= 1 << uint(i%64)
		}
	}
	return w
}

func popcount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// pack returns the packed form of a tuple.
func pack(t Tuple) packed {
	ws := packWords(t)
	return packed{words: ws, ones: popcount(ws)}
}

// bitCounts computes the similarity tallies of two packed tuples of n
// coordinates, optionally restricted by a packed known mask (nil compares
// every coordinate). The identities: both = |a∧b|, either = |a∨b|,
// equal = compared − |a⊕b|, all intersected with the mask when present.
// Unmasked, only |a∧b| needs a popcount: with the precomputed ones,
// |a∨b| = onesA + onesB − both and |a⊕b| = either − both exactly.
func bitCounts(a, b packed, known []uint64, n int) (both, either, equal, onesA, onesB, compared int) {
	if known == nil {
		bw := b.words[:len(a.words)]
		for w, aw := range a.words {
			both += bits.OnesCount64(aw & bw[w])
		}
		either = a.ones + b.ones - both
		equal = n - (either - both)
		return both, either, equal, a.ones, b.ones, n
	}
	for w := range a.words {
		aw, bw, kw := a.words[w], b.words[w], known[w]
		both += bits.OnesCount64(aw & bw & kw)
		either += bits.OnesCount64((aw | bw) & kw)
		equal += bits.OnesCount64((aw ^ bw) & kw)
		onesA += bits.OnesCount64(aw & kw)
		onesB += bits.OnesCount64(bw & kw)
		compared += bits.OnesCount64(kw)
	}
	equal = compared - equal
	return both, either, equal, onesA, onesB, compared
}

// zeroQueryScore resolves the similarity of an all-zero unmasked query
// against a stored entry from the entry's population count alone: with no
// violations observed, both = onesA = 0, either = onesB = ones, and
// equal = n − ones, so every measure is a closed form of (ones, n).
func zeroQueryScore(ones, n int, m Measure) (float64, bool) {
	switch m {
	case Jaccard, Cosine:
		// either == 0 (resp. onesA == onesB == 0) ⇒ 1; otherwise 0.
		if ones == 0 {
			return 1, true
		}
		return 0, true
	case Hamming:
		if n == 0 {
			return 1, true
		}
		return float64(n-ones) / float64(n), true
	default:
		return 0, false
	}
}

// scoreUpperBound returns an upper bound on the unmasked similarity of two
// tuples with the given population counts — sound for MinScore pruning:
// both ≤ min(onesA, onesB), either ≥ max(onesA, onesB), and at least
// |onesA − onesB| coordinates must mismatch.
func scoreUpperBound(onesA, onesB, n int, m Measure) (float64, bool) {
	lo, hi := onesA, onesB
	if lo > hi {
		lo, hi = hi, lo
	}
	switch m {
	case Jaccard:
		if hi == 0 {
			return 1, true
		}
		return float64(lo) / float64(hi), true
	case Hamming:
		if n == 0 {
			return 1, true
		}
		return float64(n-(hi-lo)) / float64(n), true
	case Cosine:
		if lo == 0 {
			if onesA == onesB {
				return 1, true
			}
			return 0, true
		}
		return float64(lo) / sqrtProd(onesA, onesB), true
	default:
		return 0, false
	}
}
