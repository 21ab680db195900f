// Package signature implements the signature database of the paper (§2,
// §3.3): each investigated performance problem is stored as a binary
// violation tuple under its operation context, in the four-tuple format
// (binary tuple, problem name, ip, workload type). Diagnosis retrieves the
// stored signatures most similar to an observed violation tuple and reports
// their problems as the ranked root-cause list, most probable first.
package signature

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Tuple is a binary violation tuple. Its coordinate system is the sorted
// invariant pair list of the operation context it was computed under.
type Tuple []bool

// String renders the tuple as a 0/1 string (for logs and persistence).
func (t Tuple) String() string {
	var b strings.Builder
	for _, v := range t {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// ParseTuple inverts Tuple.String.
func ParseTuple(s string) (Tuple, error) {
	t := make(Tuple, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			t[i] = true
		default:
			return nil, fmt.Errorf("signature: invalid tuple character %q", s[i])
		}
	}
	return t, nil
}

// Ones returns the number of violations in the tuple.
func (t Tuple) Ones() int {
	n := 0
	for _, v := range t {
		if v {
			n++
		}
	}
	return n
}

// Measure selects the tuple-similarity function.
type Measure int

const (
	// Jaccard similarity |a∧b| / |a∨b| — the default; it focuses on the
	// violated coordinates, which carry the signal (most invariants hold
	// under any single fault, so Hamming similarity is dominated by
	// uninformative zeros).
	Jaccard Measure = iota
	// Hamming similarity: fraction of matching coordinates.
	Hamming
	// Cosine similarity of the tuples as 0/1 vectors.
	Cosine
)

func (m Measure) String() string {
	switch m {
	case Jaccard:
		return "jaccard"
	case Hamming:
		return "hamming"
	case Cosine:
		return "cosine"
	default:
		return fmt.Sprintf("measure(%d)", int(m))
	}
}

// Similarity computes the chosen similarity of two equal-length tuples in
// [0, 1]. Two all-zero tuples are fully similar under every measure.
func Similarity(a, b Tuple, m Measure) (float64, error) {
	return MaskedSimilarity(a, b, nil, m)
}

// MaskedSimilarity computes similarity restricted to the coordinates whose
// invariants were checkable under the observed window: known[i] false
// excludes coordinate i from the comparison entirely (an unknown invariant
// is neither a match nor a mismatch). A nil mask compares every coordinate.
// When no coordinate is known there is no evidence at all, and the
// similarity is 0 regardless of measure.
func MaskedSimilarity(a, b Tuple, known []bool, m Measure) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("signature: tuple lengths %d and %d differ", len(a), len(b))
	}
	if known != nil && len(known) != len(a) {
		return 0, fmt.Errorf("signature: mask length %d for tuples of length %d", len(known), len(a))
	}
	var both, either, equal, onesA, onesB, compared int
	for i := range a {
		if known != nil && !known[i] {
			continue
		}
		compared++
		switch {
		case a[i] && b[i]:
			both++
			either++
			equal++
		case a[i] || b[i]:
			either++
		default:
			equal++
		}
		if a[i] {
			onesA++
		}
		if b[i] {
			onesB++
		}
	}
	return similarityFromCounts(both, either, equal, onesA, onesB, compared, known != nil, m)
}

// similarityFromCounts turns the comparison tallies into the final score.
// Both the boolean walk above and the packed popcount path (bitset.go)
// produce identical integer tallies and funnel through here, so the two
// paths return bit-identical floats.
func similarityFromCounts(both, either, equal, onesA, onesB, compared int, masked bool, m Measure) (float64, error) {
	if masked && compared == 0 {
		return 0, nil
	}
	switch m {
	case Jaccard:
		if either == 0 {
			return 1, nil
		}
		return float64(both) / float64(either), nil
	case Hamming:
		if compared == 0 {
			return 1, nil
		}
		return float64(equal) / float64(compared), nil
	case Cosine:
		if onesA == 0 || onesB == 0 {
			if onesA == onesB {
				return 1, nil
			}
			return 0, nil
		}
		return float64(both) / sqrtProd(onesA, onesB), nil
	default:
		return 0, fmt.Errorf("signature: unknown measure %v", m)
	}
}

// sqrtProd returns sqrt(a*b) for the cosine denominator.
func sqrtProd(a, b int) float64 { return math.Sqrt(float64(a) * float64(b)) }

// Entry is one stored signature: the paper's four-tuple.
type Entry struct {
	Tuple    Tuple
	Problem  string // root-cause name, e.g. "cpu-hog"
	IP       string // node the signature was collected on
	Workload string // workload type of the operation context
}

// Fingerprint identifies the entry's payload within its operation context:
// FNV-1a over the problem name and the violation tuple. Two entries with the
// same (workload, ip, fingerprint) carry the same diagnostic knowledge, which
// is the merge key both the wire-labelling path and the fleet anti-entropy
// layer dedupe on.
func (e Entry) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(e.Problem); i++ {
		h ^= uint64(e.Problem[i])
		h *= prime64
	}
	h ^= 0xff // separator: ("ab", tuple "c") must not collide with ("a", "bc")
	h *= prime64
	for _, v := range e.Tuple {
		b := uint64('0')
		if v {
			b = '1'
		}
		h ^= b
		h *= prime64
	}
	return h
}

// mergeKey is the full dedup identity of an entry: the operation context plus
// the payload fingerprint. Fingerprint collisions across different payloads
// are theoretically possible but would only suppress one redundant store;
// they can never corrupt existing entries.
type mergeKey struct {
	workload, ip string
	fp           uint64
}

func (e Entry) key() mergeKey {
	return mergeKey{workload: e.Workload, ip: e.IP, fp: e.Fingerprint()}
}

// Match is a retrieved signature with its similarity score.
type Match struct {
	Entry
	Score float64
}

// DB is the signature database. The zero value is ready to use.
type DB struct {
	entries []Entry
	packs   []packed // bitset form of each entry's tuple, parallel to entries
	// probOf interns each entry's problem name, parallel to entries:
	// probIDs[entries[i].Problem] == probOf[i], ids dense from 0.
	// RankProblems folds scores into one slot per problem id instead of
	// materialising a Match per entry. Maintained by Add and rebuilt by
	// Prune.
	probOf  []int32
	probIDs map[string]int32
	// dedup indexes entries by (context, fingerprint) for Merge; maintained
	// by Add and rebuilt by Prune.
	dedup map[mergeKey]struct{}
	// idx is the scope-partitioned inverted index over the entries (see
	// index.go), maintained incrementally by Add and rebuilt by Prune. It
	// keeps retrieval sub-linear in the fleet-wide corpus.
	idx invIndex
	// MinScore is the minimum similarity for a match to be reported
	// (default 0: report everything, ranked).
	MinScore float64
	// DisableIndex forces every query down the linear reference scan. It
	// exists for the index-vs-scan equivalence tests and the linear-scan
	// baseline benchmark; production paths leave it false.
	DisableIndex bool

	// Scan telemetry: entries considered by best-match scans, and how many
	// resolved without the per-word similarity loop (precomputed-popcount
	// fast paths, stale-length skips, MinScore bound pruning).
	scanEntries    atomic.Int64
	scanEarlyExits atomic.Int64
	// Index telemetry: queries answered via the inverted index, queries
	// that fell back to a scan, and entries scored by index-path queries.
	idxQueries     atomic.Int64
	idxScanQueries atomic.Int64
	idxCandidates  atomic.Int64
}

// ScanStats returns the cumulative best-match scan counters: entries
// considered and entries resolved by an early exit. Safe for concurrent use.
func (db *DB) ScanStats() (entries, earlyExits int64) {
	return db.scanEntries.Load(), db.scanEarlyExits.Load()
}

// ErrEmpty is returned when matching against an empty database scope.
var ErrEmpty = errors.New("signature: no signatures for context")

// Add stores a signature. "As more performance problems are diagnosed, the
// number of items in signature database increases gradually."
func (db *DB) Add(e Entry) {
	db.entries = append(db.entries, Entry{
		Tuple:    append(Tuple(nil), e.Tuple...),
		Problem:  e.Problem,
		IP:       e.IP,
		Workload: e.Workload,
	})
	db.indexEntry(int32(len(db.entries) - 1))
}

// indexEntry extends every structure derived from entries — packs, problem
// ids, the dedup map and the inverted index — with stored entry i, which
// must be the next one not yet indexed.
func (db *DB) indexEntry(i int32) {
	e := db.entries[i]
	p := pack(e.Tuple)
	db.packs = append(db.packs, p)
	id, ok := db.probIDs[e.Problem]
	if !ok {
		if db.probIDs == nil {
			db.probIDs = make(map[string]int32)
		}
		id = int32(len(db.probIDs))
		db.probIDs[e.Problem] = id
	}
	db.probOf = append(db.probOf, id)
	if db.dedup == nil {
		db.dedup = make(map[mergeKey]struct{})
	}
	db.dedup[e.key()] = struct{}{}
	db.idx.add(i, e, p)
}

// Merge stores a signature unless an identical one — same operation context,
// same (problem, tuple) fingerprint — is already present, and reports whether
// the entry was added. This is the idempotent primitive behind both wire
// labelling (a retried POST /v1/signatures must not inflate the database and
// skew best-match scans) and fleet anti-entropy (the same entry arriving via
// two gossip paths merges to one copy).
func (db *DB) Merge(e Entry) bool {
	if _, dup := db.dedup[e.key()]; dup {
		return false
	}
	db.Add(e)
	return true
}

// Len returns the number of stored signatures.
func (db *DB) Len() int { return len(db.entries) }

// Clone returns a deep copy of the database: entries (tuples included) and
// MinScore. Callers holding a lock around Clone get a snapshot they can
// read, match and audit without further synchronisation against writers of
// the original.
func (db *DB) Clone() *DB {
	out := &DB{MinScore: db.MinScore, DisableIndex: db.DisableIndex}
	out.entries = make([]Entry, 0, len(db.entries))
	for _, e := range db.entries {
		out.Add(e)
	}
	return out
}

// Entries returns a deep copy of all stored signatures: the entry slice and
// every tuple. Callers are free to mutate the result without corrupting the
// stored signatures (or the index built over them) behind the DB's back.
func (db *DB) Entries() []Entry {
	out := make([]Entry, len(db.entries))
	for i, e := range db.entries {
		out[i] = e
		out[i].Tuple = append(Tuple(nil), e.Tuple...)
	}
	return out
}

// Match retrieves the topK stored signatures most similar to tuple within
// the operation context (ip, workload); empty ip or workload matches any
// (the no-operation-context ablation passes both empty). Results are sorted
// by descending score, ties broken by problem name for determinism.
func (db *DB) Match(tuple Tuple, ip, workloadType string, measure Measure, topK int) ([]Match, error) {
	return db.MatchMasked(tuple, nil, ip, workloadType, measure, topK)
}

// MatchMasked is Match under a degraded telemetry window: similarity is
// computed only over the coordinates whose invariants were checkable
// (known[i] true). A nil mask compares every coordinate.
//
// Retrieval is sub-linear in the common case: an unmasked Jaccard or Cosine
// query with MinScore > 0 resolves through the scope-partitioned inverted
// index (see index.go), touching only entries that share violated bits with
// the query. Masked windows, Hamming, and MinScore == 0 queries fall back
// to a bucket scan restricted to the matching scope partitions (or the full
// linear scan when DisableIndex is set). Every path scores candidates
// through the same bitCounts → similarityFromCounts funnel, so results are
// bit-identical across paths, and selection runs under one total order
// (score descending, problem ascending, insertion order) via a bounded
// top-k heap.
func (db *DB) MatchMasked(tuple Tuple, known []bool, ip, workloadType string, measure Measure, topK int) ([]Match, error) {
	sel := selector{k: topK, entries: db.entries}
	if err := db.retrieve(tuple, known, ip, workloadType, measure, sel.add); err != nil {
		return nil, err
	}
	return sel.results(), nil
}

// RankProblems is the production root-cause ranking: it returns exactly
// what BestProblem(MatchMasked(tuple, known, ip, workloadType, measure, 0))
// returns, truncated to topK (<= 0 keeps every problem), without
// materialising a match per entry. Each scored entry folds straight into
// its problem's slot, which keeps the best score and, among equal best
// scores, the lowest insertion index — the entry BestProblem keeps. Only
// the winning problems are sorted (score descending, problem ascending), so
// the cost is O(scoped entries) integer scoring with O(problems) allocation.
// Retrieval paths and the ScanStats/IndexStats counters are MatchMasked's.
// Each returned Match owns a copy of its tuple: mutating it cannot reach
// the stored signature.
func (db *DB) RankProblems(tuple Tuple, known []bool, ip, workloadType string, measure Measure, topK int) ([]Match, error) {
	f := problemFold{probOf: db.probOf, best: make([]problemBest, len(db.probIDs))}
	if err := db.retrieve(tuple, known, ip, workloadType, measure, f.add); err != nil {
		return nil, err
	}
	return f.results(db, topK), nil
}

// problemBest is one problem's slot in a RankProblems fold: its best score
// so far and the entry that holds it.
type problemBest struct {
	score float64
	idx   int32
	seen  bool
}

// problemFold keeps the best-scoring entry of each interned problem.
type problemFold struct {
	probOf []int32
	best   []problemBest // indexed by problem id
}

func (f *problemFold) add(idx int32, score float64) {
	b := &f.best[f.probOf[idx]]
	if !b.seen || score > b.score || (score == b.score && idx < b.idx) {
		*b = problemBest{score: score, idx: idx, seen: true}
	}
}

// results ranks the problems that received a score and returns the first
// topK as matches carrying their representative entries. The slice is
// non-nil even when no problem scored, like BestProblem's.
func (f *problemFold) results(db *DB, topK int) []Match {
	won := f.best[:0] // compact the seen slots in place
	for _, b := range f.best {
		if b.seen {
			won = append(won, b)
		}
	}
	slices.SortFunc(won, func(a, b problemBest) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return strings.Compare(db.entries[a.idx].Problem, db.entries[b.idx].Problem)
	})
	if topK > 0 && len(won) > topK {
		won = won[:topK]
	}
	out := make([]Match, len(won))
	for i, b := range won {
		e := db.entries[b.idx]
		e.Tuple = append(Tuple(nil), e.Tuple...)
		out[i] = Match{Entry: e, Score: b.score}
	}
	return out
}

// retrieve validates and packs the query, dispatches it to a retrieval path
// and passes every entry scoring at least MinScore to add. It returns
// ErrEmpty when no stored entry falls in the (ip, workloadType) scope. add
// is a function value rather than an interface so the per-query collector
// behind it stays on the caller's stack.
func (db *DB) retrieve(tuple Tuple, known []bool, ip, workloadType string, measure Measure, add func(idx int32, score float64)) error {
	n := len(tuple)
	if known != nil && len(known) != n {
		// Validated once per query, not per entry — and reported even when
		// the scope matches zero entries.
		return fmt.Errorf("signature: mask length %d for tuples of length %d", len(known), n)
	}
	q := pack(tuple)
	var knownWords []uint64
	if known != nil {
		knownWords = packWords(known)
	}
	var scoped int
	var err error
	switch {
	case db.DisableIndex:
		db.idxScanQueries.Add(1)
		scoped, err = db.matchLinear(q, knownWords, n, ip, workloadType, measure, add)
	case knownWords == nil && db.MinScore > 0 && (measure == Jaccard || measure == Cosine):
		db.idxQueries.Add(1)
		scoped, err = db.matchIndexed(q, n, ip, workloadType, measure, add)
	default:
		db.idxScanQueries.Add(1)
		scoped, err = db.matchScoped(q, knownWords, n, ip, workloadType, measure, add)
	}
	if err != nil {
		return err
	}
	if scoped == 0 {
		return ErrEmpty
	}
	return nil
}

// scoreEntry computes entry idx's similarity to the packed query exactly as
// the historical linear scan did — precomputed-count fast paths included —
// and passes it to add. Shared by every retrieval path so scores
// and selection stay bit-identical.
func (db *DB) scoreEntry(idx int32, q packed, knownWords []uint64, n int, measure Measure, add func(idx int32, score float64), early *int64) error {
	ep := db.packs[idx]
	var s float64
	resolved := false
	if knownWords == nil {
		if q.ones == 0 {
			if v, ok := zeroQueryScore(ep.ones, n, measure); ok {
				s, resolved = v, true
				if early != nil {
					*early++
				}
			}
		}
		if !resolved && db.MinScore > 0 {
			if ub, ok := scoreUpperBound(q.ones, ep.ones, n, measure); ok && ub < db.MinScore {
				if early != nil {
					*early++
				}
				return nil // provably below threshold; the exact score cannot be reported
			}
		}
	}
	if !resolved {
		both, either, equal, onesA, onesB, compared := bitCounts(q, ep, knownWords, n)
		v, err := similarityFromCounts(both, either, equal, onesA, onesB, compared, knownWords != nil, measure)
		if err != nil {
			return err
		}
		s = v
	}
	if s < db.MinScore {
		return nil
	}
	add(idx, s)
	return nil
}

// matchLinear is the reference retrieval: a full scan over every stored
// entry with per-entry scope filtering. Kept as the DisableIndex path — the
// baseline the equivalence tests and the linear-scan benchmark pin the
// index against.
func (db *DB) matchLinear(q packed, knownWords []uint64, n int, ip, workloadType string, measure Measure, add func(idx int32, score float64)) (int, error) {
	scoped := 0
	var scanned, early int64
	defer func() {
		db.scanEntries.Add(scanned)
		db.scanEarlyExits.Add(early)
	}()
	for idx, e := range db.entries {
		if ip != "" && e.IP != ip {
			continue
		}
		if workloadType != "" && e.Workload != workloadType {
			continue
		}
		scoped++
		scanned++
		if len(e.Tuple) != n {
			// A stale signature from an older invariant set; skip rather
			// than fail the whole diagnosis.
			early++
			continue
		}
		if err := db.scoreEntry(int32(idx), q, knownWords, n, measure, add, &early); err != nil {
			return 0, err
		}
	}
	return scoped, nil
}

// matchScoped is the bucket scan: the scope partitions prune entries of
// other operation contexts and the length buckets prune stale tuples, but
// every entry of the query-length bucket is scored. The fallback for
// masked windows, Hamming, and MinScore == 0 queries.
func (db *DB) matchScoped(q packed, knownWords []uint64, n int, ip, workloadType string, measure Measure, add func(idx int32, score float64)) (int, error) {
	scoped := 0
	var scanned, early int64
	defer func() {
		db.scanEntries.Add(scanned)
		db.scanEarlyExits.Add(early)
	}()
	var err error
	db.idx.forScopes(ip, workloadType, func(sp *scopePartition) {
		if err != nil {
			return
		}
		scoped += sp.total
		for ln, b := range sp.byLen {
			if ln != n {
				// Stale-length entries count as considered-and-skipped,
				// mirroring the linear scan's counters.
				scanned += int64(len(b.ids))
				early += int64(len(b.ids))
				continue
			}
			scanned += int64(len(b.ids))
			for _, idx := range b.ids {
				if err = db.scoreEntry(idx, q, knownWords, n, measure, add, &early); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return scoped, nil
}

// matchIndexed answers an unmasked Jaccard/Cosine query with MinScore > 0
// through the inverted index: candidates are the entries sharing at least
// minOverlap violated bits with the query (everything else scores exactly
// 0 < MinScore), and an all-zero query resolves from the precomputed
// zero-tuple group (every other entry scores 0). The bit-sliced counter
// hands back each candidate's exact shared-bit count, so every tally
// similarityFromCounts needs follows by integer arithmetic — the same
// integers bitCounts would produce — and reported scores stay bit-identical
// to the scans' without re-touching the candidate's tuple.
func (db *DB) matchIndexed(q packed, n int, ip, workloadType string, measure Measure, add func(idx int32, score float64)) (int, error) {
	scoped := 0
	var scoredN int64
	defer func() { db.idxCandidates.Add(scoredN) }()
	var err error
	threshold := minOverlap(measure, db.MinScore, q.ones)
	db.idx.forScopes(ip, workloadType, func(sp *scopePartition) {
		if err != nil {
			return
		}
		scoped += sp.total
		b := sp.byLen[n]
		if b == nil {
			return
		}
		if q.ones == 0 {
			for _, idx := range b.zeros {
				scoredN++
				if err = db.scoreEntry(idx, q, nil, n, measure, add, nil); err != nil {
					return
				}
			}
			return
		}
		scoredN += b.candidates(q, threshold, func(idx int32, both int) {
			if err != nil {
				return
			}
			onesB := db.packs[idx].ones
			either := q.ones + onesB - both
			equal := n - either + both
			s, serr := similarityFromCounts(both, either, equal, q.ones, onesB, n, false, measure)
			if serr != nil {
				err = serr
				return
			}
			if s < db.MinScore {
				return
			}
			add(idx, s)
		})
	})
	if err != nil {
		return 0, err
	}
	return scoped, nil
}

// BestProblem aggregates Match results into a ranked root-cause list: each
// distinct problem keeps its best score. It returns problems sorted by
// descending score ("a list of root causes which puts the most probable
// causes in the top").
func BestProblem(matches []Match) []Match {
	best := make(map[string]Match)
	for _, m := range matches {
		if cur, ok := best[m.Problem]; !ok || m.Score > cur.Score {
			best[m.Problem] = m
		}
	}
	out := make([]Match, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Problem < out[b].Problem
	})
	return out
}

// Prune removes redundant signatures: within each (problem, ip, workload)
// group, an entry whose similarity to an already-kept entry of the same
// group meets or exceeds threshold under measure is dropped. It returns the
// number of entries removed. Pruning keeps retrieval sharp as the database
// grows ("the number of items in signature database increases gradually"):
// near-duplicate signatures add matching cost without adding coverage.
func (db *DB) Prune(measure Measure, threshold float64) (removed int, err error) {
	type key struct{ problem, ip, workload string }
	kept := make([]Entry, 0, len(db.entries))
	byGroup := make(map[key][]Tuple)
	for _, e := range db.entries {
		k := key{e.Problem, e.IP, e.Workload}
		dup := false
		for _, prev := range byGroup[k] {
			if len(prev) != len(e.Tuple) {
				continue
			}
			s, serr := Similarity(prev, e.Tuple, measure)
			if serr != nil {
				return removed, serr
			}
			if s >= threshold {
				dup = true
				break
			}
		}
		if dup {
			removed++
			continue
		}
		byGroup[k] = append(byGroup[k], e.Tuple)
		kept = append(kept, e)
	}
	db.entries = kept
	db.packs = db.packs[:0]
	db.probOf = db.probOf[:0]
	db.probIDs = nil
	db.dedup = make(map[mergeKey]struct{}, len(kept))
	db.idx.reset()
	for i := range kept {
		db.indexEntry(int32(i))
	}
	return removed, nil
}
