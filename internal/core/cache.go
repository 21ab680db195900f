package core

import (
	"math"
	"sync"

	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
)

// DefaultAssocCacheSize bounds a profile's association-matrix cache when
// Config.AssocCacheSize is zero. At 26 metrics a matrix is ~2.6 KB, so the
// default worst case stays near 10 MB per profile.
const DefaultAssocCacheSize = 4096

// CacheStats reports association-cache effectiveness. Retraining recomputes
// the whole pooled window set on every TrainInvariants call, so hit counts
// directly measure avoided MIC work.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// fingerprintRows hashes the window's shape and raw float64 bit patterns
// with FNV-1a. Associations are pure functions of the samples, so equal
// fingerprints (same shape, same bits) mean an equal matrix.
func fingerprintRows(rows [][]float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(len(rows)))
	for _, r := range rows {
		mix(uint64(len(r)))
		for _, v := range r {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// fingerprintWindow extends fingerprintRows over a window's validity mask,
// so a masked window and its unmasked twin (same samples, different
// validity) cannot share a cache entry. A nil mask leaves the rows-only
// fingerprint untouched.
func fingerprintWindow(rows [][]float64, valid [][]bool) uint64 {
	h := fingerprintRows(rows)
	if valid == nil {
		return h
	}
	const prime64 = 1099511628211
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(len(valid)))
	for _, row := range valid {
		mix(uint64(len(row)))
		var word uint64
		n := 0
		for _, ok := range row {
			word <<= 1
			if ok {
				word |= 1
			}
			if n++; n == 64 {
				mix(word)
				word, n = 0, 0
			}
		}
		if n > 0 {
			mix(word)
		}
	}
	return h
}

// reportSalt separates the diagnosis path's violation-report keys from the
// training path's association-matrix keys inside one assocCache: a report is
// stored under fp^reportSalt, so the two entry kinds share the map, the
// FIFO bound and the hit counters without ever colliding on a fingerprint.
const reportSalt = 0x9e3779b97f4a7c15

// cacheEntry is one memoised analysis. Training entries hold the
// association matrix; diagnosis entries hold the finished violation report
// instead, valid only while repSet is still the profile's current
// invariant set (pointer identity — retraining installs a fresh *Set,
// invalidating every cached report at once). All cached state is shared
// across callers and read-only.
type cacheEntry struct {
	mat *invariant.Matrix

	rep    *ViolationReport
	repSet *invariant.Set
}

// assocCache memoises window analyses per content fingerprint with FIFO
// eviction. Each profile owns its cache, so the key needs no context
// component and cached state never crosses profiles. Cached matrices and
// reports are shared across callers and must never be mutated — every
// consumer (Select, the diagnosis callers) only reads.
type assocCache struct {
	mu      sync.Mutex
	max     int
	entries map[uint64]cacheEntry
	order   []uint64
	hits    int64
	misses  int64
}

// newAssocCache sizes a cache: size 0 selects the default bound, negative
// disables caching entirely (returns nil; callers treat nil as a miss-only
// pass-through).
func newAssocCache(size int) *assocCache {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = DefaultAssocCacheSize
	}
	return &assocCache{
		max:     size,
		entries: make(map[uint64]cacheEntry),
	}
}

func (c *assocCache) get(fp uint64) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

func (c *assocCache) put(fp uint64, e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[fp]; exists {
		c.entries[fp] = e
		return
	}
	for len(c.entries) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[fp] = e
	c.order = append(c.order, fp)
}

func (c *assocCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// BatchAssociation prepares a whole window of metric rows at once and
// returns a pair scorer over them. Batch preparation lets an association
// measure hoist per-metric work (sorting, partitioning for MIC) out of the
// m(m−1)/2 pair loop.
type BatchAssociation func(rows [][]float64) (invariant.PairScorer, error)

// MICBatch returns the batch form of the MIC association: metrics are
// prepared once via mic.NewBatch and pairs scored with pooled scratch
// buffers. Wired automatically by New when Assoc is the stock mic.MIC.
func MICBatch(cfg mic.Config) BatchAssociation {
	return func(rows [][]float64) (invariant.PairScorer, error) {
		return mic.NewBatch(rows, cfg)
	}
}

// BatchFor returns the batch form of assoc when one exists — currently only
// the stock mic.MIC — or nil when the measure must run per pair. It is the
// same gate New applies when auto-wiring Config.BatchAssoc.
func BatchFor(assoc invariant.AssociationFunc) BatchAssociation {
	if isStockMIC(assoc) {
		return MICBatch(mic.DefaultConfig())
	}
	return nil
}

// compute fills one window's association matrix uncached, through the
// batch scorer when configured. Preparation errors (too few samples,
// non-finite values) just drop the batch tier, so structural errors
// surface from the fill exactly as in the unbatched pipeline. Degraded
// windows score 0 on their unknown pairs; training reads the matrix only.
func (p *Profile) compute(rows [][]float64, valid [][]bool) (*invariant.Matrix, error) {
	cfg := &p.sys.cfg
	var scorer invariant.PairScorer
	if cfg.BatchAssoc != nil {
		if sc, err := cfg.BatchAssoc(rows); err == nil {
			scorer = sc
		}
	}
	mat, _, err := invariant.ComputeMatrix(rows, valid, cfg.Assoc, scorer)
	return mat, err
}

// analyze is compute behind the profile's cache, keyed by the fingerprint
// of the window's samples and validity mask. Training recomputes every
// pooled window per call; the cache turns those recomputations into
// lookups — for degraded windows too, which the pre-profile pipeline never
// cached.
func (p *Profile) analyze(tr *metrics.Trace) (*invariant.Matrix, error) {
	if p.cache == nil {
		return p.compute(tr.Rows, tr.Valid)
	}
	fp := fingerprintWindow(tr.Rows, tr.Valid)
	if e, ok := p.cache.get(fp); ok {
		return e.mat, nil
	}
	mat, err := p.compute(tr.Rows, tr.Valid)
	if err != nil {
		return nil, err
	}
	p.cache.put(fp, cacheEntry{mat: mat})
	return mat, nil
}

// CacheStats reports the profile's association-cache counters and current
// size. Zero-valued when caching is disabled.
func (p *Profile) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.stats()
}
