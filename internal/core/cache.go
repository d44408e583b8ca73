package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/query"
	"repro/internal/relevance"
)

// RunCache is the reuse layer of the incremental feedback loop: it
// caches per-predicate leaf distance vectors across Engine.RunCached
// calls and pools the evaluation buffers those runs write into.
//
// Entries are keyed by a structural signature of the leaf — table,
// attribute, operator, literals and distance function, but NOT the
// weighting factor — so a weight-only rerun (the section 5.2 slider
// interaction) recomputes nothing below the combination stage, and a
// single-slider range drag recomputes exactly the one leaf whose
// literals changed. Since the signature captures every input of the
// leaf computation (the catalog is immutable while an engine uses it),
// entries never go stale; invalidation (InvalidateCond, Prune, the LRU
// cap) exists to bound memory during slider storms, not for
// correctness.
//
// A RunCache is safe for the concurrent leaf builds within one run, but
// at most one RunCached call may use it at a time, and a Result
// produced with a RunCache is only valid until the next successful
// RunCached on the same cache (whose evaluation recycles the buffers).
// Sessions — one user, one interaction loop — are exactly that shape.
// All runs sharing a cache must use the same catalog and distance
// registry: the keys fingerprint table names and row counts, not cell
// contents or registered function identities.
//
// A RunCache may additionally be backed by a catalog-level SharedCache
// (AttachShared): lookups then fall through private → shared →
// recompute, and recomputed leaves fill the shared tier (singleflight
// across sessions) before being promoted into the private one. The
// private tier keeps serving a session even after shared-tier eviction
// or another session's invalidation — shared entries are immutable and
// only ever unlinked, never overwritten in place.
type RunCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	gen     uint64
	// shared is the optional catalog-level tier behind this cache.
	shared *SharedCache
	// Cumulative and per-run lookup accounting (tests and the
	// StageTimings attribution). Shared-tier hits count as hits and
	// additionally as sharedHits.
	hits, misses                      uint64
	runHits, runMisses, runSharedHits int
	// Per-run segment-pushdown accounting: storage segments whose decode
	// the footer stats skipped, out of the segments cold computes
	// considered (see predicateData.SegsSkipped). Zero on warm runs.
	runSegsSkipped, runSegs int
	// Buffer pools for the evaluation output vectors and the ranking's
	// index permutation. free holds reusable buffers; lent the ones
	// handed out since the current run began; live the ones belonging
	// to the last successful run's Result (recycled only once a newer
	// run SUCCEEDS, so a failed rerun never corrupts the Result a
	// session keeps serving on error).
	free, lent, live          [][]float64
	intFree, intLent, intLive [][]int
	// seedThr/seedSig carry the previous ranking's raw k-th value (the
	// rank-before-scale pruning threshold) across recalculations of the
	// same item space. Weight-only reruns reuse it as-is — a stale seed
	// can only cost a re-run of the selection, never correctness — but
	// query and range edits clear it (InvalidateCond, Prune, Clear):
	// the perturbed leaf makes the old raw domain meaningless as a
	// starting point.
	seedThr float64
	seedSig string
	// interior is the private tier of the interior-normalization cache:
	// cached raw combined vectors of interior query-tree nodes with
	// their quantile sketches (relevance.InteriorEntry), keyed by
	// runKeys.interior. Like leaf entries, interior keys embed every
	// input of the cached computation (the leaves' full cache keys, the
	// subtree shape, child weights, kernel options), so entries never go
	// stale; the invalidation paths drop them wholesale purely to bound
	// memory during slider storms.
	interior map[string]*interiorRef
}

// interiorRef is one privately held interior entry with its LRU stamp.
type interiorRef struct {
	e    *relevance.InteriorEntry
	used uint64
}

// maxCacheEntries bounds the cache so pathological interaction scripts
// (e.g. a slider sweep over hundreds of distinct ranges with
// auto-recalculate on) stay within a constant factor of the working
// set. 64 entries comfortably covers the paper's interfaces (a handful
// of predicates, each with its current and a few recent ranges).
const maxCacheEntries = 64

// maxInteriorEntries bounds the private interior tier. A query tree has
// only a handful of interior nodes (one per AND/OR level), so 16 covers
// the working set of an interaction loop with room for a few recent
// query shapes.
const maxInteriorEntries = 16

// cacheEntry is one cached leaf. Exactly one of pd (simple conditions)
// and dists (join, boolean-negation and subquery leaves) is set.
type cacheEntry struct {
	pd    *predicateData
	dists []float64
	// quant is the normalization-range index over the leaf's
	// distances, built with the entry: one O(n) scan plus a memo of the
	// ranges selected so far, so a rerun selects at most once per
	// reweighted leaf and the cold run's range is already memoized.
	quant *relevance.LeafQuantiles
	// cstats is the per-chunk min/NaN index, built on the entry's first
	// hit (a leaf that recurs across reruns is hot): it feeds the
	// block-pruning bounds of the rank-before-scale ranking, so warm
	// reruns can skip whole chunks of root combine work.
	cstats *relevance.LeafChunkStats
	// attr is the condition's attribute as written in the query (empty
	// for non-condition leaves) — the handle for per-condition
	// invalidation.
	attr string
	// label is the leaf's structural label — the handle Prune matches
	// against the conditions of a replacement query.
	label string
	// used is the generation of the last run that hit or stored the
	// entry (LRU eviction order).
	used uint64
}

// NewRunCache creates an empty cache.
func NewRunCache() *RunCache {
	return &RunCache{entries: make(map[string]*cacheEntry),
		interior: make(map[string]*interiorRef), seedThr: math.NaN()}
}

// rootSeed returns the previous ranking's raw threshold for the given
// item-space signature, or NaN when none is carried.
func (c *RunCache) rootSeed(sig string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seedSig != sig {
		return math.NaN()
	}
	return c.seedThr
}

// storeRootSeed records a ranking's raw threshold for the next
// recalculation (NaN clears it).
func (c *RunCache) storeRootSeed(sig string, thr float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seedThr, c.seedSig = thr, sig
}

// clearRootSeedLocked drops the carried threshold; called with the
// mutex held by every invalidation path.
func (c *RunCache) clearRootSeedLocked() {
	c.seedThr, c.seedSig = math.NaN(), ""
}

// AttachShared backs this private cache with a catalog-level shared
// tier. All caches attached to one SharedCache must run over the same
// catalog and distance registry. Attach before the first run.
func (c *RunCache) AttachShared(sc *SharedCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shared = sc
}

// beginRun starts a new run: per-run counters reset, and buffers
// handed out since the last run ended (lazy window materializations of
// the live Result) join the live set.
func (c *RunCache) beginRun() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.runHits, c.runMisses, c.runSharedHits = 0, 0, 0
	c.runSegsSkipped, c.runSegs = 0, 0
	c.live = append(c.live, c.lent...)
	c.lent = c.lent[:0]
	c.intLive = append(c.intLive, c.intLent...)
	c.intLent = c.intLent[:0]
}

// endRun finishes a run. On success the previous Result is superseded:
// its buffers return to the pool and this run's become the live set.
// On failure this run's (possibly partially written) buffers return to
// the pool and the live Result's stay untouched — a session that keeps
// serving its old Result after a failed Recalculate stays consistent.
// Steady state therefore retains two buffer generations (live plus
// free), the usual double-buffering cost.
func (c *RunCache) endRun(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.free = append(c.free, c.live...)
		c.live = append(c.live[:0], c.lent...)
		c.intFree = append(c.intFree, c.intLive...)
		c.intLive = append(c.intLive[:0], c.intLent...)
	} else {
		c.free = append(c.free, c.lent...)
		c.intFree = append(c.intFree, c.intLent...)
	}
	c.lent = c.lent[:0]
	c.intLent = c.intLent[:0]
}

// evictLocked drops least-recently-used entries beyond the cap; called
// with the mutex held after every store. Entries stored by the current
// run carry the current generation and therefore go last.
func (c *RunCache) evictLocked() {
	for len(c.entries) > maxCacheEntries {
		var oldestKey string
		var oldest uint64
		first := true
		for k, e := range c.entries {
			if first || e.used < oldest || (e.used == oldest && k < oldestKey) {
				oldestKey, oldest, first = k, e.used, false
			}
		}
		delete(c.entries, oldestKey)
	}
}

// runStats returns the current run's lookup counts. sharedHits is the
// subset of hits served by the shared tier (including waits on another
// session's in-flight fill).
func (c *RunCache) runStats() (hits, misses, sharedHits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runHits, c.runMisses, c.runSharedHits
}

// addSegStats folds one cold compute's segment-pushdown counts into the
// current run's attribution. Called from the condFetch compute closure,
// which may run on any goroutine (including another session's
// singleflight fill — the counts land on whichever run paid the cost).
func (c *RunCache) addSegStats(skipped, segs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runSegsSkipped += skipped
	c.runSegs += segs
}

// runSegStats returns the current run's segment-pushdown counts.
func (c *RunCache) runSegStats() (skipped, segs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runSegsSkipped, c.runSegs
}

// Stats returns the cumulative hit/miss counts.
func (c *RunCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached leaves.
func (c *RunCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// InteriorLen returns the number of privately held interior entries.
func (c *RunCache) InteriorLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.interior)
}

// leafIndexes bundles the per-leaf acceleration structures a fetch
// returns: the range index (memoized normalization ranges), built with
// the leaf, and the chunk stats (block-pruning bounds), built on its
// first reuse and promoted to the shared tier.
type leafIndexes struct {
	quant  *relevance.LeafQuantiles
	cstats *relevance.LeafChunkStats
}

// condFetch resolves a condition leaf through the tiers: private hit,
// then shared hit (promoted into the private tier), then compute (the
// result fills the shared tier singleflight when one is attached, then
// the private tier). needSigned misses entries computed without signed
// distances (a cache shared across arrangement modes never serves a 2D
// run a spiral-era vector).
func (c *RunCache) condFetch(key, attr, label string, needSigned bool, compute func() (*predicateData, error)) (*predicateData, leafIndexes, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.pd != nil && (!needSigned || e.pd.Signed != nil) {
		c.hits++
		c.runHits++
		e.used = c.gen
		pd, li := e.pd, leafIndexes{quant: e.quant, cstats: e.cstats}
		c.mu.Unlock()
		if li.cstats == nil {
			li.cstats = c.buildChunkStats(key, pd.Raw)
		}
		return pd, li, nil
	}
	shared := c.shared
	c.mu.Unlock()
	if shared == nil {
		pd, err := compute()
		if err != nil {
			return nil, leafIndexes{}, err
		}
		li := leafIndexes{quant: relevance.BuildLeafQuantiles(pd.Raw)}
		c.store(key, &cacheEntry{pd: pd, quant: li.quant, attr: attr, label: label}, false)
		return pd, li, nil
	}
	v, hit, err := shared.fetch(key, needSigned, func() (*sharedEntry, error) {
		pd, err := compute()
		if err != nil {
			return nil, err
		}
		return &sharedEntry{pd: pd, attr: attr, label: label}, nil
	})
	if err != nil {
		return nil, leafIndexes{}, err
	}
	li := leafIndexes{quant: v.quant, cstats: v.cstats}
	c.store(key, &cacheEntry{pd: v.pd, quant: li.quant, cstats: li.cstats, attr: attr, label: label}, hit)
	return v.pd, li, nil
}

// leafFetch is condFetch for non-condition leaf vectors (joins,
// boolean-negation fallbacks, subqueries). attr carries the owning
// condition's attribute when the leaf is a boolean-negation fallback of
// a simple condition (so range edits invalidate it too).
func (c *RunCache) leafFetch(key, attr, label string, compute func() ([]float64, error)) ([]float64, leafIndexes, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.dists != nil {
		c.hits++
		c.runHits++
		e.used = c.gen
		dists, li := e.dists, leafIndexes{quant: e.quant, cstats: e.cstats}
		c.mu.Unlock()
		if li.cstats == nil {
			li.cstats = c.buildChunkStats(key, dists)
		}
		return dists, li, nil
	}
	shared := c.shared
	c.mu.Unlock()
	if shared == nil {
		dists, err := compute()
		if err != nil {
			return nil, leafIndexes{}, err
		}
		li := leafIndexes{quant: relevance.BuildLeafQuantiles(dists)}
		c.store(key, &cacheEntry{dists: dists, quant: li.quant, attr: attr, label: label}, false)
		return dists, li, nil
	}
	v, hit, err := shared.fetch(key, false, func() (*sharedEntry, error) {
		dists, err := compute()
		if err != nil {
			return nil, err
		}
		return &sharedEntry{dists: dists, attr: attr, label: label}, nil
	})
	if err != nil {
		return nil, leafIndexes{}, err
	}
	li := leafIndexes{quant: v.quant, cstats: v.cstats}
	c.store(key, &cacheEntry{dists: v.dists, quant: li.quant, cstats: li.cstats, attr: attr, label: label}, hit)
	return v.dists, li, nil
}

// store records an entry in the private tier and attributes the lookup
// that produced it: sharedHit marks a vector served by the shared tier
// (a cache hit for the run), anything else was computed here (a miss).
func (c *RunCache) store(key string, e *cacheEntry, sharedHit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sharedHit {
		c.hits++
		c.runHits++
		c.runSharedHits++
	} else {
		c.misses++
		c.runMisses++
	}
	e.used = c.gen
	c.entries[key] = e
	c.evictLocked()
}

// buildChunkStats resolves a hot leaf's chunk stats: reuse the ones
// another session already promoted to the shared tier, else build them
// — one O(n) scan, run OUTSIDE the mutex so it does not serialize the
// sibling leaf builds that share the cache — and promote them. Two
// racing builders do redundant work; both results are identical and
// the canonical (first promoted) one wins.
func (c *RunCache) buildChunkStats(key string, dists []float64) *relevance.LeafChunkStats {
	c.mu.Lock()
	shared := c.shared
	c.mu.Unlock()
	var cs *relevance.LeafChunkStats
	if shared != nil {
		cs = shared.chunkStatsOf(key)
	}
	if cs == nil {
		cs = relevance.BuildLeafChunkStats(dists)
		if shared != nil {
			cs = shared.attachChunkStats(key, cs)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.cstats != nil {
			return e.cstats
		}
		e.cstats = cs
	}
	return cs
}

// interiorFetch resolves an interior-normalization entry through the
// tiers: private hit, then shared hit (promoted into the private tier),
// then nil (the evaluator recomputes and interiorStore fills both
// tiers). Entries are immutable and borrowed read-only by evaluations,
// so serving the same entry to any number of runs is safe.
func (c *RunCache) interiorFetch(key string) *relevance.InteriorEntry {
	c.mu.Lock()
	if r, ok := c.interior[key]; ok {
		r.used = c.gen
		e := r.e
		c.mu.Unlock()
		return e
	}
	shared := c.shared
	c.mu.Unlock()
	if shared == nil {
		return nil
	}
	e := shared.InteriorOf(key)
	if e != nil {
		c.storeInterior(key, e)
	}
	return e
}

// interiorStore records a freshly built interior entry: the shared tier
// first (whose first-promoted entry is canonical, so concurrent
// sessions converge on one resident copy), then the private tier.
func (c *RunCache) interiorStore(key string, e *relevance.InteriorEntry) {
	c.mu.Lock()
	shared := c.shared
	c.mu.Unlock()
	if shared != nil {
		e = shared.AttachInterior(key, e)
	}
	c.storeInterior(key, e)
}

// storeInterior places an entry in the private tier under the LRU cap.
func (c *RunCache) storeInterior(key string, e *relevance.InteriorEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.interior[key] = &interiorRef{e: e, used: c.gen}
	for len(c.interior) > maxInteriorEntries {
		var oldestKey string
		var oldest uint64
		first := true
		for k, r := range c.interior {
			if first || r.used < oldest || (r.used == oldest && k < oldestKey) {
				oldestKey, oldest, first = k, r.used, false
			}
		}
		delete(c.interior, oldestKey)
	}
}

// alloc hands out an n-sized evaluation buffer, reusing the pool when a
// matching length is free. Buffers are fully overwritten by the
// evaluator before any read, so no zeroing happens here.
func (c *RunCache) alloc(n int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.free) - 1; i >= 0; i-- {
		if len(c.free[i]) == n {
			b := c.free[i]
			c.free = append(c.free[:i], c.free[i+1:]...)
			c.lent = append(c.lent, b)
			return b
		}
	}
	b := make([]float64, n)
	c.lent = append(c.lent, b)
	return b
}

// allocInt is alloc for int slices (the ranking's index permutation).
func (c *RunCache) allocInt(n int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.intFree) - 1; i >= 0; i-- {
		if len(c.intFree[i]) == n {
			b := c.intFree[i]
			c.intFree = append(c.intFree[:i], c.intFree[i+1:]...)
			c.intLent = append(c.intLent, b)
			return b
		}
	}
	b := make([]int, n)
	c.intLent = append(c.intLent, b)
	return b
}

// InvalidateCond drops the entries derived from exactly this condition
// in its CURRENT form (matched structurally by attribute and label) —
// the session calls it right before a slider drag supersedes a range,
// so the storm of a continuous drag does not pile up one entry per
// intermediate position. Entries of other conditions that merely share
// the attribute (a second predicate on the same column, a same-named
// column of another table) are untouched: invalidation is memory
// management, and a drag must keep recomputing exactly one leaf.
//
// The invalidation propagates to the attached shared tier (the
// superseded range is dead weight there too); sessions still reading
// the old vectors are unaffected — entries are immutable and
// invalidation only unlinks them.
func (c *RunCache) InvalidateCond(cond *query.Cond) {
	if cond == nil {
		return
	}
	label := cond.Label()
	c.mu.Lock()
	c.clearRootSeedLocked()
	shared := c.shared
	for k, e := range c.entries {
		if e.attr != "" && e.attr == cond.Attr && e.label == label {
			delete(c.entries, k)
		}
	}
	// Interior entries combining the superseded leaf are dead weight
	// (their keys embed the old literals and can never be hit again);
	// the private tier is small, so dropping it wholesale beats parsing
	// leaf keys out of interior signatures. Subtrees not touching the
	// edit re-promote from the shared tier on the next run.
	c.clearInteriorLocked()
	c.mu.Unlock()
	if shared != nil {
		shared.InvalidateCond(cond)
	}
}

// Prune drops entries no longer reachable from q — the per-condition
// invalidation for whole-query replacement (SetQuery) and Undo.
// Condition entries survive when their attribute still appears in some
// condition of q (a restored query re-hits them); join and subquery
// entries survive by structural label. Prune is strictly private: one
// session abandoning a query says nothing about the other sessions
// sharing the catalog tier, whose leaves stay resident there under the
// LRU + byte budget.
func (c *RunCache) Prune(q *query.Query) {
	if q == nil {
		c.Clear()
		return
	}
	attrs := make(map[string]bool)
	labels := make(map[string]bool)
	query.Walk(q.Where, func(e query.Expr) {
		switch n := e.(type) {
		case *query.Cond:
			attrs[n.Attr] = true
		case *query.JoinExpr:
			labels[n.Label()] = true
		case *query.SubqueryExpr:
			labels[n.Label()] = true
		}
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearRootSeedLocked()
	for k, e := range c.entries {
		if e.attr != "" {
			if !attrs[e.attr] {
				delete(c.entries, k)
			}
			continue
		}
		if !labels[e.label] {
			delete(c.entries, k)
		}
	}
	// Interior entries are per query shape; a replacement query rebuilds
	// them (or re-promotes survivors from the shared tier).
	c.clearInteriorLocked()
}

// Clear drops every entry (the buffer pool is kept: buffer reuse is
// keyed only by vector length).
func (c *RunCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearRootSeedLocked()
	c.entries = make(map[string]*cacheEntry)
	c.clearInteriorLocked()
}

// clearInteriorLocked drops the private interior tier; called with the
// mutex held by every invalidation path.
func (c *RunCache) clearInteriorLocked() {
	c.interior = make(map[string]*interiorRef)
}

// spaceSig fingerprints the item space a leaf vector was computed over:
// table identities, row counts (and the cross-product cap), and the
// catalog's segment epoch — the content hash of a file-backed catalog,
// 0 for in-memory ones — so a catalog mutated between runs (rows
// appended to a table, a segment file regenerated with different data)
// can never serve stale vectors.
func (e *Engine) spaceSig(space *itemSpace) string {
	epoch := e.cat.Epoch()
	if space.pairs == nil {
		t := space.tables[0]
		return fmt.Sprintf("T:%s:%d:e%x", t.Name(), t.NumRows(), epoch)
	}
	lt, rt := space.tables[0], space.tables[1]
	return fmt.Sprintf("P:%s:%d:%s:%d:%d:e%x", lt.Name(), lt.NumRows(), rt.Name(), rt.NumRows(), e.opt.MaxPairs, epoch)
}
