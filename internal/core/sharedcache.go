package core

import (
	"strings"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/relevance"
)

// SharedCache is the catalog-level tier of the predicate cache: one
// instance per catalog, attached to every session exploring that
// catalog, so the expensive part of the feedback loop — leaf distance
// vectors and their range indexes — is computed once per catalog
// instead of once per session. It is the first piece of the multi-
// tenant serving architecture: N users dragging sliders over the same
// large database share every leaf whose structural signature matches.
//
// The design invariants, in order of importance:
//
//   - Entries are immutable. A vector is fully computed before it is
//     stored and never written afterwards, so any number of sessions
//     may read a cached vector concurrently without synchronization.
//
//   - Invalidation and eviction are copy-on-invalidate: they only
//     unlink an entry from the map. Sessions still holding the vector
//     (via their private RunCache tier or a live Result) keep reading
//     valid, unchanging data; the next fill allocates a fresh vector
//     instead of reusing the old one.
//
//   - Fills are singleflight: when N sessions miss on the same key at
//     once (the classic thundering herd of a shared dashboard), one
//     computes and the rest wait for its result.
//
//   - Memory is bounded by an entry cap and a byte budget, evicted in
//     least-recently-used order.
//
//   - Admission is cost-aware: only leaves whose measured compute time
//     reaches AdmitMinCost occupy the budget (edit-distance and join
//     leaves qualify; cheap numeric sweeps are recomputed instead of
//     churning the LRU). Rejected fills still serve their result to the
//     caller and to every singleflight waiter — admission decides
//     residency, never correctness.
//
// Correctness does not depend on invalidation: keys embed the full
// structural signature of the leaf computation including table names
// and row counts (see spaceSig), so an entry can never be served
// stale. All sessions sharing a cache must use the same catalog and
// distance registry — the keys fingerprint table identities, not cell
// contents or registered function implementations. Sessions may differ
// in every other option: leaf vectors are upstream of normalization
// and combination, and the leaf kinds that do depend on options
// (subquery leaves, signed-distance vectors) carry those options in
// their keys or satisfy lookups conditionally.
type SharedCache struct {
	mu       sync.Mutex
	entries  map[string]*sharedEntry
	inflight map[string]*sharedCall
	// clock orders accesses for LRU eviction.
	clock      uint64
	bytes      int64
	maxEntries int
	maxBytes   int64
	// admitMin is the minimum measured compute cost for residency;
	// <= 0 admits every computed leaf.
	admitMin time.Duration

	// interior is the shared tier of the interior-normalization cache
	// (relevance.InteriorEntry promoted from sessions' RunCaches). It
	// has its own byte budget and LRU so interior vectors — each as
	// large as a leaf vector plus its sketch — can never thrash the
	// leaf tier's budget, and vice versa.
	interior      map[string]*sharedInterior
	intBytes      int64
	maxIntEntries int
	maxIntBytes   int64

	// backend is the optional remote tier (a network KV shared across
	// the fleet); see SharedBackend in remote.go. All network calls
	// happen outside mu.
	backend SharedBackend

	hits, misses, fills, waits, rejects uint64
	intHits, intMisses                  uint64
	remoteHits, remoteMisses            uint64
	remotePuts                          uint64
}

// sharedInterior is one resident interior entry with its accounting.
type sharedInterior struct {
	e     *relevance.InteriorEntry
	bytes int64
	used  uint64
}

// Default bounds for NewSharedCache: sized for a serving tier (many
// sessions, many queries) rather than the 64-entry private tier of one
// interaction loop.
const (
	DefaultSharedEntries = 1024
	DefaultSharedBytes   = 256 << 20 // 256 MiB of cached vectors

	// DefaultAdmitMinCost is the admission threshold SharedOptions
	// selects when AdmitMinCost is zero: roughly the cost boundary
	// between a cheap numeric sweep (tens of microseconds to a few
	// hundred at interactive row counts) and the leaves worth sharing —
	// edit-distance predicates, join connections, subqueries.
	DefaultAdmitMinCost = time.Millisecond
)

// SharedOptions configures a shared tier. The zero value selects the
// defaults, including cost-aware admission at DefaultAdmitMinCost.
type SharedOptions struct {
	// MaxEntries and MaxBytes bound the resident set; zero or negative
	// values select DefaultSharedEntries / DefaultSharedBytes.
	MaxEntries int
	MaxBytes   int64
	// AdmitMinCost is the minimum measured compute time a leaf must
	// cost before it is admitted into the tier: zero selects
	// DefaultAdmitMinCost, negative admits every computed leaf (the
	// historical all-or-nothing behavior, also what NewSharedCache
	// selects). Whatever the policy decides, the computed vector is
	// still returned to the caller and to all singleflight waiters —
	// admission bounds budget churn, it never costs correctness.
	AdmitMinCost time.Duration
	// Backend plugs a remote tier (network KV) behind the cache: fills
	// admitted locally are offered to it, and misses consult it before
	// computing. Nil serves purely from this process.
	Backend SharedBackend
}

// NewSharedCacheOpts creates a shared tier from SharedOptions — the
// constructor serving tiers use, with cost-aware admission on by
// default.
func NewSharedCacheOpts(o SharedOptions) *SharedCache {
	sc := NewSharedCache(o.MaxEntries, o.MaxBytes)
	switch {
	case o.AdmitMinCost == 0:
		sc.admitMin = DefaultAdmitMinCost
	case o.AdmitMinCost > 0:
		sc.admitMin = o.AdmitMinCost
	}
	sc.backend = o.Backend
	return sc
}

// sharedEntry is one immutable cached leaf. Exactly one of pd and
// dists is set. quant, the leaf's range index, is built with the entry
// (computed or fetched) and memoizes the ranges every session asks of
// it; cstats is attached later, when some session first reuses the
// leaf (promotion of its chunk stats to the shared tier).
type sharedEntry struct {
	pd     *predicateData
	dists  []float64
	quant  *relevance.LeafQuantiles
	cstats *relevance.LeafChunkStats
	attr   string
	label  string
	bytes  int64
	used   uint64
}

// sharedView is a consistent snapshot of an entry's payload, taken
// under the cache mutex (the cstats field of the entry itself may be
// attached concurrently by another session).
type sharedView struct {
	pd     *predicateData
	dists  []float64
	quant  *relevance.LeafQuantiles
	cstats *relevance.LeafChunkStats
}

// sharedCall is one in-flight singleflight fill.
type sharedCall struct {
	done chan struct{}
	view sharedView
	ok   bool
	err  error
}

// NewSharedCache creates a shared tier with the given bounds; zero or
// negative values select the defaults. Caches built this way admit
// every computed leaf — the in-process default, where a handful of
// sessions share one interaction working set. Serving tiers exposed to
// adversarial traffic (slider sweeps over hundreds of distinct ranges)
// should use NewSharedCacheOpts, whose cost-aware admission keeps
// cheap leaves from churning the byte budget.
func NewSharedCache(maxEntries int, maxBytes int64) *SharedCache {
	if maxEntries <= 0 {
		maxEntries = DefaultSharedEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultSharedBytes
	}
	return &SharedCache{
		entries:    make(map[string]*sharedEntry),
		inflight:   make(map[string]*sharedCall),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		interior:   make(map[string]*sharedInterior),
		// The interior tier rides along at a quarter of the leaf
		// bounds: interior entries are derived data (always rebuildable
		// from the leaves in one pass), so they never crowd out the
		// vectors they are derived from.
		maxIntEntries: maxEntries/4 + 1,
		maxIntBytes:   maxBytes / 4,
	}
}

// SharedStats is a point-in-time snapshot of the shared tier.
type SharedStats struct {
	// Hits counts lookups served from the cache, including waiters
	// that got their vector from another session's in-flight fill.
	Hits uint64
	// Misses counts lookups that had to compute (singleflight
	// leaders).
	Misses uint64
	// Fills counts successful stores (misses whose computation
	// succeeded, plus needSigned upgrades that replaced an entry).
	Fills uint64
	// Waits counts lookups that blocked on another session's fill
	// instead of computing redundantly.
	Waits uint64
	// Rejects counts computed fills the admission policy kept out of
	// the resident set (compute cost below AdmitMinCost); their results
	// were still served to the caller and any waiters.
	Rejects uint64
	// Entries and Bytes describe the current resident set.
	Entries int
	Bytes   int64
	// InteriorHits/InteriorMisses count lookups against the shared
	// interior-normalization tier; InteriorEntries and InteriorBytes
	// describe its resident set (budgeted separately from the leaves).
	InteriorHits, InteriorMisses uint64
	InteriorEntries              int
	InteriorBytes                int64
	// RemoteHits/RemoteMisses/RemotePuts count traffic against the
	// attached remote backend (leaf entries, promoted indexes, and
	// interior entries combined); all zero when no backend is attached.
	// A RemoteHit is work some other node already paid for.
	RemoteHits, RemoteMisses, RemotePuts uint64
	// RemoteBreaker/RemoteTrips/RemoteShortCircuits report the remote
	// backend's circuit breaker when the backend implements
	// BreakerReporter (empty/zero otherwise): the current state
	// ("closed", "open", "half-open"), cumulative closed→open trips,
	// and requests answered instantly while open instead of paying a
	// network timeout.
	RemoteBreaker                    string
	RemoteTrips, RemoteShortCircuits uint64
}

// Stats returns cumulative counters and the current size.
func (sc *SharedCache) Stats() SharedStats {
	sc.mu.Lock()
	st := SharedStats{
		Hits: sc.hits, Misses: sc.misses, Fills: sc.fills, Waits: sc.waits,
		Rejects: sc.rejects,
		Entries: len(sc.entries), Bytes: sc.bytes,
		InteriorHits: sc.intHits, InteriorMisses: sc.intMisses,
		InteriorEntries: len(sc.interior), InteriorBytes: sc.intBytes,
		RemoteHits: sc.remoteHits, RemoteMisses: sc.remoteMisses,
		RemotePuts: sc.remotePuts,
	}
	backend := sc.backend
	sc.mu.Unlock()
	// The breaker snapshot takes the backend's own lock — outside ours,
	// so a slow reporter can never stall fills.
	if br, ok := backend.(BreakerReporter); ok {
		st.RemoteBreaker, st.RemoteTrips, st.RemoteShortCircuits = br.BreakerState()
	}
	return st
}

// Len returns the number of resident entries.
func (sc *SharedCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.entries)
}

// Bytes returns the resident vector bytes.
func (sc *SharedCache) Bytes() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.bytes
}

// satisfies reports whether the entry can serve a lookup that needs
// signed distances (only condition entries carry them; needSigned is
// set by 2D-arrangement engines).
func (e *sharedEntry) satisfies(needSigned bool) bool {
	return e.pd == nil || !needSigned || e.pd.Signed != nil
}

// sizeBytes accounts the entry's retained vectors.
func (e *sharedEntry) sizeBytes() int64 {
	n := len(e.dists)
	if e.pd != nil {
		n += len(e.pd.Values) + len(e.pd.Raw) + len(e.pd.Signed)
	}
	if e.quant != nil {
		n += e.quant.Size()
	}
	if e.cstats != nil {
		n += e.cstats.Size()
	}
	return int64(8 * n)
}

// view snapshots the payload; call with the mutex held.
func (e *sharedEntry) viewLocked() sharedView {
	return sharedView{pd: e.pd, dists: e.dists, quant: e.quant, cstats: e.cstats}
}

// fetch returns the entry for key, computing it at most once across
// concurrent callers. hit reports whether the view was served without
// running compute in this call (a resident entry, or another caller's
// fill we waited on). compute runs without any cache lock held, so
// fills for different keys proceed concurrently and a fill may
// recursively fetch other keys.
func (sc *SharedCache) fetch(key string, needSigned bool, compute func() (*sharedEntry, error)) (view sharedView, hit bool, err error) {
	sc.mu.Lock()
	for {
		if e, ok := sc.entries[key]; ok && e.satisfies(needSigned) {
			sc.clock++
			e.used = sc.clock
			sc.hits++
			v := e.viewLocked()
			sc.mu.Unlock()
			return v, true, nil
		}
		call, ok := sc.inflight[key]
		if !ok {
			break // no resident entry, no fill in flight: we lead
		}
		sc.waits++
		sc.mu.Unlock()
		<-call.done
		if call.err != nil {
			// The leader's computation failed; ours would too (same
			// key, same deterministic computation over the same
			// catalog).
			return sharedView{}, false, call.err
		}
		if call.ok && (call.view.pd == nil || !needSigned || call.view.pd.Signed != nil) {
			sc.mu.Lock()
			sc.hits++
			sc.mu.Unlock()
			return call.view, true, nil
		}
		// The finished fill does not satisfy us (e.g. it lacks signed
		// distances and we need them): loop and try to lead an
		// upgrading fill ourselves.
		sc.mu.Lock()
	}
	sc.misses++
	call := &sharedCall{done: make(chan struct{})}
	sc.inflight[key] = call
	backend := sc.backend
	sc.mu.Unlock()

	// Leader path: consult the remote tier before computing — a node
	// elsewhere in the fleet may already have paid for this leaf. Only
	// the singleflight leader asks, so a thundering herd costs one
	// network round trip, and a decode failure (version skew, truncated
	// value) degrades to a local compute.
	var e *sharedEntry
	remote := false
	if backend != nil {
		if data, ok := backend.Get(key); ok {
			if d, derr := decodeSharedEntry(data); derr == nil && d.satisfies(needSigned) {
				e, remote = d, true
			}
		}
	}
	var cost time.Duration
	if e == nil {
		t0 := time.Now()
		e, err = compute()
		cost = time.Since(t0)
	}
	if err == nil {
		// The range index is built with the leaf, outside the lock, so
		// the leader's run and every waiter share one memo.
		vec := e.dists
		if e.pd != nil {
			vec = e.pd.Raw
		}
		e.quant = relevance.BuildLeafQuantiles(vec)
	}

	sc.mu.Lock()
	if backend != nil {
		if remote {
			sc.remoteHits++
		} else {
			sc.remoteMisses++
		}
	}
	delete(sc.inflight, key)
	stored := false
	if err == nil {
		// Cost-aware admission: a leaf cheaper than the threshold is
		// served but not stored — recomputing it is cheaper than the
		// budget churn of keeping it resident. A fill that replaces an
		// existing entry (the needSigned upgrade) is always admitted:
		// the superseded entry's budget is reclaimed either way, and
		// dropping it would downgrade later 2D lookups to permanent
		// misses. Remote-served entries are always admitted: the fleet
		// already judged them worth sharing.
		_, replaces := sc.entries[key]
		if !remote && sc.admitMin > 0 && cost < sc.admitMin && !replaces {
			sc.rejects++
		} else {
			sc.clock++
			e.used = sc.clock
			e.bytes = e.sizeBytes()
			if old, ok := sc.entries[key]; ok {
				sc.bytes -= old.bytes
			}
			sc.entries[key] = e
			sc.bytes += e.bytes
			sc.fills++
			sc.evictLocked()
			stored = true
		}
		call.view, call.ok = e.viewLocked(), true
		view = call.view
	}
	call.err = err
	sc.mu.Unlock()
	close(call.done)
	// Offer locally computed, admitted fills to the fleet. The encode
	// reads only immutable fields and the Put happens after waiters are
	// released, so a slow backend never extends the singleflight.
	if stored && !remote && backend != nil {
		if data, ok := encodeSharedEntry(e); ok {
			backend.Put(key, data)
			sc.noteRemote(&sc.remotePuts)
		}
	}
	return view, remote, err
}

// chunkStatsOf returns the promoted chunk stats for key, if any
// session has built them.
func (sc *SharedCache) chunkStatsOf(key string) *relevance.LeafChunkStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if e, ok := sc.entries[key]; ok {
		return e.cstats
	}
	return nil
}

// attachChunkStats promotes freshly built chunk stats to the shared
// tier and returns the canonical ones: if another session's build won
// the race, its stats are returned (both are identical — the builds
// are deterministic — so either could win; keeping the first keeps one
// copy resident). The entry's byte accounting grows by the stats.
// Promotion is local only: rebuilding them from the vector is cheaper
// than a kv round trip.
func (sc *SharedCache) attachChunkStats(key string, cs *relevance.LeafChunkStats) *relevance.LeafChunkStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	e, ok := sc.entries[key]
	if !ok {
		return cs
	}
	if e.cstats != nil {
		return e.cstats
	}
	e.cstats = cs
	grown := e.sizeBytes()
	sc.bytes += grown - e.bytes
	e.bytes = grown
	sc.evictLocked()
	return cs
}

// InteriorOf returns the resident interior-normalization entry for
// key, or nil. Entries are immutable; any number of sessions may read
// one concurrently.
func (sc *SharedCache) InteriorOf(key string) *relevance.InteriorEntry {
	sc.mu.Lock()
	if r, ok := sc.interior[key]; ok {
		sc.clock++
		r.used = sc.clock
		sc.intHits++
		e := r.e
		sc.mu.Unlock()
		return e
	}
	sc.intMisses++
	backend := sc.backend
	sc.mu.Unlock()
	if backend == nil {
		return nil
	}
	// Interior keys embed the leaves' full cache keys plus every kernel
	// option, so a fleet-mate's entry is exactly the one this node would
	// build; the histogram sketch is re-derived locally by the decoder.
	data, ok := backend.Get(key)
	if !ok {
		sc.noteRemote(&sc.remoteMisses)
		return nil
	}
	e, err := relevance.DecodeInteriorEntry(data)
	if err != nil {
		sc.noteRemote(&sc.remoteMisses)
		return nil
	}
	sc.noteRemote(&sc.remoteHits)
	return sc.attachInteriorLocal(key, e)
}

// AttachInterior promotes a freshly built interior entry to the shared
// tier and returns the canonical one: if another session's build won
// the race, its entry is returned (both are bit-identical — the fused
// pass is deterministic — so either could win; keeping the first keeps
// one copy resident and its Range memo shared).
func (sc *SharedCache) AttachInterior(key string, e *relevance.InteriorEntry) *relevance.InteriorEntry {
	canon := sc.attachInteriorLocal(key, e)
	if canon != e {
		return canon
	}
	// This build won the local race; offer it to the fleet too (a
	// remote-decoded entry goes through attachInteriorLocal directly and
	// is never re-offered).
	if backend := sc.backendRef(); backend != nil {
		backend.Put(key, relevance.AppendInteriorEntry(nil, canon))
		sc.noteRemote(&sc.remotePuts)
	}
	return canon
}

// attachInteriorLocal is AttachInterior without the remote offer: the
// local store under the interior tier's cap and budget, first promotion
// canonical.
func (sc *SharedCache) attachInteriorLocal(key string, e *relevance.InteriorEntry) *relevance.InteriorEntry {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if r, ok := sc.interior[key]; ok {
		sc.clock++
		r.used = sc.clock
		return r.e
	}
	sc.clock++
	r := &sharedInterior{e: e, bytes: int64(e.Size()), used: sc.clock}
	sc.interior[key] = r
	sc.intBytes += r.bytes
	sc.evictInteriorLocked()
	return e
}

// evictInteriorLocked is evictLocked for the interior tier's separate
// cap and byte budget.
func (sc *SharedCache) evictInteriorLocked() {
	for len(sc.interior) > sc.maxIntEntries || sc.intBytes > sc.maxIntBytes {
		if len(sc.interior) == 0 {
			return
		}
		var oldestKey string
		var oldest uint64
		first := true
		for k, r := range sc.interior {
			if first || r.used < oldest || (r.used == oldest && k < oldestKey) {
				oldestKey, oldest, first = k, r.used, false
			}
		}
		sc.intBytes -= sc.interior[oldestKey].bytes
		delete(sc.interior, oldestKey)
	}
}

// evictLocked drops least-recently-used entries until both the entry
// cap and the byte budget hold; called with the mutex held after every
// store. Ties break by key so eviction order is deterministic.
// Evicting an entry other sessions still read is safe: entries are
// immutable and eviction only unlinks them (copy-on-invalidate).
func (sc *SharedCache) evictLocked() {
	for len(sc.entries) > sc.maxEntries || sc.bytes > sc.maxBytes {
		if len(sc.entries) == 0 {
			return
		}
		var oldestKey string
		var oldest uint64
		first := true
		for k, e := range sc.entries {
			if first || e.used < oldest || (e.used == oldest && k < oldestKey) {
				oldestKey, oldest, first = k, e.used, false
			}
		}
		sc.bytes -= sc.entries[oldestKey].bytes
		delete(sc.entries, oldestKey)
	}
}

// InvalidateCond drops the shared entries derived from exactly this
// condition in its current form — the propagation of a session's
// range edit (see RunCache.InvalidateCond). This is memory
// management, not correctness: the superseded range's vectors would
// never be served for the new range (the key embeds the literals), and
// sessions still sitting at the old range keep their private-tier
// copies. Old readers are unaffected — the vectors themselves are
// immutable and only the map entry is unlinked.
func (sc *SharedCache) InvalidateCond(cond *query.Cond) {
	if cond == nil {
		return
	}
	label := cond.Label()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for k, e := range sc.entries {
		if e.attr != "" && e.attr == cond.Attr && e.label == label {
			sc.bytes -= e.bytes
			delete(sc.entries, k)
		}
	}
	// Interior keys embed their leaves' full cache keys, so an entry
	// combining the superseded leaf contains its label verbatim. The
	// containment check can over-drop (a literal string collision), but
	// invalidation is memory management — over-dropping costs a rebuild,
	// never correctness.
	for k, r := range sc.interior {
		if strings.Contains(k, label) {
			sc.intBytes -= r.bytes
			delete(sc.interior, k)
		}
	}
}

// Clear drops every entry. In-flight fills complete and store their
// results afterwards (their vectors are valid regardless).
func (sc *SharedCache) Clear() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.entries = make(map[string]*sharedEntry)
	sc.bytes = 0
	sc.interior = make(map[string]*sharedInterior)
	sc.intBytes = 0
}
