package core

import (
	"errors"
	"fmt"

	"repro/internal/binenc"
	"repro/internal/dataset"
)

// SharedBackend is the pluggable remote tier behind a SharedCache: a
// network KV of immutable byte vectors under the same structural keys
// the local tiers use. Because every key embeds the full signature of
// the computation it names — table names, row counts, literals,
// options, and the catalog's content epoch — a value stored by one
// process is correct in every process serving the same data: there is
// no invalidation protocol, only immutable entries that age out of the
// remote store's budget.
//
// Both methods are best-effort and must never block correctness: Get
// answers ok=false on a network failure or a missing key (the caller
// computes locally), and Put is fire-and-forget from the cache's point
// of view. Implementations are responsible for their own timeouts; the
// cache calls them outside its mutex but on the fill path, so a slow
// backend degrades latency, not consistency.
type SharedBackend interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
}

// BreakerReporter is optionally implemented by a SharedBackend that
// guards its network calls with a circuit breaker (kv.Client does).
// State is "closed", "open", or "half-open"; trips counts closed→open
// transitions; shortCircuits counts calls answered instantly while
// open. SharedCache.Stats surfaces these so /v1/shards and /v1/fleet
// show a KV outage as an open breaker instead of a latency mystery.
type BreakerReporter interface {
	BreakerState() (state string, trips, shortCircuits uint64)
}

// AttachBackend plugs a remote tier behind the cache. Attach before
// serving traffic; entries computed earlier are simply never offered to
// the backend.
func (sc *SharedCache) AttachBackend(b SharedBackend) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.backend = b
}

// backendRef snapshots the attached backend.
func (sc *SharedCache) backendRef() SharedBackend {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.backend
}

// noteRemote bumps one remote-tier counter.
func (sc *SharedCache) noteRemote(c *uint64) {
	sc.mu.Lock()
	*c++
	sc.mu.Unlock()
}

// The shared-entry envelope: version, kind, the invalidation handles,
// then the payload. Only fully materialized entries are encodable —
// a predicateData carrying segment-pushdown state (skip != nil) holds
// lazily materialized Values backed by a local file reader, which has
// no meaning in another process; those leaves stay node-local and the
// remote tier simply never learns them.
const (
	sharedEntryVersion = 1

	sharedKindCond  = 1 // predicateData payload
	sharedKindDists = 2 // bare distance vector (join/boolean/subquery)
)

// errCorruptSharedEntry marks a remote value that is not a well-formed
// envelope (truncation reports binenc.ErrTruncated instead). Either way
// the caller counts a remote miss and computes locally.
var errCorruptSharedEntry = errors.New("core: corrupt shared entry")

// encodeSharedEntry serializes e for the remote tier, reporting ok =
// false for entries that must not leave the process. No leaf index is
// part of the envelope: the range index built with the entry and the
// chunk stats promoted on its first reuse are one O(n) scan of the
// vector each, which every node rebuilds rather than fetch, and the
// footer-synthesized chunk stats of a cold file-backed leaf
// (predicateData.CStats) exist only alongside its pushdown state.
func encodeSharedEntry(e *sharedEntry) ([]byte, bool) {
	if e.pd != nil && e.pd.skip != nil {
		return nil, false
	}
	b := make([]byte, 0, 64)
	b = append(b, sharedEntryVersion)
	if e.pd != nil {
		pd := e.pd
		b = append(b, sharedKindCond)
		b = binenc.Str(b, e.attr)
		b = binenc.Str(b, e.label)
		b = binenc.Str(b, pd.Attr.Table)
		b = binenc.Str(b, pd.Attr.Attr)
		b = binenc.U32(b, uint32(pd.Attr.Kind))
		var flags byte
		if pd.HasRange {
			flags |= 1
		}
		b = append(b, flags)
		b = binenc.F64(b, pd.MinDB)
		b = binenc.F64(b, pd.MaxDB)
		b = binenc.F64(b, pd.Lo)
		b = binenc.F64(b, pd.Hi)
		b = binenc.F64s(b, pd.Values)
		b = binenc.F64s(b, pd.Raw)
		b = binenc.F64s(b, pd.Signed)
		return b, true
	}
	b = append(b, sharedKindDists)
	b = binenc.Str(b, e.attr)
	b = binenc.Str(b, e.label)
	b = binenc.F64s(b, e.dists)
	return b, true
}

// decodeSharedEntry reverses encodeSharedEntry. The returned entry has
// no accounting fields set; the cache stamps bytes/used when admitting
// it. Every failure is binenc.ErrTruncated or errCorruptSharedEntry,
// and an accepted value re-encodes to exactly the input bytes.
func decodeSharedEntry(data []byte) (*sharedEntry, error) {
	r := binenc.NewReader(data)
	ver, kind := r.Byte(), r.Byte()
	e := &sharedEntry{}
	e.attr = r.Str()
	e.label = r.Str()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ver != sharedEntryVersion {
		return nil, fmt.Errorf("%w: codec version %d", errCorruptSharedEntry, ver)
	}
	switch kind {
	case sharedKindCond:
		pd := &predicateData{}
		pd.Attr.Table = r.Str()
		pd.Attr.Attr = r.Str()
		pd.Attr.Kind = dataset.Kind(r.U32())
		flags := r.Byte()
		if flags&^1 != 0 {
			return nil, fmt.Errorf("%w: flags %#x", errCorruptSharedEntry, flags)
		}
		pd.HasRange = flags&1 != 0
		pd.MinDB = r.F64()
		pd.MaxDB = r.F64()
		pd.Lo = r.F64()
		pd.Hi = r.F64()
		pd.Values = r.F64s()
		pd.Raw = r.F64s()
		pd.Signed = r.F64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(pd.Values) != len(pd.Raw) || (pd.Signed != nil && len(pd.Signed) != len(pd.Raw)) {
			return nil, fmt.Errorf("%w: vector lengths disagree", errCorruptSharedEntry)
		}
		e.pd = pd
	case sharedKindDists:
		e.dists = r.F64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: kind %d", errCorruptSharedEntry, kind)
	}
	if !r.Done() {
		return nil, binenc.ErrTruncated
	}
	return e, nil
}
