package main

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/relevance"
	"repro/internal/wire"
)

// opResult is what one operation reports back to the analyst loop:
// the engine's stage timings of the recalculation it ran (if any), the
// item count, for in-process opens the time query.Parse took, and
// for fleet operations the session ID.
type opResult struct {
	timings wire.Timings
	recalc  bool
	n       int
	parse   int64
	session string
}

// env is one stood-up instance of a workload's system under test.
type env interface {
	// open starts a session for the opening operation o.
	open(ctx context.Context, o op) (handle, opResult, error)
	// counters reads the per-layer state the environment holds at the
	// end of a phase (decoded-segment cache, shared tier, kv).
	counters(ctx context.Context) (envCounters, error)
	close() error
}

// handle is one open session.
type handle interface {
	step(ctx context.Context, o op) (opResult, error)
	// finish reads the session's final displayed ranking, digests it,
	// and closes the session.
	finish(ctx context.Context) (ranking, error)
}

// envCounters are the per-layer counters read from an environment at
// the end of a phase.
type envCounters struct {
	residentBytes int64
	shared        wire.SharedStats
	breakerTrips  uint64
	shortCircuits uint64
	kvStoreBytes  int64
	kv            kvCounters
}

// kvCounters describe the calls the members' shared tiers made into
// their kv backends, as timed by tracedBackend.
type kvCounters struct {
	gets, hits, puts uint64
	getNS, putNS     int64
	inBytes          int64
	outBytes         int64
}

// ranking is the digest of a session's final displayed ranking: every
// displayed item's index and the bits of its distance and relevance.
type ranking struct {
	n, displayed int
	digest       uint64
}

// digestRanking hashes a displayed ranking given its rows in rank
// order.
func digestRanking(n, displayed int, row func(rank int) (item int, dist, rel float64)) ranking {
	h := fnv.New64a()
	var buf [24]byte
	for rank := 0; rank < displayed; rank++ {
		item, d, rel := row(rank)
		binary.LittleEndian.PutUint64(buf[0:], uint64(item))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(d))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(rel))
		h.Write(buf[:])
	}
	return ranking{n: n, displayed: displayed, digest: h.Sum64()}
}

// resultRanking digests a session result the way the server renders
// its result rows.
func resultRanking(res *core.Result) ranking {
	return digestRanking(res.N, res.Displayed, func(rank int) (int, float64, float64) {
		d := res.DistanceOfRank(rank)
		return res.Order[rank], d, relevance.RelevanceFactor(d)
	})
}
