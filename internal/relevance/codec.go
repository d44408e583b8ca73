package relevance

import (
	"fmt"

	"repro/internal/binenc"
)

// This file is the wire codec for InteriorEntry, the one index type of
// the package that travels, so a networked shared tier can move it
// between processes. (The leaf indexes, LeafQuantiles and
// LeafChunkStats, do not: each is one O(n) scan of a vector the
// receiver already holds, cheaper to rebuild than to fetch.) Two
// properties matter:
//
//   - Bit-exactness. Every float travels as its IEEE bits (binenc.F64),
//     so the decoded index answers Range/NormParams queries with the
//     same float64s the original produced — the fleet-wide bitwise-
//     identity guarantee rests on this.
//
//   - Derived state is rebuilt, not shipped. An InteriorEntry's
//     histogram sketch and memo are deterministic functions of the raw
//     vector and scans; re-deriving them locally keeps the envelope at
//     roughly the raw vector's size and makes it impossible for a
//     stale sketch to disagree with its vector.
//
// Each envelope starts with a one-byte version so formats can evolve
// independently of the KV layer, which sees only opaque bytes.

const interiorEntryVersion = 1

func appendRangeScan(b []byte, s rangeScan) []byte {
	b = binenc.U32(b, uint32(s.nFinite))
	b = binenc.U32(b, uint32(s.nNegInf))
	b = binenc.U32(b, uint32(s.nNaN))
	b = binenc.F64(b, s.minFinite)
	return binenc.F64(b, s.maxFinite)
}

func readRangeScan(r *binenc.Reader) rangeScan {
	var s rangeScan
	s.nFinite = r.Int()
	s.nNegInf = r.Int()
	s.nNaN = r.Int()
	s.minFinite = r.F64()
	s.maxFinite = r.F64()
	return s
}

// AppendInteriorEntry appends e's envelope to b: the raw combined
// vector and the per-chunk scans, from which the decoder rebuilds the
// sketch. Safe on live entries — all encoded fields are immutable
// after construction.
func AppendInteriorEntry(b []byte, e *InteriorEntry) []byte {
	b = append(b, interiorEntryVersion)
	b = binenc.F64s(b, e.raw)
	b = binenc.U32(b, uint32(len(e.scans)))
	for _, s := range e.scans {
		b = appendRangeScan(b, s)
	}
	return appendRangeScan(b, e.total)
}

// DecodeInteriorEntry decodes an envelope produced by
// AppendInteriorEntry and rebuilds the histogram sketch locally. The
// envelope must be the entire remaining input.
func DecodeInteriorEntry(data []byte) (*InteriorEntry, error) {
	r := binenc.NewReader(data)
	if ver := r.Byte(); ver != interiorEntryVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("relevance: interior-entry codec version %d", ver)
	}
	raw := r.F64s()
	n := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	want := (len(raw) + evalChunk - 1) / evalChunk
	if n != want {
		return nil, fmt.Errorf("relevance: interior entry has %d chunk scans for %d rows (want %d)", n, len(raw), want)
	}
	scans := make([]rangeScan, n)
	for i := range scans {
		scans[i] = readRangeScan(r)
	}
	total := readRangeScan(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, binenc.ErrTruncated
	}
	return buildInteriorEntry(raw, scans, total), nil
}
