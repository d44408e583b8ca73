package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dataset"
	"repro/internal/query"
)

// FuzzDecodeSharedEntry: the kv tier hands decodeSharedEntry bytes from
// another process, so any input must either fail with a typed error
// (truncation or a corrupt envelope) or decode to an entry that
// re-encodes to exactly the input — no panic, and no value the decoder
// silently reinterprets.
func FuzzDecodeSharedEntry(f *testing.F) {
	// Small seeds keep the fuzzer's input minimization fast.
	raw := []float64{0, 1, math.NaN(), math.Copysign(0, -1), 5e-324, math.Inf(1), 2}
	seeds := []*sharedEntry{
		{pd: &predicateData{
			Attr:   query.BoundAttr{Table: "T", Attr: "x", Kind: dataset.KindInt},
			Values: raw, Raw: raw, Signed: raw,
			MinDB: -3, MaxDB: 9, HasRange: true, Lo: math.Inf(-1), Hi: 4.5,
		}, attr: "x", label: "x>6"},
		{pd: &predicateData{Attr: query.BoundAttr{Table: "T", Attr: "y"}, Values: []float64{1}, Raw: []float64{2}}, label: "y<5"},
		{dists: []float64{3, math.NaN(), 1}, label: "J:T-U"},
		{},
	}
	for _, e := range seeds {
		data, ok := encodeSharedEntry(e)
		if !ok {
			f.Fatal("seed entry refused")
		}
		f.Add(data)
	}
	f.Add([]byte{sharedEntryVersion, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeSharedEntry(data)
		if err != nil {
			if !errors.Is(err, binenc.ErrTruncated) && !errors.Is(err, errCorruptSharedEntry) {
				t.Fatalf("untyped decode error: %v", err)
			}
			if e != nil {
				t.Fatal("entry returned with an error")
			}
			return
		}
		again, ok := encodeSharedEntry(e)
		if !ok {
			t.Fatal("decoded entry refuses to encode")
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, again)
		}
	})
}
