package binenc

import (
	"errors"
	"math"
	"testing"
)

// awkward holds the float64s a bit-exact codec must keep: NaNs with
// distinct payloads (quiet and signalling), signed zeros, infinities,
// denormals and the extremes.
var awkward = []float64{
	math.Float64frombits(0x7ff8000000000123), // quiet NaN, payload 0x123
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8000000000000), // negative NaN
	math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	1.5,
}

// envelope is one value of every helper, appended in a fixed order.
type envelope struct {
	b   byte
	u64 uint64
	u32 uint32
	f64 float64
	str string
	fs  []float64
	is  []int32
}

func (e envelope) append(b []byte) []byte {
	b = append(b, e.b)
	b = U64(b, e.u64)
	b = U32(b, e.u32)
	b = F64(b, e.f64)
	b = Str(b, e.str)
	b = F64s(b, e.fs)
	return I32s(b, e.is)
}

func readEnvelope(r *Reader) envelope {
	var e envelope
	e.b = r.Byte()
	e.u64 = r.U64()
	e.u32 = r.U32()
	e.f64 = r.F64()
	e.str = r.Str()
	e.fs = r.F64s()
	e.is = r.I32s()
	return e
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func testEnvelopes() []envelope {
	return []envelope{
		{},
		{b: 0xff, u64: math.MaxUint64, u32: math.MaxUint32, f64: math.Copysign(0, -1),
			str: "naïve\x00end", fs: awkward, is: []int32{0, -1, math.MinInt32, math.MaxInt32}},
		{b: 7, u64: 1 << 63, u32: 1, f64: awkward[0], str: "x", fs: []float64{awkward[1]}, is: []int32{-7}},
	}
}

// TestRoundTripEveryHelper: every helper's output reads back exactly —
// floats by their IEEE bits, so NaN payloads and -0 survive — and a
// nil or empty vector reads back as nil.
func TestRoundTripEveryHelper(t *testing.T) {
	for i, want := range testEnvelopes() {
		r := NewReader(want.append(nil))
		got := readEnvelope(r)
		if err := r.Err(); err != nil || !r.Done() {
			t.Fatalf("envelope %d: err %v, done %v", i, err, r.Done())
		}
		if got.b != want.b || got.u64 != want.u64 || got.u32 != want.u32 || got.str != want.str {
			t.Fatalf("envelope %d: scalars %+v, want %+v", i, got, want)
		}
		if math.Float64bits(got.f64) != math.Float64bits(want.f64) {
			t.Fatalf("envelope %d: F64 bits %x, want %x", i, math.Float64bits(got.f64), math.Float64bits(want.f64))
		}
		if !sameBits(got.fs, want.fs) {
			t.Fatalf("envelope %d: F64s %v, want %v", i, got.fs, want.fs)
		}
		if len(got.is) != len(want.is) {
			t.Fatalf("envelope %d: I32s %v, want %v", i, got.is, want.is)
		}
		for j := range want.is {
			if got.is[j] != want.is[j] {
				t.Fatalf("envelope %d: I32s %v, want %v", i, got.is, want.is)
			}
		}
		if len(want.fs) == 0 && got.fs != nil || len(want.is) == 0 && got.is != nil {
			t.Fatalf("envelope %d: empty vector read back non-nil", i)
		}
	}
	// Int is U32 widened.
	if got := NewReader(U32(nil, 1<<30)).Int(); got != 1<<30 {
		t.Fatalf("Int: %d", got)
	}
	// An empty (non-nil) vector encodes like nil.
	if string(F64s(nil, []float64{})) != string(F64s(nil, nil)) || string(I32s(nil, []int32{})) != string(I32s(nil, nil)) {
		t.Fatal("empty and nil vectors encode differently")
	}
}

// TestTruncationAtEveryPrefix: reading a whole envelope from any proper
// prefix of its encoding fails with ErrTruncated, never panics, and
// latches: every read after the failure returns the zero value.
func TestTruncationAtEveryPrefix(t *testing.T) {
	for i, e := range testEnvelopes() {
		full := e.append(nil)
		for n := 0; n < len(full); n++ {
			r := NewReader(full[:n:n])
			readEnvelope(r)
			if !errors.Is(r.Err(), ErrTruncated) {
				t.Fatalf("envelope %d prefix %d/%d: err %v", i, n, len(full), r.Err())
			}
			if r.Done() {
				t.Fatalf("envelope %d prefix %d: Done after an error", i, n)
			}
			if r.Byte() != 0 || r.U64() != 0 || r.Str() != "" || r.F64s() != nil || r.I32s() != nil {
				t.Fatalf("envelope %d prefix %d: read after the error returned data", i, n)
			}
		}
		// Trailing bytes are the caller's to reject: the read succeeds
		// but Done reports them.
		r := NewReader(append(full, 0))
		readEnvelope(r)
		if r.Err() != nil || r.Done() {
			t.Fatalf("envelope %d with a trailing byte: err %v, done %v", i, r.Err(), r.Done())
		}
	}
}

// TestHugeCountRejectedWithoutAllocating: a count prefix of 0xFFFFFFFF
// with only a few bytes behind it is refused with ErrTruncated before
// anything is allocated for it.
func TestHugeCountRejectedWithoutAllocating(t *testing.T) {
	buf := append(U32(nil, math.MaxUint32), 1, 2, 3, 4, 5, 6, 7, 8)
	reads := map[string]func(r *Reader) bool{
		"F64s": func(r *Reader) bool { return r.F64s() == nil },
		"I32s": func(r *Reader) bool { return r.I32s() == nil },
		"Str":  func(r *Reader) bool { return r.Str() == "" },
	}
	for name, read := range reads {
		r := NewReader(buf)
		if !read(r) || !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("%s: huge count accepted (err %v)", name, r.Err())
		}
		allocs := testing.AllocsPerRun(100, func() {
			*r = Reader{b: buf}
			read(r)
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations rejecting a huge count", name, allocs)
		}
	}
}
