package relevance

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// awkwardFloats returns a vector exercising every special value the
// bit-exact codec must preserve: NaN, ±Inf, signed zero, denormals, and
// ordinary values.
func awkwardFloats(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = math.NaN()
		case 1:
			v[i] = math.Inf(1)
		case 2:
			v[i] = math.Inf(-1)
		case 3:
			v[i] = math.Copysign(0, -1)
		case 4:
			v[i] = 5e-324 // smallest denormal
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)))
		}
	}
	return v
}

// eqBits compares float slices by IEEE bits (NaN == NaN, -0 != +0).
func eqBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %x != %x", what, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

func TestInteriorEntryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 4096, 10000} {
		raw := awkwardFloats(rng, n)
		nchunks := (n + evalChunk - 1) / evalChunk
		scans := make([]rangeScan, nchunks)
		total := newRangeScan()
		for ci := 0; ci < nchunks; ci++ {
			lo, hi := ci*evalChunk, (ci+1)*evalChunk
			if hi > n {
				hi = n
			}
			scans[ci] = scanRange(raw, lo, hi)
			total.merge(scans[ci])
		}
		e := newInteriorEntry(raw, scans, total)
		got, err := DecodeInteriorEntry(AppendInteriorEntry(nil, e))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		eqBits(t, "raw", e.raw, got.raw)
		if !reflect.DeepEqual(e.scans, got.scans) || e.total != got.total {
			t.Fatalf("n=%d: scans/total differ", n)
		}
		// The rebuilt sketch must answer Range bit-identically (and with
		// the same rescan attribution) for any keep.
		for _, keep := range []int{1, 16, n / 3, n} {
			a, ra := e.Range(keep)
			b, rb := got.Range(keep)
			if a != b || ra != rb {
				t.Fatalf("n=%d keep=%d: Range (%+v,%d) != (%+v,%d)", n, keep, a, ra, b, rb)
			}
		}
	}
}

func TestInteriorEntryDecodeRejectsCorrupt(t *testing.T) {
	raw := []float64{1, 2, 3}
	scans := []rangeScan{scanRange(raw, 0, 3)}
	total := scans[0]
	good := AppendInteriorEntry(nil, newInteriorEntry(raw, scans, total))
	if _, err := DecodeInteriorEntry(good[:len(good)-3]); err == nil {
		t.Fatalf("truncated envelope decoded")
	}
	if _, err := DecodeInteriorEntry(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatalf("padded envelope decoded")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := DecodeInteriorEntry(bad); err == nil {
		t.Fatalf("wrong version decoded")
	}
}
