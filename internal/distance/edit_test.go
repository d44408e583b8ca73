package distance

import (
	"math/rand"
	"strings"
	"testing"
)

// refEdit is the textbook full-matrix Levenshtein distance, the
// reference the bit-parallel and stack-row Edit kernels must match.
func refEdit(a, b string) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
		}
	}
	return d[len(a)][len(b)]
}

func checkEdit(t *testing.T, a, b string) {
	t.Helper()
	want := float64(refEdit(a, b))
	if got := Edit(a, b); got != want {
		t.Fatalf("Edit(%q, %q) = %v, want %v", a, b, got, want)
	}
	if got := Edit(b, a); got != want {
		t.Fatalf("Edit(%q, %q) = %v, want %v", b, a, got, want)
	}
}

// editSeedStrings covers the kernel boundaries: empty, one byte, the
// bit-parallel word edges (63, 64, 65), the stack-row DP range (200)
// and the heap-row DP beyond editStackRow, in ASCII and multi-byte
// UTF-8.
func editSeedStrings() []string {
	rng := rand.New(rand.NewSource(1994))
	gen := func(n int, alphabet string) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	var out []string
	for _, n := range []int{0, 1, 63, 64, 65, 200, editStackRow + 7} {
		out = append(out, gen(n, "ab"), gen(n, "abcdefghijklmnopqrstuvwxyz"))
	}
	out = append(out, strings.Repeat("é", 32), strings.Repeat("ü", 33), "Müller", "Mueller", "\x00\xff\x80")
	return out
}

func TestEditMatchesReference(t *testing.T) {
	seeds := editSeedStrings()
	for _, a := range seeds {
		for _, b := range seeds {
			checkEdit(t, a, b)
		}
	}
	// Random near-duplicates: the regime of misspelled names.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(80)
		a := make([]byte, n)
		for j := range a {
			a[j] = "abcd"[rng.Intn(4)]
		}
		b := append([]byte(nil), a...)
		for e := rng.Intn(4); e > 0 && len(b) > 0; e-- {
			k := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0:
				b[k] = 'x'
			case 1:
				b = append(b[:k], b[k+1:]...)
			default:
				b = append(b[:k], append([]byte{'y'}, b[k:]...)...)
			}
		}
		checkEdit(t, string(a), string(b))
	}
}

func TestEditAllocationFree(t *testing.T) {
	pairs := [][2]string{
		{"Hendrikson", "Hendriksen"},
		{strings.Repeat("a", 64), strings.Repeat("b", 300)},
		{strings.Repeat("ab", 100), strings.Repeat("ba", 120)},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(20, func() { Edit(p[0], p[1]) }); n != 0 {
			t.Errorf("Edit(len %d, len %d) allocates %v times", len(p[0]), len(p[1]), n)
		}
	}
}

// FuzzEdit differentially checks Edit against the full-matrix
// reference over arbitrary bytes, in both operand orders.
func FuzzEdit(f *testing.F) {
	seeds := editSeedStrings()
	for i, a := range seeds {
		f.Add(a, seeds[(i+3)%len(seeds)])
		f.Add(seeds[(i+3)%len(seeds)], a)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a)*len(b) > 1<<20 {
			t.Skip("reference matrix too large")
		}
		checkEdit(t, a, b)
	})
}

func BenchmarkEdit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Edit("Hendrikson", "Hendriksen")
	}
}
