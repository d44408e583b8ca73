package relevance

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/topk"
)

// evaluateReference is the straightforward node-at-a-time pipeline the
// fused evaluator replaced: normalize each leaf, combine children,
// re-normalize every combined vector — one full vector pass (and one
// n-sized allocation) per step. It is kept here as the semantic
// reference the fused implementation must match bit for bit.
func evaluateReference(root *Node, n int, opts EvalOptions) (*Result, error) {
	if root == nil {
		return nil, fmt.Errorf("relevance: nil tree")
	}
	res := &Result{ByNode: make(map[*Node][]float64)}
	var eval func(node *Node) ([]float64, error)
	eval = func(node *Node) ([]float64, error) {
		switch node.Op {
		case Leaf:
			if len(node.Dists) != n {
				return nil, fmt.Errorf("relevance: leaf %q has %d distances, want %d", node.Label, len(node.Dists), n)
			}
			keep := 0
			if !opts.NaiveNormalize {
				keep = KeepCount(opts.Budget, n, node.EffWeight())
			}
			norm := Normalize(node.Dists, keep)
			res.ByNode[node] = norm.Scaled
			return norm.Scaled, nil
		case NodeAnd, NodeOr:
			if len(node.Children) == 0 {
				return nil, fmt.Errorf("relevance: %q has no children", node.Label)
			}
			dists := make([][]float64, len(node.Children))
			weights := make([]float64, len(node.Children))
			for i, child := range node.Children {
				d, err := eval(child)
				if err != nil {
					return nil, err
				}
				dists[i] = d
				weights[i] = child.EffWeight()
			}
			var combined []float64
			var err error
			if node.Op == NodeAnd {
				switch opts.And {
				case ANDEuclidean:
					combined, err = CombineEuclidean(dists, weights)
				case ANDLp:
					combined, err = CombineLp(dists, weights, opts.LpP)
				default:
					combined, err = CombineAnd(dists, weights, opts.Mode)
				}
			} else {
				combined, err = CombineOr(dists, weights, opts.Mode)
			}
			if err != nil {
				return nil, err
			}
			keep := 0
			if !opts.NaiveNormalize {
				keep = KeepCount(opts.Budget, n, node.EffWeight())
			}
			norm := Normalize(combined, keep)
			res.ByNode[node] = norm.Scaled
			return norm.Scaled, nil
		default:
			return nil, fmt.Errorf("relevance: unknown node op %d", node.Op)
		}
	}
	combined, err := eval(root)
	if err != nil {
		return nil, err
	}
	res.Combined = combined
	return res, nil
}

// sameVec compares vectors bit-for-bit, treating NaN as equal to NaN.
func sameVec(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) &&
			!(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("%s: item %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestFusedMatchesReference: the chunk-fused evaluator must be
// bit-identical to the node-at-a-time reference pipeline across random
// trees and every option combination — combine modes, AND combiners,
// naive and reduction-first normalization.
func TestFusedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	optVariants := []EvalOptions{
		{},
		{Mode: PaperRaw},
		{NaiveNormalize: true},
		{And: ANDEuclidean},
		{And: ANDLp, LpP: 2},
		{And: ANDLp, LpP: 3.5},
	}
	for trial := 0; trial < 40; trial++ {
		// Cross the evalChunk boundary regularly so the chunked passes
		// and the per-chunk range-scan merge are both exercised.
		n := 50 + rng.Intn(2*evalChunk)
		tree := buildRandomTree(rng, n, 3)
		opts := optVariants[trial%len(optVariants)]
		opts.Budget = n / (1 + rng.Intn(4))
		ref, err := evaluateReference(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, "combined", ref.Combined, got.Combined)
		if len(ref.ByNode) != len(got.ByNode) {
			t.Fatalf("ByNode sizes: %d vs %d", len(ref.ByNode), len(got.ByNode))
		}
		for node, rv := range ref.ByNode {
			gv, ok := got.ByNode[node]
			if !ok {
				t.Fatal("missing node in fused ByNode")
			}
			sameVec(t, "node "+node.Label, rv, gv)
		}
	}
}

// TestFusedErrorsMatchReference: validation failures surface with the
// reference pipeline's messages.
func TestFusedErrorsMatchReference(t *testing.T) {
	cases := []struct {
		name string
		root *Node
		opts EvalOptions
		want string
	}{
		{"leaf length", &Node{Op: NodeAnd, Children: []*Node{
			{Op: Leaf, Dists: make([]float64, 10)},
			{Op: Leaf, Label: "short", Dists: make([]float64, 3)},
		}}, EvalOptions{}, "has 3 distances"},
		{"no children", &Node{Op: NodeOr, Label: "empty"}, EvalOptions{}, "no children"},
		{"bad op", &Node{Op: NodeOp(42)}, EvalOptions{}, "unknown node op"},
		{"bad Lp", &Node{Op: NodeAnd, Children: []*Node{
			{Op: Leaf, Dists: make([]float64, 10)},
			{Op: Leaf, Dists: make([]float64, 10)},
		}}, EvalOptions{And: ANDLp, LpP: 0.5}, "Lp needs p >= 1"},
		{"bad weight", &Node{Op: NodeAnd, Children: []*Node{
			{Op: Leaf, Dists: make([]float64, 10), Weight: -2},
			{Op: Leaf, Dists: make([]float64, 10)},
		}}, EvalOptions{}, "invalid weight"},
	}
	for _, tc := range cases {
		refErr := func() string {
			_, err := evaluateReference(tc.root, 10, tc.opts)
			if err == nil {
				return ""
			}
			return err.Error()
		}()
		_, err := Evaluate(tc.root, 10, tc.opts)
		if err == nil {
			t.Fatalf("%s: fused evaluator accepted invalid input", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q missing %q", tc.name, err, tc.want)
		}
		if refErr != "" && err.Error() != refErr {
			t.Fatalf("%s: fused error %q, reference %q", tc.name, err, refErr)
		}
	}
}

// TestEvaluateAllocHook: a caller-provided allocator supplies every
// per-node output buffer, and dirty recycled buffers are harmless
// because the evaluator overwrites them in full.
func TestEvaluateAllocHook(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	tree := buildRandomTree(rng, n, 3)
	want, err := Evaluate(tree, n, EvalOptions{Budget: n / 2})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	handed := make(map[*float64]bool)
	alloc := func(sz int) []float64 {
		calls++
		b := make([]float64, sz)
		for i := range b {
			b[i] = math.NaN() // poison: must be fully overwritten
		}
		handed[&b[0]] = true
		return b
	}
	got, err := Evaluate(tree, n, EvalOptions{Budget: n / 2, Alloc: alloc})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("allocator never called")
	}
	sameVec(t, "combined", want.Combined, got.Combined)
	// Every materialized output vector must be an allocator buffer.
	for node, vec := range got.ByNode {
		if !handed[&vec[0]] {
			t.Fatalf("node %q vector bypassed the allocator", node.Label)
		}
	}
	// A misbehaving allocator (wrong size, nil) falls back to make.
	bad := func(sz int) []float64 { return make([]float64, sz-1) }
	got2, err := Evaluate(tree, n, EvalOptions{Budget: n / 2, Alloc: bad})
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "combined fallback", want.Combined, got2.Combined)
}

// sameParams compares NormParams bit for bit: a -0/+0 DMin or DMax is
// a difference, which == on the struct would not see.
func sameParams(a, b NormParams) bool {
	return math.Float64bits(a.DMin) == math.Float64bits(b.DMin) &&
		math.Float64bits(a.DMax) == math.Float64bits(b.DMax) &&
		a.Kept == b.Kept && a.NoFinite == b.NoFinite
}

// zeroLacedDists returns n distances where signed zeros and denormals
// are common enough to decide DMin and DMax, mixed with NaN, ±Inf and
// ordinary signed values.
func zeroLacedDists(rng *rand.Rand, n int) []float64 {
	dists := make([]float64, n)
	for i := range dists {
		switch rng.Intn(20) {
		case 0:
			dists[i] = math.NaN()
		case 1:
			dists[i] = math.Inf(1)
		case 2:
			dists[i] = math.Inf(-1)
		case 3, 4, 5:
			dists[i] = 0
		case 6, 7, 8:
			dists[i] = math.Copysign(0, -1)
		case 9:
			dists[i] = 5e-324 * float64(1+rng.Intn(3)) // denormals
		case 10:
			dists[i] = -5e-324
		default:
			dists[i] = rng.Float64()*200 - 20
		}
	}
	return dists
}

// TestLeafQuantilesMatchNormRange: the leaf index must answer exactly
// what the scan-plus-selection path answers, bit for bit, for every
// keep count, across NaN/±Inf/±0/
// denormal-laced vectors — on the first ask (memo miss) and on repeats
// after other keeps have cycled through the bounded memo.
func TestLeafQuantilesMatchNormRange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(3000)
		if trial%5 == 0 {
			n = 4*bandSample + rng.Intn(20000) // the sampled band path
		}
		dists := zeroLacedDists(rng, n)
		q := BuildLeafQuantiles(dists)
		keeps := []int{0, 1, 2, 5, n / 8, n / 3, n / 2, n - 1, n, n + 5}
		for i := 0; i < 2*leafMemoSize; i++ {
			keeps = append(keeps, 1+rng.Intn(n))
		}
		// Three shuffled passes: the first misses, later ones hit or
		// re-miss depending on what the memo evicted meanwhile.
		for pass := 0; pass < 3; pass++ {
			rng.Shuffle(len(keeps), func(i, j int) { keeps[i], keeps[j] = keeps[j], keeps[i] })
			for _, keep := range keeps {
				want := NormRange(dists, keep)
				if got := q.Range(keep); !sameParams(want, got) {
					t.Fatalf("trial %d pass %d keep %d: %+v vs %+v", trial, pass, keep, want, got)
				}
			}
		}
		if q.NaNs() != CountNaN(dists) {
			t.Fatalf("trial %d: NaNs %d, want %d", trial, q.NaNs(), CountNaN(dists))
		}
	}
	// An all-NaN/Inf vector has no finite range either way.
	deg := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	if got := BuildLeafQuantiles(deg).Range(2); !got.NoFinite {
		t.Fatalf("degenerate vector: %+v", got)
	}
}

// TestFiniteRankMatchesThreshold: the sampled band selection finds
// the order statistic a quickselect on a full copy finds, on vectors
// long enough to take the band path, in the input orders and tie
// patterns that can defeat a systematic sample (sorted either way,
// periodic with the sampling stride, heavy ties, specials), at ranks
// from 1 to the finite count — and leaves its input untouched.
func TestFiniteRankMatchesThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n = 5*bandSample + 123
	stride := n / bandSample
	shapes := map[string]func(i int) float64{
		"uniform":    func(int) float64 { return rng.Float64() },
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"periodic":   func(i int) float64 { return float64(i % stride) },
		"two-valued": func(int) float64 { return float64(rng.Intn(10) / 9) },
		"constant":   func(int) float64 { return 7 },
		"zero-laced": func(int) float64 { return zeroLacedDists(rng, 1)[0] },
	}
	for name, gen := range shapes {
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = gen(i)
		}
		orig := append([]float64(nil), dists...)
		st := scanRange(dists, 0, n)
		keeps := []int{1, 2, 5, st.nFinite / 10, st.nFinite / 2, st.nFinite - 1, st.nFinite}
		for i := 0; i < 10; i++ {
			keeps = append(keeps, 1+rng.Intn(st.nFinite))
		}
		for _, keep := range keeps {
			want := topk.Threshold(append([]float64(nil), dists...), keep+st.nNegInf)
			if got := finiteRank(dists, st, keep); got != want {
				t.Fatalf("%s keep %d: %v, want %v", name, keep, got, want)
			}
		}
		for i := range dists {
			if math.Float64bits(dists[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("%s: input modified at %d", name, i)
			}
		}
	}
}

// TestLeafQuantilesConcurrentRange: the shared tier hands one index to
// many sessions, so concurrent Range calls — hits, misses and memo
// evictions racing on one index — must all answer NormRange exactly.
// Run under -race.
func TestLeafQuantilesConcurrentRange(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 20000
	dists := zeroLacedDists(rng, n)
	q := BuildLeafQuantiles(dists)
	keeps := make([]int, 3*leafMemoSize)
	want := make([]NormParams, len(keeps))
	for i := range keeps {
		keeps[i] = 1 + rng.Intn(n)
		want[i] = NormRange(dists, keeps[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4*len(keeps); r++ {
				i := (g*7 + r*(g+1)) % len(keeps)
				if got := q.Range(keeps[i]); !sameParams(got, want[i]) {
					t.Errorf("goroutine %d keep %d: %+v vs %+v", g, keeps[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLazyLeavesMatchEager: under LazyLeaves, Combined is identical,
// leaf vectors are absent from ByNode until Vec materializes them, and
// materialization is bit-identical to the eager evaluation.
func TestLazyLeavesMatchEager(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := 50 + rng.Intn(2*evalChunk)
		tree := buildRandomTree(rng, n, 3)
		opts := EvalOptions{Budget: n / 2}
		eager, err := Evaluate(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.LazyLeaves = true
		lazy, err := Evaluate(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, "combined", eager.Combined, lazy.Combined)
		if len(lazy.ByNode) >= len(eager.ByNode) && len(eager.ByNode) > 1 {
			t.Fatalf("lazy ByNode has %d entries, eager %d — leaves were materialized eagerly",
				len(lazy.ByNode), len(eager.ByNode))
		}
		for node, ev := range eager.ByNode {
			lv := lazy.Vec(node)
			if lv == nil {
				t.Fatalf("Vec(%q) = nil", node.Label)
			}
			sameVec(t, "node "+node.Label, ev, lv)
			if &lazy.Vec(node)[0] != &lv[0] {
				t.Fatal("Vec rematerialized on second call")
			}
		}
		// After full materialization both maps agree.
		if len(lazy.ByNode) != len(eager.ByNode) {
			t.Fatalf("materialized ByNode %d vs eager %d", len(lazy.ByNode), len(eager.ByNode))
		}
	}
}

// TestCombineOrFastPathEquivalence: the unit-weight fast path must
// agree with the generic math.Pow formulation.
func TestCombineOrFastPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4000
	k := 3
	dists := make([][]float64, k)
	for j := range dists {
		dists[j] = make([]float64, n)
		for i := range dists[j] {
			switch rng.Intn(12) {
			case 0:
				dists[j][i] = 0
			case 1:
				dists[j][i] = math.NaN()
			default:
				dists[j][i] = rng.Float64() * Scale
			}
		}
	}
	for _, weights := range [][]float64{
		{1, 1, 1},          // all unit weights
		{1, 2, 0.5},        // mixed: w==1 and w==2 lanes take fast paths
		{3, 2, 1},          // the small-integer slider weights
		{1, 0, 1},          // zero weight skip
		nil,                // nil weights → equal (unit) weighting
		{0.25, 0.5, 0.25},  // effSum == 1: root fast path
		{1, 1e-12, 0.9999}, // near-degenerate
	} {
		got, err := CombineOr(dists, weights, WeightNormalized)
		if err != nil {
			t.Fatal(err)
		}
		want := slowCombineOr(dists, weights, WeightNormalized)
		sameVec(t, fmt.Sprintf("or weights %v", weights), want, got)
	}
}

// slowCombineOr is the pre-fast-path formulation: every factor through
// math.Pow. Pow(x, 1) is specified to return x, so the fast path must
// be bit-identical.
func slowCombineOr(dists [][]float64, weights []float64, mode CombineMode) []float64 {
	n := len(dists[0])
	wsum := weightSum(weights)
	effSum := wsum
	if effSum == 0 {
		effSum = float64(len(dists))
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		prod := 1.0
		nan := false
		zero := false
		for j := range dists {
			d := dists[j][i]
			w := effWeight(weights, j, wsum)
			if d == 0 && w > 0 {
				zero = true
				break
			}
			if math.IsNaN(d) {
				nan = true
				continue
			}
			if w == 0 {
				continue
			}
			prod *= math.Pow(d, w)
		}
		switch {
		case zero:
			out[i] = 0
		case nan:
			out[i] = math.NaN()
		case mode == WeightNormalized && prod > 0:
			out[i] = math.Pow(prod, 1/effSum)
		default:
			out[i] = prod
		}
	}
	return out
}

// TestCombineLpFastPathEquivalence: the p == 2 square-and-sqrt fast
// path must agree with the generic Pow formulation on normal-range
// inputs (Pow(|d|, 2) and d*d round the exact product once each, and
// Go's Pow(x, 0.5) is defined as Sqrt(x)).
func TestCombineLpFastPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 4000
	dists := make([][]float64, 3)
	for j := range dists {
		dists[j] = make([]float64, n)
		for i := range dists[j] {
			dists[j][i] = rng.Float64() * Scale
		}
	}
	weights := []float64{1, 2, 0.5}
	got, err := CombineLp(dists, weights, 2)
	if err != nil {
		t.Fatal(err)
	}
	wsum := weightSum(weights)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j := range dists {
			acc += effWeight(weights, j, wsum) * math.Pow(math.Abs(dists[j][i]), 2)
		}
		want[i] = math.Pow(acc, 0.5)
	}
	sameVec(t, "lp p=2", want, got)
	// CombineEuclidean routes through the same fast path.
	eu, err := CombineEuclidean(dists, weights)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "euclidean", want, eu)
}

// rangeLeafShapes returns the raw distances of three range-leaf shapes
// over n rows: the drag workload's `a > 50` and `c BETWEEN 20 AND 30`
// over uniform [0, 100) columns (half and a tenth of the rows exactly
// 0, the rest in random order), and `t > 50` over a clustered column
// that ascends with the row index (the traffic catalog's t), whose
// distances arrive sorted (descending, then zeros).
func rangeLeafShapes(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(1994))
	gt, between, clustered := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if a := rng.Float64() * 100; a <= 50 {
			gt[i] = 50 - a
		}
		switch c := rng.Float64() * 100; {
		case c < 20:
			between[i] = 20 - c
		case c > 30:
			between[i] = c - 30
		}
		if t := float64(i)/float64(n)*100 + rng.Float64(); t <= 50 {
			clustered[i] = 50 - t
		}
	}
	return map[string][]float64{"gt": gt, "between": between, "clustered": clustered}
}

// BenchmarkLeafRange measures the leaf normalization-range index on
// 200k-row range leaves: the build (one scan), then Range on a memo hit
// and on a memo miss (one sampled band selection) at each keep.
func BenchmarkLeafRange(b *testing.B) {
	const n = 200000
	leaves := rangeLeafShapes(n)
	for _, shape := range []string{"gt", "between", "clustered"} {
		dists := leaves[shape]
		b.Run(shape+"/build", func(b *testing.B) {
			for b.Loop() {
				BuildLeafQuantiles(dists)
			}
		})
		q := BuildLeafQuantiles(dists)
		b.Run(shape+"/hit", func(b *testing.B) {
			q.Range(16384)
			for b.Loop() {
				q.Range(16384)
			}
		})
		for _, keep := range []int{1, 64, 16384, n / 3} {
			b.Run(fmt.Sprintf("%s/miss/keep=%d", shape, keep), func(b *testing.B) {
				for b.Loop() {
					rangeOf(q.st, dists, keep)
				}
			})
		}
	}
}
