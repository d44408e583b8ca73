package relevance

import (
	"math"
	"math/rand"
	"testing"
)

// buildRandomTree makes a random tree with nLeaves leaves over n items.
func buildRandomTree(rng *rand.Rand, n, depth int) *Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		d := make([]float64, n)
		for i := range d {
			switch rng.Intn(10) {
			case 0:
				d[i] = math.NaN()
			case 1:
				d[i] = 0
			default:
				d[i] = rng.Float64() * 100
			}
		}
		return &Node{Op: Leaf, Weight: rng.Float64()*2 + 0.1, Dists: d}
	}
	op := NodeAnd
	if rng.Intn(2) == 0 {
		op = NodeOr
	}
	node := &Node{Op: op, Weight: rng.Float64() + 0.5}
	k := 2 + rng.Intn(3)
	for i := 0; i < k; i++ {
		node.Children = append(node.Children, buildRandomTree(rng, n, depth-1))
	}
	return node
}

// TestEvaluateRejectsWrongLeafLength: a leaf whose vector does not
// cover the item space fails the evaluation instead of being read out
// of bounds.
func TestEvaluateRejectsWrongLeafLength(t *testing.T) {
	bad := &Node{Op: NodeAnd, Children: []*Node{
		{Op: Leaf, Dists: make([]float64, 10)},
		{Op: Leaf, Dists: make([]float64, 3)}, // wrong length
	}}
	if _, err := Evaluate(bad, 10, EvalOptions{}); err == nil {
		t.Fatal("expected error for a wrong-length leaf")
	}
}
