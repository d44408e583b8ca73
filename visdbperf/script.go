package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/query"
)

// opKind is what an analyst does next.
type opKind uint8

const (
	opOpen opKind = iota
	opRange
	opWeight
	opUndo
)

func (k opKind) String() string {
	return [...]string{"open", "range", "weight", "undo"}[k]
}

// op is one analyst operation: an open (query text plus the replica
// catalog it targets) or a slider step on the open session.
type op struct {
	kind    opKind
	query   string
	replica int
	attr    string
	lo, hi  float64
	pred    int
	w       float64
}

// family is the shape of one workload's sessions: which queries open
// them and which steps follow. The kinds of steps follow a fixed
// pattern and the queries, attributes and parts rotate, so every seed
// runs the same mix of operations; the seed draws the catalog, the
// query constants, the dragged ranges and the weights.
type family struct {
	// open returns the text of session k's query.
	open func(rng *rand.Rand, k int) string
	// attrs are the range-slider attributes of a query, preds its
	// number of weightable top-level parts.
	attrs func(q string) []string
	preds func(q string) int
	// pattern has one letter per step of a session: R a range drag, W
	// a weight change, U an undo.
	pattern string
	// rangeLo, rangeSpan, widthLo and widthSpan draw a range drag as
	// [lo, lo+width) with lo in [rangeLo, rangeLo+rangeSpan) and width
	// in [widthLo, widthLo+widthSpan).
	rangeLo, rangeSpan, widthLo, widthSpan float64
	// replicas is the number of replica catalogs. The opens of one
	// generation of sessions share a query and visit each replica
	// once; a new generation draws a new query.
	replicas int
}

// weightChoices never contain 1 or 2, the weights the workload queries
// start with, so every weight step changes the query.
var weightChoices = []float64{0.5, 1.5, 3, 4}

// dragFamily is the drag workload: sessions over the three traffic
// queries in turn, seven steps each.
var dragFamily = family{
	open: func(_ *rand.Rand, k int) string {
		q := datagen.TrafficQueries()
		return q[k%len(q)]
	},
	attrs:     trafficAttrs,
	preds:     func(string) int { return 2 },
	pattern:   "RWRUWRW",
	rangeLo:   0,
	rangeSpan: 70,
	widthLo:   5,
	widthSpan: 35,
	replicas:  1,
}

// correspondenceFamily is the explore workload: the section 4.5
// correspondence query over the two person databases, with a fresh
// Born range per session and a few steps after the open.
var correspondenceFamily = family{
	open: func(rng *rand.Rand, _ int) string {
		lo := 1930 + rng.Float64()*45
		return correspondenceQuery("similar-name", lo, lo+3+rng.Float64()*17)
	},
	attrs:     func(string) []string { return []string{"Born"} },
	preds:     func(string) int { return 3 },
	pattern:   "RWRWU",
	rangeLo:   1930,
	rangeSpan: 45,
	widthLo:   3,
	widthSpan: 17,
	replicas:  1,
}

// fleetFamily is the fleet workload: the correspondence query with
// name-within, the similar-name edit distance less a tolerance the
// query sets, in place of similar-name. A generation of sessions draws
// a fresh tolerance and Born range and opens that one query once on
// each replica, so the first open of a generation computes the
// edit-distance leaf and the others find it in kv.
func fleetFamily() family {
	f := correspondenceFamily
	f.open = func(rng *rand.Rand, _ int) string {
		conn := "name-within(" + strconv.FormatFloat(2*rng.Float64(), 'g', -1, 64) + ")"
		lo := 1930 + rng.Float64()*45
		return correspondenceQuery(conn, lo, lo+3+rng.Float64()*17)
	}
	f.replicas = fleetReplicas
	return f
}

func correspondenceQuery(conn string, lo, hi float64) string {
	return "SELECT Name FROM PersonsA, PersonsB WHERE CONNECT " + conn + " AND CONNECT same-birth-year AND Born BETWEEN " +
		strconv.FormatFloat(lo, 'g', -1, 64) + " AND " + strconv.FormatFloat(hi, 'g', -1, 64)
}

// withNameWithin adds name-within to a person catalog: similar-name's
// edit distance between Name and FullName, less the tolerance the
// query passes as the connection's parameter (never below 0).
func withNameWithin(cat *dataset.Catalog) error {
	c, err := cat.Connection("similar-name")
	if err != nil {
		return err
	}
	c.Name, c.Mode = "name-within", dataset.ModeWithin
	return cat.AddConnection(c)
}

// trafficAttrs lists the attributes datagen.TrafficQueries put a
// condition on.
func trafficAttrs(q string) []string {
	switch q {
	case datagen.TrafficQueries()[0]:
		return []string{"a", "b"}
	case datagen.TrafficQueries()[1]:
		return []string{"a", "c"}
	}
	return []string{"a", "b", "c"}
}

// state is the query state a session has reached: the ranges dragged
// and the weights set since the open. Conditions and parts absent from
// the maps still hold the query text's values.
type state struct {
	ranges  map[string][2]float64
	weights map[int]float64
}

func (s state) with(o op) state {
	n := state{ranges: make(map[string][2]float64, len(s.ranges)+1), weights: make(map[int]float64, len(s.weights)+1)}
	for k, v := range s.ranges {
		n.ranges[k] = v
	}
	for k, v := range s.weights {
		n.weights[k] = v
	}
	switch o.kind {
	case opRange:
		n.ranges[o.attr] = [2]float64{o.lo, o.hi}
	case opWeight:
		n.weights[o.pred] = o.w
	}
	return n
}

// script is one analyst's seeded operation stream. It models the
// session it drives, so that every step changes the query (a drag
// draws a fresh random range, a weight change a weight the part does
// not have, an undo comes only after a change) and so that the final
// query of a session is known without asking the program for it. The model advances only on
// commit: an operation that failed leaves the session, and the model,
// as they were.
type script struct {
	rng     *rand.Rand
	f       family
	analyst int
	session int // analyst + sessions opened so far, this one included
	query   string
	step    int // steps drawn in this session
	cur     state
	hist    []state
}

// newScript seeds analyst a's stream; streams of different analysts of
// one seed are independent.
func newScript(f family, seed int64, a int) *script {
	return &script{rng: rand.New(rand.NewSource(seed*7919 + int64(a))), f: f, analyst: a, session: a}
}

// open draws the next session's opening operation. The first open of
// a generation draws its query; analysts start their generations on
// different replicas.
func (s *script) open() op {
	opened := s.session - s.analyst
	s.session++
	if opened%s.f.replicas == 0 {
		s.query = s.f.open(s.rng, s.session)
	}
	s.step = 0
	s.cur, s.hist = state{}, nil
	return op{kind: opOpen, query: s.query, replica: (opened + s.analyst) % s.f.replicas}
}

// next draws the session's next step; false means the session is over.
func (s *script) next() (op, bool) {
	if s.step == len(s.f.pattern) {
		return op{}, false
	}
	kind := s.f.pattern[s.step]
	turn := s.session + s.step
	s.step++
	if kind == 'U' && len(s.hist) > 0 {
		return op{kind: opUndo}, true
	}
	if kind == 'W' {
		pred := turn % s.f.preds(s.query)
		w := weightChoices[s.rng.Intn(len(weightChoices))]
		for w == s.cur.weights[pred] {
			w = weightChoices[s.rng.Intn(len(weightChoices))]
		}
		return op{kind: opWeight, pred: pred, w: w}, true
	}
	attrs := s.f.attrs(s.query)
	lo := s.f.rangeLo + s.rng.Float64()*s.f.rangeSpan
	return op{kind: opRange, attr: attrs[turn%len(attrs)], lo: lo,
		hi: lo + s.f.widthLo + s.rng.Float64()*s.f.widthSpan}, true
}

// commit advances the model past a step the session applied.
func (s *script) commit(o op) {
	if o.kind == opUndo {
		s.cur, s.hist = s.hist[len(s.hist)-1], s.hist[:len(s.hist)-1]
		return
	}
	s.hist = append(s.hist, s.cur)
	s.cur = s.cur.with(o)
}

// finalQuery renders the query the session holds after the committed
// steps, the way the session package edits it: a range drag turns the
// attribute's first condition into BETWEEN lo AND hi, and a weight
// change sets the weight of a top-level part.
func (s *script) finalQuery() (string, error) {
	q, err := query.Parse(s.query)
	if err != nil {
		return "", err
	}
	for attr, r := range s.cur.ranges {
		var c *query.Cond
		query.Walk(q.Where, func(e query.Expr) {
			if cc, ok := e.(*query.Cond); ok && c == nil && cc.Attr == attr {
				c = cc
			}
		})
		if c == nil {
			return "", fmt.Errorf("no condition on %q in %q", attr, s.query)
		}
		c.Op, c.Lo, c.Hi = query.OpBetween, dataset.Float(r[0]), dataset.Float(r[1])
	}
	preds := query.Predicates(q.Where)
	for p, w := range s.cur.weights {
		preds[p].SetWeight(w)
	}
	return q.String(), nil
}
