package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/session"
)

// sessionsOf draws n whole sessions of analyst a's script, committing
// every step.
func sessionsOf(f family, seed int64, a, n int) []op {
	sc := newScript(f, seed, a)
	var ops []op
	for i := 0; i < n; i++ {
		ops = append(ops, sc.open())
		for {
			o, ok := sc.next()
			if !ok {
				break
			}
			ops = append(ops, o)
			sc.commit(o)
		}
	}
	return ops
}

func TestScriptDeterminism(t *testing.T) {
	for _, f := range []struct {
		name string
		f    family
	}{{"drag", dragFamily}, {"correspondence", correspondenceFamily}, {"fleet", fleetFamily()}} {
		a := sessionsOf(f.f, 7, 0, 20)
		if b := sessionsOf(f.f, 7, 0, 20); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different operations", f.name)
		}
		if b := sessionsOf(f.f, 8, 0, 20); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same operations", f.name)
		}
		if b := sessionsOf(f.f, 7, 1, 20); reflect.DeepEqual(a, b) {
			t.Errorf("%s: analysts 0 and 1 of one seed gave the same operations", f.name)
		}
	}
}

// TestScriptModelsSession drives real sessions with each script, a
// refused step included, and checks after every step that the
// script's model of the query is the session's query.
func TestScriptModelsSession(t *testing.T) {
	traffic, err := datagen.Traffic(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	people, _, err := datagen.MultiDB(datagen.MultiDBConfig{People: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := withNameWithin(people); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		f    family
		cat  *dataset.Catalog
	}{{"drag", dragFamily, traffic}, {"correspondence", correspondenceFamily, people}, {"fleet", fleetFamily(), people}} {
		sc := newScript(tc.f, 3, 0)
		for k := 0; k < 6; k++ {
			o := sc.open()
			s, err := session.NewSQL(tc.cat, nil, core.Options{GridW: 16, GridH: 16}, o.query)
			if err != nil {
				t.Fatal(err)
			}
			h := &inprocSession{s: s}
			for step := 0; ; step++ {
				st, ok := sc.next()
				if !ok {
					break
				}
				if step == 1 {
					if _, err := h.step(ctx, op{kind: opRange, attr: "nope", lo: 1, hi: 2}); err == nil {
						t.Fatalf("%s: range drag on a missing attribute succeeded", tc.name)
					}
				}
				if _, err := h.step(ctx, st); err != nil {
					t.Fatalf("%s: session %d step %d (%+v): %v", tc.name, k, step, st, err)
				}
				sc.commit(st)
				want, err := sc.finalQuery()
				if err != nil {
					t.Fatal(err)
				}
				if got := s.Query().String(); got != want {
					t.Fatalf("%s: session %d step %d: session holds %q, model %q", tc.name, k, step, got, want)
				}
			}
		}
	}
}

// TestFleetGenerations checks that the opens of a fleet generation
// share one query and visit every replica once, that the next
// generation draws a new query, and that analysts start their
// generations on different replicas.
func TestFleetGenerations(t *testing.T) {
	f := fleetFamily()
	var starts []int
	for a := 0; a < 2; a++ {
		sc := newScript(f, 5, a)
		var prev string
		for g := 0; g < 4; g++ {
			seen := map[int]bool{}
			var q string
			for i := 0; i < f.replicas; i++ {
				o := sc.open()
				if i == 0 {
					q = o.query
					if q == prev {
						t.Fatalf("analyst %d generation %d repeats the previous query", a, g)
					}
					if g == 0 {
						starts = append(starts, o.replica)
					}
				} else if o.query != q {
					t.Fatalf("analyst %d generation %d: open %d has query %q, want %q", a, g, i, o.query, q)
				}
				seen[o.replica] = true
			}
			if len(seen) != f.replicas {
				t.Fatalf("analyst %d generation %d visited replicas %v", a, g, seen)
			}
			prev = q
		}
	}
	if starts[0] == starts[1] {
		t.Errorf("both analysts start their generations on replica %d", starts[0])
	}
}
