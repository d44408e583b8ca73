package join

import (
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// personTables opens the section 4.5 person databases (500 people,
// about 118k PersonsA×PersonsB pairs) from a segment file.
func personTables(tb testing.TB) (*dataset.Catalog, *dataset.Table, *dataset.Table) {
	tb.Helper()
	cat, _, err := datagen.MultiDB(datagen.MultiDBConfig{People: 500, Seed: 1994})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "people.visdb")
	if _, err := dataset.WriteCatalogFile(path, cat); err != nil {
		tb.Fatal(err)
	}
	fc, err := dataset.OpenCatalogFile(path, dataset.OpenOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fc.Close() })
	lt, err := fc.Table("PersonsA")
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := fc.Table("PersonsB")
	if err != nil {
		tb.Fatal(err)
	}
	return fc, lt, rt
}

var personConnections = []string{"similar-name", "same-birth-year"}

// BenchmarkConnDistances scores one join leaf the way the engine does:
// bind the connection, then score every pair of the cross product.
func BenchmarkConnDistances(b *testing.B) {
	cat, lt, rt := personTables(b)
	pairs := Pairs(lt.NumRows(), rt.NumRows(), 0)
	out := make([]float64, len(pairs))
	for _, name := range personConnections {
		conn, err := cat.Connection(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc, err := conn.Bind(lt, rt, nil)
				if err != nil {
					b.Fatal(err)
				}
				ConnDistancesRange(bc, pairs, out, 0, len(pairs))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
		})
	}
}

// TestConnDistancesAllocsPerLeaf pins the allocations of a join leaf at
// a handful per bound side, independent of the number of pairs scored.
func TestConnDistancesAllocsPerLeaf(t *testing.T) {
	cat, lt, rt := personTables(t)
	pairs := Pairs(lt.NumRows(), rt.NumRows(), 0)
	out := make([]float64, len(pairs))
	for _, name := range personConnections {
		conn, err := cat.Connection(name)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			bc, err := conn.Bind(lt, rt, nil)
			if err != nil {
				t.Fatal(err)
			}
			ConnDistancesRange(bc, pairs, out, 0, len(pairs))
		})
		if allocs > 16 {
			t.Errorf("%s: %v allocations per leaf over %d pairs, want at most 16", name, allocs, len(pairs))
		}
	}
}
