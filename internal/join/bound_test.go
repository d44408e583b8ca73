package join

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/distance"
)

// boundSchema mixes every kind a connection can read, so the property
// test can aim each metric at its own kind and at foreign ones.
var boundSchema = dataset.Schema{
	{Name: "num", Kind: dataset.KindFloat},
	{Name: "cnt", Kind: dataset.KindInt},
	{Name: "ts", Kind: dataset.KindTime},
	{Name: "lat", Kind: dataset.KindFloat},
	{Name: "lon", Kind: dataset.KindFloat},
	{Name: "name", Kind: dataset.KindString},
	{Name: "grade", Kind: dataset.KindOrdinal, Categories: []string{"lo", "mid", "hi"}},
	{Name: "flag", Kind: dataset.KindBool},
}

// boundTable fills a table with random rows, roughly one cell in six
// null, names near-duplicated (some longer than one machine word) and
// the occasional non-null NaN.
func boundTable(t *testing.T, rng *rand.Rand, name string, rows int) *dataset.Table {
	t.Helper()
	tab, err := dataset.NewTable(name, boundSchema)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Hendrikson", "Hendriksen", "Mueller", "Müller", "", "O'Neil",
		"Bartholomew-Featherstonehaugh-Cholmondeley-Marjoribanks-Wriothesley"}
	t0 := time.Date(1994, 2, 14, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		num := rng.NormFloat64() * 50
		if rng.Intn(20) == 0 {
			num = math.NaN()
		}
		nm := names[rng.Intn(len(names))]
		if rng.Intn(2) == 0 && len(nm) > 1 {
			b := []byte(nm)
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			nm = string(b)
		}
		row := []dataset.Value{
			dataset.Float(num),
			dataset.Int(int64(rng.Intn(100) - 50)),
			dataset.Time(t0.Add(time.Duration(rng.Intn(72*60)) * time.Minute)),
			dataset.Float(47 + rng.Float64()*2),
			dataset.Float(10 + rng.Float64()*3),
			dataset.Str(nm),
			dataset.Ordinal([]string{"lo", "mid", "hi"}[rng.Intn(3)]),
			dataset.Bool(rng.Intn(2) == 0),
		}
		for j := range row {
			if rng.Intn(6) == 0 {
				row[j] = dataset.Null(boundSchema[j].Kind)
			}
		}
		if err := tab.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// boundConnections covers every metric in every mode (nonzero Param),
// string functions resolved by name, string metrics over non-string
// attributes (the AsString formatting path) and numeric metrics over
// string attributes (always NaN).
func boundConnections() []dataset.Connection {
	var out []dataset.Connection
	add := func(c dataset.Connection) {
		for _, m := range []struct {
			mode  dataset.ConnMode
			param float64
		}{{dataset.ModeEqual, 0}, {dataset.ModeTarget, 3}, {dataset.ModeWithin, 2.5}} {
			c := c
			c.Name = fmt.Sprintf("%s-%s-%s-%d", c.LeftAttr, c.RightAttr, c.StringDist, m.mode)
			c.Left, c.Right = "L", "R"
			c.Mode, c.Param = m.mode, m.param
			out = append(out, c)
		}
	}
	add(dataset.Connection{LeftAttr: "num", RightAttr: "num", Metric: dataset.MetricNumeric})
	add(dataset.Connection{LeftAttr: "cnt", RightAttr: "num", Metric: dataset.MetricNumeric})
	add(dataset.Connection{LeftAttr: "flag", RightAttr: "cnt", Metric: dataset.MetricNumeric})
	add(dataset.Connection{LeftAttr: "ts", RightAttr: "ts", Metric: dataset.MetricTime})
	add(dataset.Connection{LeftAttr: "lat", LeftAttr2: "lon", RightAttr: "lat", RightAttr2: "lon", Metric: dataset.MetricGeo})
	add(dataset.Connection{LeftAttr: "num", LeftAttr2: "lon", RightAttr: "lat", RightAttr2: "cnt", Metric: dataset.MetricGeo})
	add(dataset.Connection{LeftAttr: "name", RightAttr: "num", Metric: dataset.MetricNumeric})
	add(dataset.Connection{LeftAttr: "ts", RightAttr: "grade", Metric: dataset.MetricTime})
	for _, fn := range []string{"", "edit", "editnorm", "phonetic"} {
		add(dataset.Connection{LeftAttr: "name", RightAttr: "name", Metric: dataset.MetricString, StringDist: fn})
	}
	add(dataset.Connection{LeftAttr: "name", RightAttr: "grade", Metric: dataset.MetricString, StringDist: "edit"})
	add(dataset.Connection{LeftAttr: "num", RightAttr: "ts", Metric: dataset.MetricString, StringDist: "edit"})
	add(dataset.Connection{LeftAttr: "flag", RightAttr: "cnt", Metric: dataset.MetricString, StringDist: "characterwise"})
	return out
}

// boundRegistries: nil (the built-ins) and a registry whose "edit" is
// re-registered — the bound kernel must call the resolved function,
// not the built-in it shadows.
func boundRegistries() map[string]*distance.Registry {
	custom := distance.NewRegistry()
	custom.RegisterString("edit", func(a, b string) float64 {
		return float64(len(a))*1.5 - float64(len(b)) + 0.25
	})
	return map[string]*distance.Registry{"builtin": nil, "custom-edit": custom}
}

// boundBackings returns the two test tables in memory and read back
// from a segment file through both file read backends.
func boundBackings(t *testing.T) map[string][2]*dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	cat := dataset.NewCatalog()
	lt, rt := boundTable(t, rng, "L", 37), boundTable(t, rng, "R", 29)
	for _, tab := range []*dataset.Table{lt, rt} {
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string][2]*dataset.Table{"memory": {lt, rt}}
	path := filepath.Join(t.TempDir(), "bound.visdb")
	if _, err := dataset.WriteCatalogFile(path, cat); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]dataset.OpenOptions{
		"segfile":        {CacheBytes: 1},
		"segfile-readat": {ForceReadAt: true, CacheBytes: 1},
	} {
		fc, err := dataset.OpenCatalogFile(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fc.Close() })
		fl, err := fc.Table("L")
		if err != nil {
			t.Fatal(err)
		}
		fr, err := fc.Table("R")
		if err != nil {
			t.Fatal(err)
		}
		out[name] = [2]*dataset.Table{fl, fr}
	}
	return out
}

func refDistance(t *testing.T, c dataset.Connection, lt, rt *dataset.Table, l, r int, reg *distance.Registry) float64 {
	t.Helper()
	d, err := c.Distance(lt, rt, l, r, reg)
	if err != nil {
		t.Fatalf("%s reference (%d,%d): %v", c.Name, l, r, err)
	}
	return d
}

// TestBoundConnectionMatchesReference pins the bound kernel and its
// three callers bit-identical (math.Float64bits) to the per-pair
// reference Connection.Distance.
func TestBoundConnectionMatchesReference(t *testing.T) {
	backings := boundBackings(t)
	regs := boundRegistries()
	innerRng := rand.New(rand.NewSource(5))
	for bname, tabs := range backings {
		lt, rt := tabs[0], tabs[1]
		inner := make([]float64, rt.NumRows())
		for i := range inner {
			inner[i] = innerRng.Float64() * 10
			if innerRng.Intn(5) == 0 {
				inner[i] = math.NaN()
			}
		}
		for rname, reg := range regs {
			for _, c := range boundConnections() {
				t.Run(bname+"/"+rname+"/"+c.Name, func(t *testing.T) {
					checkBound(t, c, lt, rt, reg, inner)
				})
			}
		}
	}
}

func checkBound(t *testing.T, c dataset.Connection, lt, rt *dataset.Table, reg *distance.Registry, inner []float64) {
	nl, nr := lt.NumRows(), rt.NumRows()
	bc, err := c.Bind(lt, rt, reg)
	if err != nil {
		t.Fatal(err)
	}
	if bc.LeftRows() != nl || bc.RightRows() != nr {
		t.Fatalf("bound rows %d×%d, want %d×%d", bc.LeftRows(), bc.RightRows(), nl, nr)
	}
	ref := make([]float64, 0, nl*nr)
	for l := 0; l < nl; l++ {
		for r := 0; r < nr; r++ {
			want := refDistance(t, c, lt, rt, l, r, reg)
			if got := bc.Distance(l, r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair (%d,%d): bound %v (%#x), reference %v (%#x)", l, r, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			ref = append(ref, want)
		}
	}

	ds, err := ConnDistances(c, lt, rt, Pairs(nl, nr, 0), reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if math.Float64bits(ds[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("ConnDistances[%d] = %v, reference %v", i, ds[i], ref[i])
		}
	}

	// PartnerCounts, both ways round: the engine reverses a connection
	// whose FROM table is its right side.
	const eps = 4
	for _, side := range []struct {
		c      dataset.Connection
		lt, rt *dataset.Table
	}{{c, lt, rt}, {c.Reversed(), rt, lt}} {
		counts, err := PartnerCounts(side.c, side.lt, side.rt, eps, reg)
		if err != nil {
			t.Fatal(err)
		}
		for l := range counts {
			want := 0
			for r := 0; r < side.rt.NumRows(); r++ {
				if d := refDistance(t, side.c, side.lt, side.rt, l, r, reg); !math.IsNaN(d) && d <= eps {
					want++
				}
			}
			if counts[l] != want {
				t.Fatalf("%s PartnerCounts[%d] = %d, reference %d", side.c.Left, l, counts[l], want)
			}
		}
	}

	// MinDistancePerLeft with and without blended inner distances.
	for _, in := range [][]float64{nil, inner} {
		mins, err := MinDistancePerLeft(c, lt, rt, in, reg)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < nl; l++ {
			best := math.NaN()
			for r := 0; r < nr; r++ {
				d := ref[l*nr+r]
				if math.IsNaN(d) || (in != nil && math.IsNaN(in[r])) {
					continue
				}
				if in != nil {
					d = (d + in[r]) / 2
				}
				if math.IsNaN(best) || d < best {
					best = d
				}
			}
			if math.Float64bits(mins[l]) != math.Float64bits(best) {
				t.Fatalf("MinDistancePerLeft[%d] (inner %v) = %v, reference %v", l, in != nil, mins[l], best)
			}
		}
	}
}

func TestBindErrors(t *testing.T) {
	lt, rt := mkTables(t)
	bad := []dataset.Connection{
		{Name: "no-attr", LeftAttr: "missing", RightAttr: "v"},
		{Name: "no-lon", LeftAttr: "v", LeftAttr2: "missing", RightAttr: "v", RightAttr2: "v", Metric: dataset.MetricGeo},
		{Name: "no-func", LeftAttr: "v", RightAttr: "v", Metric: dataset.MetricString, StringDist: "no-such"},
	}
	for _, c := range bad {
		if _, err := c.Bind(lt, rt, nil); err == nil {
			t.Errorf("%s: Bind should fail", c.Name)
		}
	}
}

// TestBoundDistanceAllocationFree: once bound, scoring a pair
// allocates nothing, edit distances included (phonetic builds Soundex
// codes and is exempt).
func TestBoundDistanceAllocationFree(t *testing.T) {
	tabs := boundBackings(t)["segfile"]
	for _, c := range boundConnections() {
		if c.StringDist == "phonetic" {
			continue
		}
		bc, err := c.Bind(tabs[0], tabs[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(5, func() {
			for l := 0; l < bc.LeftRows(); l++ {
				for r := 0; r < bc.RightRows(); r++ {
					bc.Distance(l, r)
				}
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per bound scan", c.Name, n)
		}
	}
}

// TestBoundConnectionConcurrent: chunks of one bound connection scored
// from several goroutines equal the serial scan (run under -race).
func TestBoundConnectionConcurrent(t *testing.T) {
	tabs := boundBackings(t)["segfile"]
	lt, rt := tabs[0], tabs[1]
	pairs := Pairs(lt.NumRows(), rt.NumRows(), 0)
	for _, c := range boundConnections() {
		bc, err := c.Bind(lt, rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		serial := make([]float64, len(pairs))
		ConnDistancesRange(bc, pairs, serial, 0, len(pairs))
		par := make([]float64, len(pairs))
		var wg sync.WaitGroup
		const workers = 4
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ConnDistancesRange(bc, pairs, par, w*len(pairs)/workers, (w+1)*len(pairs)/workers)
			}()
		}
		wg.Wait()
		for i := range serial {
			if math.Float64bits(par[i]) != math.Float64bits(serial[i]) {
				t.Fatalf("%s pair %d: concurrent %v, serial %v", c.Name, i, par[i], serial[i])
			}
		}
	}
}
