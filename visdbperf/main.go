// Command visdbperf is the repository benchmark: closed-loop analyst
// workloads that drive the VisDB visual feedback loop — open a query,
// drag its sliders, change its weights, undo — and report what the
// analyst waits for, end to end and, with --trace 1, split across the
// repository's layers. Run it from the root of a checkout:
//
//	bash visdbperf/run.sh --workload drag --seed 1 --seconds 25 --trace 0
//	bash visdbperf/run.sh --workload all --seed 1 --seconds 25
//
// README.md describes the workloads, the metrics and how the traced
// run attributes time. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics; a run
// whose outputs differ from the reference engine exits with code 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/relevance"
)

// workload is one analyst traffic mix and the system it drives.
type workload struct {
	name     string
	analysts int
	family   family
	// join marks workloads whose items are cross-product pairs.
	join bool
	// inputs describes the generated inputs for the run stamp.
	inputs map[string]any
	// gen generates the workload's catalog.
	gen   func() (*dataset.Catalog, error)
	build func(dir string, gen func() (*dataset.Catalog, error), tr *tracer) (env, error)
}

const (
	dragRows      = 200_000
	dragCacheB    = 4 << 20 // below the catalog's 6.4 MB of decoded columns
	explorePeople = 500
	// catalogSeed fixes the catalogs: the person databases' size
	// varies with their seed, and every run should measure the same
	// data. --seed draws the analysts' scripts.
	catalogSeed = 1994
)

func multiDB() (*dataset.Catalog, error) {
	cat, _, err := datagen.MultiDB(datagen.MultiDBConfig{People: explorePeople, Seed: catalogSeed})
	return cat, err
}

// fleetCatalog is the person catalog with name-within added.
func fleetCatalog() (*dataset.Catalog, error) {
	cat, err := multiDB()
	if err != nil {
		return nil, err
	}
	return cat, withNameWithin(cat)
}

var workloads = []workload{
	{
		name: "drag", analysts: 1, family: dragFamily,
		inputs: map[string]any{"rows": dragRows, "segment_budget_bytes": dragCacheB},
		gen:    func() (*dataset.Catalog, error) { return datagen.Traffic(dragRows, catalogSeed) },
		build: func(dir string, gen func() (*dataset.Catalog, error), _ *tracer) (env, error) {
			return newInprocEnv(dir, gen, dragCacheB)
		},
	},
	{
		name: "explore", analysts: 1, family: correspondenceFamily, join: true,
		inputs: map[string]any{"people": explorePeople, "segment_budget_bytes": 0},
		gen:    multiDB,
		build: func(dir string, gen func() (*dataset.Catalog, error), _ *tracer) (env, error) {
			return newInprocEnv(dir, gen, 0)
		},
	},
	{
		name: "fleet", analysts: 2, family: fleetFamily(), join: true,
		inputs: map[string]any{"people": explorePeople, "segment_budget_bytes": 0,
			"members": fleetMembers, "replicas": fleetReplicas},
		gen: fleetCatalog,
		build: func(dir string, gen func() (*dataset.Catalog, error), tr *tracer) (env, error) {
			return newFleetEnv(dir, gen, tr)
		},
	},
}

// A timed run sets its workload up in two rounds, one before the
// measured phase and one after the check, so that set-up samples span
// the run. Each round sets up at least minSetups times and until
// setupBudget has passed, at most maxSetups times; setup_s is the
// median of both rounds. The person catalogs set up in milliseconds,
// so one set-up alone would read as noise.
const (
	minSetups   = 5
	maxSetups   = 60
	setupBudget = 1500 * time.Millisecond
)

// setups sets w up a round of times, closing all but the last set-up,
// and returns the last one with the time each took.
func setups(w workload, dir string) (env, []float64, error) {
	var e env
	var took []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
		}
		// Each set-up starts from a collected heap, so the garbage of
		// the previous one is not charged to it.
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = w.build(dir, w.gen, nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		took = append(took, d.Seconds())
	}
	return e, took, nil
}

// memoryLimit is the soft heap limit of the benchmark process. The
// fleet retains about a gigabyte by design (three members' default
// 256 MiB shared tiers plus the kv store's 256 MiB); the limit keeps
// the garbage collector from letting the process grow to twice that.
const memoryLimit = 1536 << 20

// warmup runs before every measured phase, with its own scripts, so
// lazy set-up (page faults, pools, first connections) is not timed.
const warmup = time.Second

func main() {
	workload := flag.String("workload", "", "drag, explore, fleet or all")
	seed := flag.Int64("seed", 1, "seed of the analysts' scripts")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports the traced per-layer split instead of the end-to-end metrics")
	out := flag.String("out", ".bench_build/visdbperf", "directory for segment files and span dumps")
	flag.Parse()
	debug.SetMemoryLimit(memoryLimit)
	if err := run(*workload, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "visdbperf:", err)
		os.Exit(1)
	}
}

// result is the JSON object printed as the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, seconds, trace int, out string) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	var todo []workload
	for _, w := range workloads {
		if name == "all" || name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown --workload %q (want drag, explore, fleet or all)", name)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		r, err := runWorkload(w, seed, time.Duration(seconds)*time.Second, trace == 1, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(todo) > 1 {
				k = w.name + "." + k
			}
			res.Metrics[k] = v
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("outputs differ from the reference engine")
	}
	return nil
}

// stamp is the machine and the inputs a run measured.
func stamp(w workload, seed int64, d time.Duration, traced bool) map[string]any {
	s := map[string]any{
		"workload": w.name, "seed": seed, "seconds": d.Seconds(), "trace": traced,
		"analysts": w.analysts, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "catalog_seed": catalogSeed,
	}
	for k, v := range w.inputs {
		s[k] = v
	}
	return s
}

// cpuModel reads the CPU model name where the platform exposes it.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// runWorkload makes one run of w and prints its report.
func runWorkload(w workload, seed int64, d time.Duration, traced bool, out string) (result, error) {
	st, err := json.Marshal(stamp(w, seed, d, traced))
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %s stamp %s\n", w.name, st)
	dir := filepath.Join(out, "data-"+w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	if !traced {
		e, setup, err := setups(w, dir)
		if err != nil {
			return result{}, err
		}
		if fe, ok := e.(*fleetEnv); ok {
			fmt.Printf("# %s replicas r0..r%d served by members %v\n", w.name, fleetReplicas-1, fe.owners)
		}
		ph, err := measure(w, e, seed, d, nil)
		if err != nil {
			return result{}, err
		}
		correct, err := verify(w, ph)
		if err != nil {
			return result{}, err
		}
		e, after, err := setups(w, dir)
		if err != nil {
			return result{}, err
		}
		if err := e.close(); err != nil {
			return result{}, err
		}
		setup = append(setup, after...)
		fmt.Printf("# %s set-up seconds %.4f\n", w.name, setup)
		r, err := endToEnd(w, ph, setup)
		r.Correct = correct
		return r, err
	}

	var phases [2]*phase
	correct := true
	tr := &tracer{}
	for i, t := range []*tracer{nil, tr} {
		e, err := w.build(dir, w.gen, t)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		phases[i], err = measure(w, e, seed, d/2, t)
		if err != nil {
			return result{}, err
		}
		ok, err := verify(w, phases[i])
		if err != nil {
			return result{}, err
		}
		correct = correct && ok
	}
	for _, o := range phases[1].ops {
		tr.add(o.spans()...)
	}
	spansPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(spansPath); err != nil {
		return result{}, err
	}
	fmt.Printf("# %s spans written to %s\n", w.name, spansPath)
	r, err := perLayer(w, phases[0], phases[1])
	r.Correct = correct
	return r, err
}

// opRec is one attempted operation. res is kept in traced phases
// only, so the bookkeeping of a timed phase stays small next to the
// heap it measures.
type opRec struct {
	kind       opKind
	failed     bool
	start, end int64
	res        *opResult
}

// spans renders a traced operation as the spans the benchmark timed
// around its calls: query.Parse and the session call for in-process
// opens, the client call for fleet operations, and the engine's run
// placed at the end of the call it ran in.
func (o opRec) spans() []span {
	if o.res == nil {
		return nil
	}
	var out []span
	callStart := o.start
	layer := "client"
	if o.res.session == "" {
		layer = "session"
		if o.kind == opOpen {
			out = append(out, span{Layer: "query", Start: o.start, End: o.start + o.res.parse})
			callStart += o.res.parse
		}
		if o.res.recalc {
			out = append(out, span{Layer: "core", Start: o.end - o.res.timings.TotalNS, End: o.end})
		}
	}
	return append(out, span{Layer: layer, Session: o.res.session, Path: o.kind.String(), Start: callStart, End: o.end})
}

// check is one session's final ranking, to compare with the reference
// engine after the timed phase.
type check struct {
	query string
	got   ranking
}

// phase is what one measured phase produced.
type phase struct {
	ops []opRec
	// rate is the completed operations per second of the time the
	// analysts spent in operations, summed over the analysts.
	rate float64
	// busy and reading are the analysts' time in operations and in
	// reading final rankings, summed over the analysts.
	busy, reading time.Duration
	checks        []check
	spans         []span
	heap          uint64
	mallocs       uint64
	allocBytes    uint64
	counters      envCounters
}

// measure warms e up, drives w's analysts against it for d, reads the
// heap and the per-layer counters, and closes e.
func measure(w workload, e env, seed int64, d time.Duration, tr *tracer) (_ *phase, err error) {
	defer func() {
		if cerr := e.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	ctx := context.Background()
	if _, err := drive(ctx, w, e, seed, 1000, warmup, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if tr != nil {
		// Spans and kv counters of the warm-up are not part of the phase.
		tr.mu.Lock()
		tr.spans, tr.kv = nil, kvCounters{}
		tr.mu.Unlock()
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ph, err := drive(ctx, w, e, seed, 0, d, tr != nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	ph.mallocs, ph.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ph.heap = m1.HeapAlloc
	if ph.counters, err = e.counters(ctx); err != nil {
		return nil, fmt.Errorf("counters: %w", err)
	}
	if tr != nil {
		ph.spans, ph.counters.kv = tr.snapshot()
	}
	return ph, nil
}

// drive runs w's analysts against e in a closed loop, without think
// time, until d has passed; each finishes the operation in flight,
// reads its session's final ranking and stops. Analyst a's script is
// seeded by (seed, stream+a). traced keeps every operation's result.
func drive(ctx context.Context, w workload, e env, seed int64, stream int, d time.Duration, traced bool) (*phase, error) {
	deadline := nowNS() + int64(d)
	outs := make([]phase, w.analysts)
	errs := make([]error, w.analysts)
	var gate sync.RWMutex
	var wg sync.WaitGroup
	for a := 0; a < w.analysts; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[a] = analyst(ctx, e, newScript(w.family, seed, stream+a), deadline, traced, &gate, &outs[a])
		}()
	}
	wg.Wait()
	ph := &phase{}
	for a, out := range outs {
		if errs[a] != nil {
			return nil, errs[a]
		}
		done := 0
		for _, o := range out.ops {
			if !o.failed {
				done++
			}
		}
		if out.busy > 0 {
			ph.rate += float64(done) / out.busy.Seconds()
		}
		ph.busy += out.busy
		ph.reading += out.reading
		ph.ops = append(ph.ops, out.ops...)
		ph.checks = append(ph.checks, out.checks...)
	}
	return ph, nil
}

// analyst is one closed-loop analyst: open a session, take its steps,
// read its final ranking, repeat until the deadline. Failed operations
// are recorded and the loop goes on; only a session whose final
// ranking cannot be read ends the run. Operations hold gate shared and
// the reads of final rankings hold it exclusively, so no timed
// operation of any analyst overlaps a read: reads over the wire are
// neither timed nor load on the timed operations.
func analyst(ctx context.Context, e env, sc *script, deadline int64, traced bool, gate *sync.RWMutex, out *phase) error {
	// do runs one timed operation under the shared gate.
	do := func(kind opKind, call func() (opResult, error)) error {
		gate.RLock()
		defer gate.RUnlock()
		t0 := nowNS()
		r, err := call()
		rec := opRec{kind: kind, failed: err != nil, start: t0, end: nowNS()}
		if traced && err == nil {
			rec.res = &r
		}
		out.ops = append(out.ops, rec)
		out.busy += time.Duration(rec.end - rec.start)
		return err
	}
	for nowNS() < deadline {
		o := sc.open()
		var h handle
		if err := do(opOpen, func() (r opResult, err error) {
			h, r, err = e.open(ctx, o)
			return r, err
		}); err != nil {
			continue
		}
		for nowNS() < deadline {
			st, ok := sc.next()
			if !ok {
				break
			}
			if err := do(st.kind, func() (opResult, error) { return h.step(ctx, st) }); err == nil {
				sc.commit(st)
			}
		}
		gate.Lock()
		t0 := nowNS()
		got, err := h.finish(ctx)
		out.reading += time.Duration(nowNS() - t0)
		gate.Unlock()
		if err != nil {
			return fmt.Errorf("final ranking: %w", err)
		}
		q, err := sc.finalQuery()
		if err != nil {
			return err
		}
		out.checks = append(out.checks, check{query: q, got: got})
	}
	return nil
}

// verify compares every session's final ranking with a fresh uncached
// engine run of its final query over a freshly generated in-memory
// catalog, two queries at a time, and reports whether all match.
func verify(w workload, ph *phase) (bool, error) {
	ref, err := w.gen()
	if err != nil {
		return false, err
	}
	var mu sync.Mutex
	var mismatches []string
	next := make(chan check)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				want, err := reference(ref, c.query)
				if err == nil && want == c.got {
					continue
				}
				mu.Lock()
				mismatches = append(mismatches, fmt.Sprintf("%s: got %+v want %+v (%v)", c.query, c.got, want, err))
				mu.Unlock()
			}
		}()
	}
	for _, c := range ph.checks {
		next <- c
	}
	close(next)
	wg.Wait()
	fmt.Printf("# %s verified %d sessions bitwise against the reference engine: %d mismatches\n",
		w.name, len(ph.checks), len(mismatches))
	sort.Strings(mismatches)
	for _, m := range mismatches {
		fmt.Fprintln(os.Stderr, "mismatch:", m)
	}
	return len(mismatches) == 0, nil
}

// reference ranks src with a fresh uncached engine.
func reference(cat *dataset.Catalog, src string) (ranking, error) {
	q, err := query.Parse(src)
	if err != nil {
		return ranking{}, err
	}
	res, err := core.New(cat, nil, core.Options{}).Run(q)
	if err != nil {
		return ranking{}, err
	}
	comb := res.Combined()
	return digestRanking(res.N, res.Displayed, func(rank int) (int, float64, float64) {
		item := res.Order[rank]
		return item, comb[item], relevance.RelevanceFactor(comb[item])
	}), nil
}
