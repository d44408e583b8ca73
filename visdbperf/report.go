package main

import (
	"fmt"
	"time"
)

// report collects a run's metrics and prints each one as it is added,
// with its unit and the sample count behind it.
type report struct {
	w       workload
	metrics map[string]metric
}

func newReport(w workload) *report { return &report{w: w, metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.show(name, v, unit, n)
}

// show prints a metric without adding it to the result.
func (r *report) show(name string, v float64, unit string, n int) {
	fmt.Printf("%-8s %-34s %14.6f %-7s n=%d\n", r.w.name, name, v, unit, n)
}

// pct adds a latency percentile if the sample supports it under the
// percentile rule, and fails the run otherwise. An optional percentile
// is only printed, where the sample supports it.
func (r *report) pct(name string, samples []time.Duration, p float64, optional bool) error {
	v, ok := percentile(samples, p)
	switch {
	case ok && optional:
		r.show(name, ms(int64(v)), "ms", len(samples))
	case ok:
		r.add(name, ms(int64(v)), "ms", len(samples))
	case optional:
		fmt.Printf("%-8s %-34s %14s %-7s n=%d (too few samples)\n", r.w.name, name, "-", "ms", len(samples))
	default:
		return fmt.Errorf("%s: %d samples do not support the percentile", name, len(samples))
	}
	return nil
}

// latencies splits a phase's successful operations into open and step
// latencies and counts attempts and failures.
func latencies(ph *phase) (opens, steps []time.Duration, attempted, failed int) {
	for _, o := range ph.ops {
		attempted++
		switch {
		case o.failed:
			failed++
		case o.kind == opOpen:
			opens = append(opens, time.Duration(o.end-o.start))
		default:
			steps = append(steps, time.Duration(o.end-o.start))
		}
	}
	return opens, steps, attempted, failed
}

// endToEnd reports what the analyst sees: step and open latency,
// throughput, failures, set-up time and retained heap. The result
// carries the metrics steady enough to bound on every workload. Only
// printed are the p90s (a step p90 swings by half with the CPU steal
// of a shared two-vCPU host, and the in-process workloads have too few
// opens for an open p90) and failed_ratio (zero on a healthy run; the
// result's attempted and failed carry it).
func endToEnd(w workload, ph *phase, setup []float64) (result, error) {
	r := newReport(w)
	opens, steps, attempted, failed := latencies(ph)
	for _, p := range []struct {
		name     string
		samples  []time.Duration
		p        float64
		optional bool
	}{
		{"step_p50_ms", steps, 50, false},
		{"step_p90_ms", steps, 90, true},
		{"open_p50_ms", opens, 50, false},
		{"open_p90_ms", opens, 90, true},
	} {
		if err := r.pct(p.name, p.samples, p.p, p.optional); err != nil {
			return result{}, err
		}
	}
	done := len(opens) + len(steps)
	r.add("ops_per_s", ph.rate, "1/s", done)
	fmt.Printf("# %s analysts spent %.2f s in operations and, outside them, %.2f s reading %d final rankings\n",
		w.name, ph.busy.Seconds(), ph.reading.Seconds(), len(ph.checks))
	r.show("failed_ratio", ratio(float64(failed), float64(attempted)), "ratio", attempted)
	r.add("setup_s", median(setup), "s", len(setup))
	r.add("heap_retained_mib", float64(ph.heap)/mib, "MiB", 1)
	return result{Attempted: attempted, Failed: failed, Metrics: r.metrics}, nil
}

// perLayer reports the traced split of phase b, the allocation rate
// of the untraced phase a, and the tracing overhead b − a on the step
// median.
func perLayer(w workload, a, b *phase) (result, error) {
	r := newReport(w)
	_, stepsA, attA, failA := latencies(a)
	opensB, stepsB, attB, failB := latencies(b)
	res := result{Attempted: attA + attB, Failed: failA + failB}

	// Operation categories of the core split: opens, steps that
	// recomputed a leaf, steps served entirely from the leaf cache.
	const (
		catOpen = iota
		catMiss
		catHit
	)
	catNames := []string{"open", "miss_step", "hit_step"}
	stageNames := []string{"bind", "distances", "evaluate", "select", "scale", "reduce"}
	var stage [3][6]int64
	var catN [3]int
	var parseNS, sessSelf int64
	var sessN, hits, misses, pruned, chunks, sketch, segs, skipped, stepSegs int
	var pairs, openDist int64
	ops := 0
	for _, o := range b.ops {
		if o.res == nil {
			continue
		}
		ops++
		t := o.res.timings
		c := catOpen
		if o.kind != opOpen {
			c = catHit
			if t.CacheMisses > 0 {
				c = catMiss
			}
			hits += t.CacheHits
			misses += t.CacheMisses
			stepSegs += t.Segs
		} else {
			parseNS += o.res.parse
			pairs += int64(o.res.n)
			openDist += t.DistancesNS
		}
		catN[c]++
		for i, v := range []int64{t.BindNS, t.DistancesNS, t.EvaluateNS, t.SelectNS, t.ScaleNS, t.ReduceNS} {
			stage[c][i] += v
		}
		pruned += t.Pruned
		chunks += t.Chunks
		sketch += t.SketchHits
		segs += t.Segs
		skipped += t.SegsSkipped
		if o.res.session == "" && o.res.recalc {
			sessN++
			sessSelf += o.end - o.start - o.res.parse - t.TotalNS
		}
	}
	steps := float64(len(stepsB))
	opens := float64(len(opensB))

	r.add("query.parse_ms", ratio(ms(parseNS), opens), "ms", len(opensB))
	r.add("session.self_ms", ratio(ms(sessSelf), float64(sessN)), "ms", sessN)
	r.add("session.leaf_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", hits+misses)
	for i, s := range stageNames {
		for c, cn := range catNames {
			r.add(fmt.Sprintf("core.%s_ms.%s", s, cn), ratio(ms(stage[c][i]), float64(catN[c])), "ms", catN[c])
		}
	}
	r.add("core.prune_ratio", ratio(float64(pruned), float64(chunks)), "ratio", chunks)
	r.add("core.sketch_hits", ratio(float64(sketch), float64(ops)), "count/op", ops)
	doneA := attA - failA
	r.add("core.allocs_per_op", ratio(float64(a.mallocs), float64(doneA)), "count", doneA)
	r.add("core.alloc_mib_per_op", ratio(float64(a.allocBytes)/mib, float64(doneA)), "MiB", doneA)
	if !w.join {
		pairs, openDist = 0, 0
	}
	r.add("distance.pairs_per_open", ratio(float64(pairs), opens), "count", len(opensB))
	r.add("distance.ns_per_pair", ratio(float64(openDist), float64(pairs)), "ns", len(opensB))
	r.add("dataset.segs_per_step", ratio(float64(stepSegs), steps), "count", len(stepsB))
	r.add("dataset.segs_skipped_ratio", ratio(float64(skipped), float64(segs)), "ratio", segs)
	r.add("dataset.resident_mib", float64(b.counters.residentBytes)/mib, "MiB", 1)

	sh := b.counters.shared
	r.add("core.shared_hit_ratio", ratio(float64(sh.Hits), float64(sh.Hits+sh.Misses)), "ratio", int(sh.Hits+sh.Misses))
	r.add("core.shared_waits", float64(sh.Waits), "count", 1)
	r.add("core.shared_rejects", float64(sh.Rejects), "count", 1)
	r.add("core.shared_mib", float64(sh.Bytes+sh.InteriorBytes)/mib, "MiB", 1)

	kc := b.counters.kv
	r.add("kv.get_ms", ratio(ms(kc.getNS), float64(kc.gets)), "ms", int(kc.gets))
	r.add("kv.put_ms", ratio(ms(kc.putNS), float64(kc.puts)), "ms", int(kc.puts))
	r.add("kv.get_hit_ratio", ratio(float64(kc.hits), float64(kc.gets)), "ratio", int(kc.gets))
	r.add("kv.mib_in_per_op", ratio(float64(kc.inBytes)/mib, float64(ops)), "MiB", ops)
	r.add("kv.mib_out_per_op", ratio(float64(kc.outBytes)/mib, float64(ops)), "MiB", ops)
	r.add("kv.breaker_trips", float64(b.counters.breakerTrips), "count", 1)
	r.add("kv.short_circuits", float64(b.counters.shortCircuits), "count", 1)
	r.add("kv.store_mib", float64(b.counters.kvStoreBytes)/mib, "MiB", 1)

	sp := serving(b)
	r.add("server.self_ms", ratio(ms(sp.server), float64(sp.ops)), "ms", sp.ops)
	r.add("wire.resp_bytes", ratio(float64(sp.respBytes), float64(sp.resps)), "bytes", sp.resps)
	r.add("router.self_ms", ratio(ms(sp.router), float64(sp.ops)), "ms", sp.ops)
	r.add("client.self_ms", ratio(ms(sp.client), float64(sp.ops)), "ms", sp.ops)
	r.add("client.retries", float64(sp.retries), "count", sp.ops)

	p50a, okA := percentile(stepsA, 50)
	p50b, okB := percentile(stepsB, 50)
	if !okA || !okB {
		return res, fmt.Errorf("trace overhead: %d untraced and %d traced steps do not support a median", len(stepsA), len(stepsB))
	}
	r.add("trace.step_p50_overhead_ms", ms(int64(p50b-p50a)), "ms", len(stepsB))
	res.Metrics = r.metrics
	return res, nil
}

// servingSplit is the self time of the serving layers, summed over
// the traced fleet operations.
type servingSplit struct {
	ops, resps                      int
	client, router, server, retries int64
	respBytes                       int64
}

// serving nests each fleet operation's router spans inside the client
// call by session ID and time containment, and each router span's
// member spans likewise; a member span's child is the engine run its
// response reports. Self time is a span minus what its children
// cover. Router spans beyond the first inside one client call are
// retries.
func serving(ph *phase) servingSplit {
	bySession := map[string]map[string][]span{"router": {}, "server": {}}
	for _, s := range ph.spans {
		if m, ok := bySession[s.Layer]; ok && s.Session != "" {
			m[s.Session] = append(m[s.Session], s)
		}
	}
	within := func(layer, session string, p interval) (out []span) {
		for _, s := range bySession[layer][session] {
			if s.Start >= p.start && s.End <= p.end {
				out = append(out, s)
			}
		}
		return out
	}
	intervals := func(ss []span) []interval {
		out := make([]interval, len(ss))
		for i, s := range ss {
			out[i] = s.interval()
		}
		return out
	}
	var sp servingSplit
	for _, o := range ph.ops {
		if o.res == nil || o.res.session == "" {
			continue
		}
		call := interval{o.start, o.end}
		routed := within("router", o.res.session, call)
		sp.ops++
		sp.client += selfTime(call, intervals(routed))
		if len(routed) > 1 {
			sp.retries += int64(len(routed) - 1)
		}
		for _, rs := range routed {
			served := within("server", o.res.session, rs.interval())
			sp.router += selfTime(rs.interval(), intervals(served))
			for _, ss := range served {
				sp.server += selfTime(ss.interval(), []interval{{ss.End - ss.Engine, ss.End}})
				sp.respBytes += ss.Bytes
				sp.resps++
			}
		}
	}
	return sp
}
