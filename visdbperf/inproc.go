package main

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/wire"
)

// inprocEnv drives the session package directly over a catalog served
// from a segment file.
type inprocEnv struct {
	cat *dataset.Catalog
	opt core.Options
}

// newInprocEnv writes gen's catalog to a segment file under dir and
// opens it with the given decoded-segment budget (0 selects the
// default).
func newInprocEnv(dir string, gen func() (*dataset.Catalog, error), cacheBytes int64) (*inprocEnv, error) {
	cat, err := gen()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "catalog.visdb")
	if _, err := dataset.WriteCatalogFile(path, cat); err != nil {
		return nil, fmt.Errorf("write segment file: %w", err)
	}
	fc, err := dataset.OpenCatalogFile(path, dataset.OpenOptions{CacheBytes: cacheBytes})
	if err != nil {
		return nil, fmt.Errorf("open segment file: %w", err)
	}
	return &inprocEnv{cat: fc}, nil
}

func (e *inprocEnv) open(_ context.Context, o op) (handle, opResult, error) {
	var r opResult
	t0 := nowNS()
	q, err := query.Parse(o.query)
	r.parse = nowNS() - t0
	if err != nil {
		return nil, r, err
	}
	s, err := session.New(e.cat, nil, e.opt, q)
	if err != nil {
		return nil, r, err
	}
	res := s.Result()
	r.timings, r.recalc, r.n = wire.TimingsOf(res.Timings), true, res.N
	return &inprocSession{s: s}, r, nil
}

func (e *inprocEnv) counters(context.Context) (envCounters, error) {
	_, b := e.cat.CacheStats()
	return envCounters{residentBytes: b}, nil
}

func (e *inprocEnv) close() error { return e.cat.Close() }

type inprocSession struct{ s *session.Session }

func (h *inprocSession) step(_ context.Context, o op) (opResult, error) {
	before := h.s.Recalcs
	var err error
	switch o.kind {
	case opRange:
		err = h.s.SetRangeByAttr(o.attr, o.lo, o.hi)
	case opWeight:
		preds := query.Predicates(h.s.Query().Where)
		if o.pred >= len(preds) {
			return opResult{}, fmt.Errorf("weight: no part %d", o.pred)
		}
		err = h.s.SetWeight(preds[o.pred], o.w)
	case opUndo:
		err = h.s.Undo()
	default:
		err = fmt.Errorf("step: unexpected %v", o.kind)
	}
	if err != nil {
		return opResult{}, err
	}
	res := h.s.Result()
	return opResult{timings: wire.TimingsOf(res.Timings), recalc: h.s.Recalcs != before, n: res.N}, nil
}

func (h *inprocSession) finish(context.Context) (ranking, error) {
	r := resultRanking(h.s.Result())
	h.s = nil
	return r, nil
}
