package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/router"
	"repro/internal/server"
	"repro/visdb/client"
)

// fleetMembers and fleetReplicas size the fleet: three members, each
// serving the same three replica catalogs of one segment file. As in a
// visdbd deployment every member opens every catalog, so that any
// member can take a catalog's shard over; the router's placement picks
// the one member that serves each catalog's sessions.
const fleetMembers, fleetReplicas = 3, 3

// fleetEnv is an in-process fleet over loopback HTTP: a kv store,
// three visdbd-equivalent members with the daemon's default shared
// tier and a kv backend, and one router with its health loop, driven
// through visdb/client.
type fleetEnv struct {
	c         *client.Client
	transport *http.Transport
	cats      []*dataset.Catalog
	kvStore   *kv.Server
	backends  []core.SharedBackend
	stops     []func()
	stopLoop  context.CancelFunc
	loopDone  chan struct{}
	// owners names the member serving each replica.
	owners []string
}

// serveLocal serves h on an ephemeral loopback port; stop shuts the
// server down and returns once its Serve loop has exited.
func serveLocal(h http.Handler) (url string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(l)
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
		<-done
	}
	return "http://" + l.Addr().String(), stop, nil
}

// newFleetEnv writes gen's catalog to a segment file under dir and
// stands the fleet up on it. A non-nil tr wraps the router's and every
// member's handler, and every member's kv backend, in span recorders.
func newFleetEnv(dir string, gen func() (*dataset.Catalog, error), tr *tracer) (_ *fleetEnv, err error) {
	cat, err := gen()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "catalog.visdb")
	if _, err := dataset.WriteCatalogFile(path, cat); err != nil {
		return nil, fmt.Errorf("write segment file: %w", err)
	}
	e := &fleetEnv{kvStore: kv.NewServer(0, 0)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	kvURL, stop, err := serveLocal(e.kvStore)
	if err != nil {
		return nil, err
	}
	e.stops = append(e.stops, stop)

	var members []router.Member
	for m := 0; m < fleetMembers; m++ {
		// One kv client per member, shared by its catalogs, as visdbd
		// attaches it.
		var backend core.SharedBackend = kv.NewClient(kvURL)
		if tr != nil {
			backend = &tracedBackend{next: backend, tr: tr}
		}
		e.backends = append(e.backends, backend)
		var cfgs []server.CatalogConfig
		for r := 0; r < fleetReplicas; r++ {
			rc, err := dataset.OpenCatalogFile(path, dataset.OpenOptions{})
			if err != nil {
				return nil, fmt.Errorf("open segment file: %w", err)
			}
			e.cats = append(e.cats, rc)
			cfgs = append(cfgs, server.CatalogConfig{Name: replicaName(r), Catalog: rc,
				Shared: core.SharedOptions{Backend: backend}})
		}
		srv, err := server.New(server.Config{Catalogs: cfgs, DefaultOptions: core.Options{GridW: 128, GridH: 128}})
		if err != nil {
			return nil, err
		}
		var h http.Handler = srv
		if tr != nil {
			h = &spanHandler{layer: "server", next: srv, tr: tr}
		}
		url, stop, err := serveLocal(h)
		if err != nil {
			return nil, err
		}
		e.stops = append(e.stops, stop)
		members = append(members, router.Member{Name: fmt.Sprintf("m%d", m), URL: url})
	}

	rt, err := router.New(router.Config{Members: members, KV: kvURL})
	if err != nil {
		return nil, err
	}
	var h http.Handler = rt
	if tr != nil {
		h = &spanHandler{layer: "router", next: rt, tr: tr}
	}
	rtURL, stop, err := serveLocal(h)
	if err != nil {
		return nil, err
	}
	e.stops = append(e.stops, stop)
	place := rt.Placement()
	for r := 0; r < fleetReplicas; r++ {
		e.owners = append(e.owners, place[server.ShardOf(replicaName(r), 0)])
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stopLoop, e.loopDone = cancel, make(chan struct{})
	go func() {
		defer close(e.loopDone)
		rt.Run(ctx)
	}()

	e.transport = &http.Transport{MaxIdleConnsPerHost: 8}
	e.c = client.New(rtURL)
	e.c.HTTP = &http.Client{Transport: e.transport}
	e.c.Retry = client.DefaultRetryPolicy()
	return e, nil
}

func replicaName(r int) string { return fmt.Sprintf("r%d", r) }

func (e *fleetEnv) open(ctx context.Context, o op) (handle, opResult, error) {
	s, sum, err := e.c.NewSession(ctx, replicaName(o.replica), o.query, client.Options{})
	if err != nil {
		return nil, opResult{}, err
	}
	return &fleetSession{s: s}, opResult{timings: sum.Timings, recalc: true, n: sum.N, session: s.ID}, nil
}

func (e *fleetEnv) counters(ctx context.Context) (envCounters, error) {
	var c envCounters
	for _, cat := range e.cats {
		_, b := cat.CacheStats()
		c.residentBytes += b
	}
	fl, err := e.c.Fleet(ctx)
	if err != nil {
		return c, err
	}
	c.shared = fl.Shared
	for _, b := range e.backends {
		if br, ok := b.(core.BreakerReporter); ok {
			_, trips, shorts := br.BreakerState()
			c.breakerTrips += trips
			c.shortCircuits += shorts
		}
	}
	c.kvStoreBytes = e.kvStore.Stats().Bytes
	return c, nil
}

func (e *fleetEnv) close() error {
	if e.stopLoop != nil {
		e.stopLoop()
		<-e.loopDone
	}
	// Router first, kv store last: members flush puts to the store
	// until they stop.
	for i := len(e.stops) - 1; i >= 0; i-- {
		e.stops[i]()
	}
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	var errs []error
	for _, c := range e.cats {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

type fleetSession struct{ s *client.Session }

func (h *fleetSession) step(ctx context.Context, o op) (opResult, error) {
	var sum client.Summary
	var err error
	switch o.kind {
	case opRange:
		sum, err = h.s.SetRange(ctx, o.attr, o.lo, o.hi)
	case opWeight:
		sum, err = h.s.SetWeight(ctx, o.pred, o.w)
	case opUndo:
		sum, err = h.s.Undo(ctx)
	default:
		err = fmt.Errorf("step: unexpected %v", o.kind)
	}
	if err != nil {
		return opResult{}, err
	}
	return opResult{timings: sum.Timings, recalc: true, n: sum.N, session: h.s.ID}, nil
}

// finish fetches the final displayed ranking over the wire.
func (h *fleetSession) finish(ctx context.Context) (ranking, error) {
	res, err := h.s.Results(ctx, -1)
	closeErr := h.s.Close(ctx)
	if err != nil {
		return ranking{}, fmt.Errorf("results: %w", err)
	}
	if closeErr != nil {
		return ranking{}, fmt.Errorf("close: %w", closeErr)
	}
	if len(res.Rows) != res.Summary.Displayed {
		return ranking{}, fmt.Errorf("results: %d rows for %d displayed", len(res.Rows), res.Summary.Displayed)
	}
	return digestRanking(res.Summary.N, res.Summary.Displayed, func(rank int) (int, float64, float64) {
		row := res.Rows[rank]
		return row.Item, row.Distance, row.Relevance
	}), nil
}
