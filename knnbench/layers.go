package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
)

// layerAgg sums, over one phase, the time each layer took, measured
// from outside by timing the public calls into it.
type layerAgg struct {
	mu                     sync.Mutex
	requests               int           // guarded by mu
	client, handler        time.Duration // guarded by mu
	queries                int           // guarded by mu
	knn, stage, fetch, sem time.Duration // guarded by mu
	stages, fetches        int           // guarded by mu
}

func (a *layerAgg) addRequest(client time.Duration) {
	a.mu.Lock()
	a.requests++
	a.client += client
	a.mu.Unlock()
}

func (a *layerAgg) addHandler(d time.Duration) {
	a.mu.Lock()
	a.handler += d
	a.mu.Unlock()
}

// addQuery adds one engine query; the engine's time is also the time
// the handler spent in Backend.KNN.
func (a *layerAgg) addQuery(knn time.Duration, o *queryObserver) {
	a.mu.Lock()
	a.queries++
	a.knn += knn
	a.stage += o.stage
	a.stages += o.stages
	a.fetch += o.fetch
	a.fetches += o.fetches
	a.sem += o.sem
	a.mu.Unlock()
}

func perUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(n)
}

// setServer reports the server and transport layers.
func (a *layerAgg) setServer(res *result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	res.set("server.handler_us", perUS(a.handler, a.requests))
	res.set("server.self_us", perUS(a.handler-a.knn, a.requests))
	res.set("net.transport_us", perUS(a.client-a.handler, a.requests))
}

// setExec reports the engine's per-query layers; d is the engine
// snapshot delta over the same phase.
func (a *layerAgg) setExec(res *result, d exec.Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := float64(a.queries)
	res.set("exec.knn_us", perUS(a.knn, a.queries))
	res.set("exec.stage_us", perUS(a.stage, a.stages))
	res.set("exec.fetch_us", perUS(a.fetch, a.fetches))
	res.set("exec.sem_wait_us", perUS(a.sem, a.queries))
	res.set("exec.fetches_per_query", float64(d.Stats.PagesFetched)/q)
	res.set("exec.decodes_per_query", float64(d.Stats.Decodes)/q)
	hits, misses := float64(d.Cache.Hits), float64(d.Cache.Misses)
	res.set("bufferpool.hit_ratio", hits/(hits+misses))
	res.set("bufferpool.evictions_per_query", float64(d.Cache.Evictions)/q)
	res.set("decluster.balance_ratio", d.BalanceRatio)
}

// queryObserver turns one engine query's trace events into stage and
// fetch spans. Events of one query arrive on one goroutine in causal
// order, so it needs no lock. Fetch spans start when their stage was
// issued and last the engine-measured fetch time (queue wait plus
// service).
type queryObserver struct {
	rec        *recorder
	req, knnID int64

	stageID    int64
	stageStart time.Time

	stage, fetch, sem time.Duration
	stages, fetches   int
}

func (o *queryObserver) Observe(ev obs.Event) {
	switch ev.Type {
	case obs.StageIssue:
		o.stageID = o.rec.newID()
		o.stageStart = time.Now()
	case obs.SemWait:
		o.sem += ev.Wall
	case obs.FetchDone:
		o.fetch += ev.Wall
		o.fetches++
		o.rec.record("exec.fetch", o.stageStart, o.stageStart.Add(ev.Wall), o.stageID, o.req)
	case obs.StageDone:
		o.stage += ev.Wall
		o.stages++
		o.rec.add(o.stageID, "exec.stage", o.stageStart, o.stageStart.Add(ev.Wall), o.knnID, o.req)
	}
}

// tracedKNN runs one engine query with an observer attached and adds
// its spans and times to rec and agg.
func tracedKNN(ctx context.Context, eng *exec.Engine, alg query.Algorithm, q geom.Point, kk int,
	rec *recorder, agg *layerAgg, req, parent int64) ([]query.Neighbor, *query.Stats, error) {
	o := &queryObserver{rec: rec, req: req, knnID: rec.newID()}
	start := time.Now()
	nb, st, err := eng.KNN(ctx, alg, q, kk, query.Options{Observer: o})
	end := time.Now()
	rec.add(o.knnID, "exec.knn", start, end, parent, req)
	agg.addQuery(end.Sub(start), o)
	return nb, st, err
}

// tap sits between the HTTP service and the engine in traced phases: it
// times Server.Handler() and Backend.KNN. While no aggregate is set it
// passes calls straight through.
type tap struct {
	eng *exec.Engine
	rec *recorder
	agg atomic.Pointer[layerAgg]
	h   http.Handler // the service's handler
}

type spanKey struct{}

// spanRef names the request and the span that caused a call.
type spanRef struct{ req, parent int64 }

const (
	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	agg := t.agg.Load()
	if agg == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	id := t.rec.newID()
	r = r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{req: req, parent: id}))
	start := time.Now()
	t.h.ServeHTTP(w, r)
	end := time.Now()
	t.rec.add(id, "server.handler", start, end, parent, req)
	agg.addHandler(end.Sub(start))
}

// KNN implements server.Backend. The benchmark's requests never ask
// the service for a trace, so a traced call replaces opts.
func (t *tap) KNN(ctx context.Context, alg query.Algorithm, q geom.Point, kk int, opts query.Options) ([]query.Neighbor, *query.Stats, error) {
	agg := t.agg.Load()
	if agg == nil {
		return t.eng.KNN(ctx, alg, q, kk, opts)
	}
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return tracedKNN(ctx, t.eng, alg, q, kk, t.rec, agg, ref.req, ref.parent)
}

// QueueDepths implements server.Backend.
func (t *tap) QueueDepths() []int64 { return t.eng.QueueDepths() }

// tappedService serves the engine over HTTP through a tap on the
// benchmark's own loopback listener, so that the handler can be timed.
type tappedService struct {
	tap  *tap
	http *http.Server
	addr string
	done chan error
}

func startTapped(eng *exec.Engine, rec *recorder) (*tappedService, error) {
	t := &tap{eng: eng, rec: rec}
	srv, err := server.New(server.Config{Backend: t})
	if err != nil {
		return nil, err
	}
	t.h = srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &tappedService{tap: t, http: &http.Server{Handler: t}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *tappedService) close() error {
	if err := s.http.Close(); err != nil {
		return err
	}
	if err := <-s.done; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// client is a closed-loop HTTP client on one keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, url: "http://" + addr + "/v1/knn"}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// knnBody is the request body of one query.
func knnBody(q []float64) []byte {
	b, err := json.Marshal(map[string]any{"point": q, "k": k, "algorithm": "crss"})
	if err != nil {
		panic(err) // finite and infinite-free coordinates always marshal
	}
	return b
}

type knnReply struct {
	Neighbors []struct {
		Object int64   `json:"object"`
		DistSq float64 `json:"distsq"`
	} `json:"neighbors"`
	Stats struct{ DiskAccesses int } `json:"stats"`
}

func (r *knnReply) answer() ([]int64, []float64) {
	ids := make([]int64, len(r.Neighbors))
	dists := make([]float64, len(r.Neighbors))
	for i, n := range r.Neighbors {
		ids[i], dists[i] = n.Object, n.DistSq
	}
	return ids, dists
}

// post sends one query and reads the whole reply. ref, when non-zero,
// is passed on to the tap so that server spans join the client's.
func (c *client) post(body []byte, ref spanRef) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ref.req != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(ref.req, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(ref.parent, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// kernelProbe times the batch distance kernels over every node view of
// the tree for a few queries, per entry; the median of five passes.
func kernelProbe(res *result, ix *core.Index, qs [][]float64) {
	var flats []*rtree.FlatNode
	entries := 0
	ix.Tree().Walk(func(n *rtree.Node, _ int) bool {
		f := n.Flat()
		flats = append(flats, f)
		entries += f.Rects.Len()
		return true
	})
	out := make([]float64, 0, 256)
	kernels := []struct {
		name string
		fn   func(geom.Point, *geom.RectSoA, []float64)
	}{
		{"geom.dmin_ns_per_entry", geom.MinDistSqBatch},
		{"geom.dmm_ns_per_entry", geom.MinMaxDistSqBatch},
		{"geom.dmax_ns_per_entry", geom.MaxDistSqBatch},
	}
	for _, kr := range kernels {
		var passes []float64
		for pass := 0; pass < 5; pass++ {
			start := time.Now()
			for _, q := range qs {
				for _, f := range flats {
					n := f.Rects.Len()
					if cap(out) < n {
						out = make([]float64, n)
					}
					kr.fn(geom.Point(q), &f.Rects, out[:n])
				}
			}
			passes = append(passes, float64(time.Since(start))/float64(entries*len(qs)))
		}
		res.set(kr.name, median(passes))
	}
}

// codecProbe encodes every node of the tree with the page codec and
// times decoding them back: per page, the median of five passes.
func codecProbe(res *result, ix *core.Index, dim int) error {
	codec := pagestore.Codec{Dim: dim, PageSize: 4096}
	var pages [][]byte
	var err error
	ix.Tree().Walk(func(n *rtree.Node, _ int) bool {
		var b []byte
		if b, err = codec.Encode(n); err != nil {
			return false
		}
		pages = append(pages, b)
		return true
	})
	if err != nil {
		return fmt.Errorf("encode page: %w", err)
	}
	var times, allocs []float64
	for pass := 0; pass < 5; pass++ {
		m0 := mallocs()
		start := time.Now()
		for _, p := range pages {
			if _, err := codec.Decode(p); err != nil {
				return fmt.Errorf("decode page: %w", err)
			}
		}
		times = append(times, float64(time.Since(start))/1e3/float64(len(pages)))
		allocs = append(allocs, float64(mallocs()-m0)/float64(len(pages)))
	}
	res.set("pagestore.decode_us", median(times))
	res.set("pagestore.decode_allocs", median(allocs))
	return nil
}

// driverProbe runs the queries through the immediate query.Driver, no
// engine: the floor under exec.knn_us.
func driverProbe(res *result, e *env, ix *core.Index, qs [][]float64) error {
	alg, err := core.AlgorithmByName("crss")
	if err != nil {
		return err
	}
	d := query.Driver{Tree: ix.Tree()}
	var total time.Duration
	var nodes, batches, scanned int
	for i, q := range qs {
		start := time.Now()
		_, st, err := d.RunChecked(alg, geom.Point(q), k, query.Options{})
		end := time.Now()
		if err != nil {
			return fmt.Errorf("driver query %d: %w", i, err)
		}
		e.rec.record("query.driver", start, end, 0, 0)
		total += end.Sub(start)
		nodes += st.NodesVisited
		batches += st.Batches
		scanned += st.Scanned
	}
	n := float64(len(qs))
	res.set("query.driver_us", perUS(total, len(qs)))
	res.set("query.nodes_per_query", float64(nodes)/n)
	res.set("query.batches_per_query", float64(batches)/n)
	res.set("query.scanned_per_query", float64(scanned)/n)
	return nil
}

// serveProbe sends the queries, in order, over one connection to the
// engine served through a tap, and reports the server and transport
// layers. It is how workloads whose main phase does not go through
// HTTP measure those layers on their own index and queries.
func serveProbe(res *result, e *env, eng *exec.Engine, pts [][]float64, n int, qs, truth [][]float64) error {
	svc, err := startTapped(eng, e.rec)
	if err != nil {
		return err
	}
	cl := newClient(svc.addr)
	agg := &layerAgg{}
	svc.tap.agg.Store(agg)
	err = func() error {
		for i, q := range qs {
			ref := spanRef{req: e.nextReq(), parent: e.rec.newID()}
			start := time.Now()
			status, body, err := cl.post(knnBody(q), ref)
			end := time.Now()
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("probe request %d: status %d, %v", i, status, err)
			}
			e.rec.add(ref.parent, "client.request", start, end, 0, ref.req)
			agg.addRequest(end.Sub(start))
			var rep knnReply
			if err := json.Unmarshal(body, &rep); err != nil {
				return fmt.Errorf("probe reply %d: %w", i, err)
			}
			ids, dists := rep.answer()
			if err := checkAnswer(pts, n, q, truth[i], ids, dists); err != nil {
				res.wrong("probe query %d: %v", i, err)
			}
		}
		return nil
	}()
	cl.close()
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	agg.setServer(res)
	return nil
}
