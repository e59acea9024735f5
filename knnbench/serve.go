package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// serve-hot-2d: HTTP/JSON kNN through the service on loopback, one
// closed-loop caller on one keep-alive connection, over a 2-d set
// whose whole tree fits the engine cache. Two callers on the two cores
// of the machine it was tuned on made whole runs settle at rates up to
// 30% apart, so one caller drives it.
const (
	serveN     = 20000
	servePool  = 4096 // distinct in-range queries
	serveRound = 1000 // requests per round ...
	serveFarAt = 500  // ... of which this one is a far query
	serveWarm  = 500  // unmeasured requests before measuring
)

// serveHot holds the workload's inputs and what the checker needs.
type serveHot struct {
	pts    [][]float64
	pool   [][]float64
	truth  [][]float64 // kNearest of each pool query
	bodies [][]byte
	far    [][]byte

	farTruths map[int]*exactTruth // computed on first use
}

func newServeHot(seed int64) *serveHot {
	w := &serveHot{pts: californiaLike(serveN, dataSeed), farTruths: map[int]*exactTruth{}}
	w.pool = sampleQueries(w.pts, serveN, servePool, 1e-4, seed)
	for _, q := range w.pool {
		w.truth = append(w.truth, kNearest(w.pts, serveN, q, k))
		w.bodies = append(w.bodies, knnBody(q))
	}
	for _, q := range farQueries {
		w.far = append(w.far, knnBody(q))
	}
	return w
}

// farAccepted judges the reply to far query f: a 400, or exactly the k
// nearest by exact arithmetic. Anything else is a failed operation.
func (w *serveHot) farAccepted(f, status int, body []byte) bool {
	if status == http.StatusBadRequest {
		return true
	}
	var rep knnReply
	if status != http.StatusOK || json.Unmarshal(body, &rep) != nil {
		return false
	}
	t, ok := w.farTruths[f]
	if !ok {
		t = newExactTruth(w.pts, farQueries[f], k)
		w.farTruths[f] = t
	}
	ids, _ := rep.answer()
	return t.check(ids) == nil
}

// serveSetup is one set-up of the workload: the durable index, the
// engine over it and the running service.
type serveSetup struct {
	b    *build
	eng  *core.Engine
	srv  *server.Server // untraced runs: the service's own listener
	svc  *tappedService // traced runs: the benchmark's listener
	addr string
	open time.Duration // engine open
	took time.Duration // generated inputs to first accepted query
}

func (w *serveHot) setup(e *env, i int) (*serveSetup, error) {
	settle()
	t0 := time.Now()
	b, err := buildDurable(filepath.Join(e.dir, fmt.Sprintf("serve-%d", i)), 2, w.pts, serveN)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{b: b}
	t1 := time.Now()
	s.eng, err = b.ix.NewEngine(core.EngineConfig{CachePages: 2 * b.ix.Tree().Store().Len()})
	if err != nil {
		return nil, err
	}
	s.open = time.Since(t1)
	if e.trace {
		if s.svc, err = startTapped(s.eng.Exec(), e.rec); err != nil {
			return nil, err
		}
		s.addr = s.svc.addr
	} else {
		if s.srv, err = server.New(server.Config{Backend: s.eng.Exec()}); err != nil {
			return nil, err
		}
		if err := s.srv.Start("127.0.0.1:0", "", ""); err != nil {
			return nil, err
		}
		s.addr = s.srv.Addr().String()
	}
	cl := newClient(s.addr)
	status, _, err := cl.post(w.bodies[0], spanRef{})
	cl.close()
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("first query: status %d, %v", status, err)
	}
	s.took = time.Since(t0)
	b.record(e.rec)
	e.rec.record("exec.open", t1, t1.Add(s.open), 0, 0)
	return s, nil
}

// close stops the service and the engine and closes the index.
func (s *serveSetup) close() error {
	if s.srv != nil {
		if err := s.srv.Close(); err != nil {
			return err
		}
	}
	if s.svc != nil {
		if err := s.svc.close(); err != nil {
			return err
		}
	}
	if err := s.eng.Close(); err != nil {
		return err
	}
	return s.b.ix.Close()
}

// callerOut is what the closed-loop caller saw.
type callerOut struct {
	p50, p90                  []float64 // ms, of each round's in-range requests
	pages, inRange, attempted int
	failed                    int
	rounds                    []time.Duration
	wrong                     []string
}

// caller sends whole rounds of serveRound requests for d (at least one
// round), or serveWarm in-range requests when warm. With agg set, it
// times and spans every request for the traced run. Its rate is the
// in-range replies per second of its median round, and its latency
// percentiles are taken per round, so that a stall of the machine
// during some rounds, which puts their slow replies in the tail, moves
// them less.
func (w *serveHot) caller(addr string, d time.Duration, warm bool, e *env, agg *layerAgg) (callerOut, float64) {
	cl := newClient(addr)
	defer cl.close()
	var out callerOut
	var lat []float64 // this round's
	pos := 0
	inRange := func() {
		q := pos % servePool
		pos++
		var ref spanRef
		if agg != nil {
			ref = spanRef{req: e.nextReq(), parent: e.rec.newID()}
		}
		t0 := time.Now()
		status, body, err := cl.post(w.bodies[q], ref)
		t1 := time.Now()
		if agg != nil {
			e.rec.add(ref.parent, "client.request", t0, t1, 0, ref.req)
			agg.addRequest(t1.Sub(t0))
		}
		if !warm {
			out.attempted++
		}
		var rep knnReply
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &rep)
		}
		if err == nil {
			ids, dists := rep.answer()
			err = checkAnswer(w.pts, serveN, w.pool[q], w.truth[q], ids, dists)
		}
		if err != nil {
			out.wrong = append(out.wrong, fmt.Sprintf("query %d: %v", q, err))
			return
		}
		if !warm {
			out.inRange++
			lat = append(lat, float64(t1.Sub(t0))/1e6)
			out.pages += rep.Stats.DiskAccesses
		}
	}
	if warm {
		for i := 0; i < serveWarm; i++ {
			inRange()
		}
		return out, 0
	}
	settle()
	deadline := time.Now().Add(d)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		start := time.Now()
		for i := 0; i < serveRound; i++ {
			if i != serveFarAt {
				inRange()
				continue
			}
			f := round % len(farQueries)
			status, body, err := cl.post(w.far[f], spanRef{})
			out.attempted++
			if err != nil || !w.farAccepted(f, status, body) {
				out.failed++
			}
		}
		out.rounds = append(out.rounds, time.Since(start))
		out.p50 = append(out.p50, percentile(lat, 50))
		out.p90 = append(out.p90, percentile(lat, 90))
		lat = lat[:0]
	}
	return out, (serveRound - 1) / median(durations(out.rounds, time.Second))
}

func (o callerOut) addTo(res *result) {
	res.Attempted += o.attempted
	res.Failed += o.failed
	for _, msg := range o.wrong {
		res.wrong("%s", msg)
	}
}

func runServeHot(e *env) (*result, error) {
	w := newServeHot(e.seed)
	res := newResult()
	var setups []float64
	var loads []*build
	var rec recovery
	var s *serveSetup
	for i := 0; i < e.setups(); i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			if err := rec.add(e, s.b, 2); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(s.b.dir); err != nil {
				return nil, err
			}
			s.b.ix = nil // keep the load's figures, not its tree
		}
		var err error
		if s, err = w.setup(e, i); err != nil {
			return nil, err
		}
		setups = append(setups, s.took.Seconds())
		loads = append(loads, s.b)
	}
	warm, _ := w.caller(s.addr, 0, true, e, nil)
	warm.addTo(res)

	if !e.trace {
		cpu0, m0 := cpuTime(), mallocs()
		out, qps := w.caller(s.addr, e.seconds, false, e, nil)
		cpu, allocs := cpuTime()-cpu0, mallocs()-m0
		out.addTo(res)
		n := float64(out.inRange)
		res.set("setup_s", median(setups))
		res.set("qps", qps)
		res.set("p50_ms", median(out.p50))
		res.set("p90_ms", median(out.p90))
		res.set("cpu_us_per_query", float64(cpu)/1e3/n)
		res.set("allocs_per_query", float64(allocs)/n)
		res.set("pages_per_query", float64(out.pages)/n)
		res.set("heap_mb", liveHeapMiB())
	} else {
		plain, qpsPlain := w.caller(s.addr, e.seconds/2, false, e, nil)
		plain.addTo(res)
		agg := &layerAgg{}
		snap0 := s.eng.Snapshot()
		s.svc.tap.agg.Store(agg)
		traced, qpsTraced := w.caller(s.addr, e.seconds/2, false, e, agg)
		s.svc.tap.agg.Store(nil)
		traced.addTo(res)
		agg.setServer(res)
		agg.setExec(res, s.eng.Snapshot().Sub(snap0))
		res.set("trace.overhead_pct", 100*(qpsPlain-qpsTraced)/qpsPlain)
		res.set("exec.open_ms", float64(s.open)/1e6)
		kernelProbe(res, s.b.ix, w.pool[:16])
		if err := codecProbe(res, s.b.ix, 2); err != nil {
			return nil, err
		}
		if err := driverProbe(res, e, s.b.ix, w.pool[:1000]); err != nil {
			return nil, err
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	if err := rec.add(e, s.b, 2); err != nil {
		return nil, err
	}
	if e.trace {
		s.b.setLayers(res, &rec)
		return res, nil
	}
	return res, setLoad(res, loads, &rec)
}
