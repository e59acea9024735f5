package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// engine-cold-10d: core.Engine.KNN called directly by one caller over a
// durable 10-d index whose engine cache holds about a sixth of the tree.
const (
	coldN     = 20000
	coldDim   = 10
	coldPool  = 256 // queries per round; every round sends the same ones
	coldWarm  = 8   // last queries of a round, sent once before measuring
	coldBlock = 32  // queries per rate sample
)

type engineCold struct {
	pts   [][]float64
	pool  [][]float64
	truth [][]float64
}

type coldSetup struct {
	b    *build
	eng  *core.Engine
	open time.Duration
	took time.Duration
}

func (w *engineCold) setup(e *env, i int) (*coldSetup, error) {
	settle()
	t0 := time.Now()
	b, err := buildDurable(filepath.Join(e.dir, fmt.Sprintf("cold-%d", i)), coldDim, w.pts, coldN)
	if err != nil {
		return nil, err
	}
	s := &coldSetup{b: b}
	t1 := time.Now()
	s.eng, err = b.ix.NewEngine(core.EngineConfig{CachePages: b.ix.Tree().Store().Len() / 6})
	if err != nil {
		return nil, err
	}
	s.open = time.Since(t1)
	if _, _, err := s.eng.KNN(context.Background(), core.Point(w.pool[0]), k, "crss"); err != nil {
		return nil, fmt.Errorf("first query: %w", err)
	}
	s.took = time.Since(t0)
	b.record(e.rec)
	e.rec.record("exec.open", t1, t1.Add(s.open), 0, 0)
	return s, nil
}

func (s *coldSetup) close() error {
	if err := s.eng.Close(); err != nil {
		return err
	}
	return s.b.ix.Close()
}

// loopOut is what a single closed-loop caller saw.
type loopOut struct {
	lat          []time.Duration
	pages        int
	queries      int
	busy         time.Duration // summed query time
	wrongAnswers []string
	// One sample per block of consecutive queries: queries per second
	// of query time, CPU microseconds and allocations per query. Their
	// medians are reported, so that the shared machine slowing down for
	// a moment does not move the result. Every round has the same
	// blocks.
	qpsSamples, cpuSamples, allocSamples []float64
}

func (o *loopOut) qps() float64 { return median(o.qpsSamples) }

// sample adds one block's rates: its query count and summed query time,
// and the process's CPU time and allocations over those queries.
func (o *loopOut) sample(queries int, busy, cpu time.Duration, allocs uint64) {
	n := float64(queries)
	o.qpsSamples = append(o.qpsSamples, n/busy.Seconds())
	o.cpuSamples = append(o.cpuSamples, float64(cpu)/1e3/n)
	o.allocSamples = append(o.allocSamples, float64(allocs)/n)
}

func (o *loopOut) addTo(res *result) {
	res.Attempted += o.queries
	for _, msg := range o.wrongAnswers {
		res.wrong("%s", msg)
	}
}

// setQueries sets the end-to-end per-query metrics of a single caller.
func (o *loopOut) setQueries(res *result) {
	lat := durations(o.lat, time.Millisecond)
	res.set("qps", o.qps())
	res.set("p50_ms", percentile(lat, 50))
	res.set("p90_ms", percentile(lat, 90))
	res.set("cpu_us_per_query", median(o.cpuSamples))
	res.set("allocs_per_query", median(o.allocSamples))
	res.set("pages_per_query", float64(o.pages)/float64(o.queries))
}

// rounds sends whole rounds of the pool's queries from index `from` on
// until d has passed (at least `min` rounds). With agg set each query
// goes through the traced engine path.
func (w *engineCold) rounds(e *env, s *coldSetup, from int, d time.Duration, min int, agg *layerAgg) (loopOut, error) {
	alg, err := core.AlgorithmByName("crss")
	if err != nil {
		return loopOut{}, err
	}
	ctx := context.Background()
	var out loopOut
	deadline := time.Now().Add(d)
	for round := 0; round < min || time.Now().Before(deadline); round++ {
		settle()
		var cpu0 time.Duration
		var m0 uint64
		var busy0 time.Duration
		for i := from; i < len(w.pool); i++ {
			if (i-from)%coldBlock == 0 {
				cpu0, m0, busy0 = cpuTime(), mallocs(), out.busy
			}
			q := w.pool[i]
			var nb []core.Neighbor
			var st *core.QueryStats
			t0 := time.Now()
			if agg != nil {
				nb, st, err = tracedKNN(ctx, s.eng.Exec(), alg, geom.Point(q), k, e.rec, agg, e.nextReq(), 0)
			} else {
				nb, st, err = s.eng.KNN(ctx, core.Point(q), k, "crss")
			}
			took := time.Since(t0)
			if err != nil {
				return loopOut{}, fmt.Errorf("query %d: %w", i, err)
			}
			out.queries++
			out.busy += took
			out.lat = append(out.lat, took)
			out.pages += st.DiskAccesses
			ids, dists := neighbors(nb)
			if err := checkAnswer(w.pts, coldN, q, w.truth[i], ids, dists); err != nil {
				out.wrongAnswers = append(out.wrongAnswers, fmt.Sprintf("query %d: %v", i, err))
			}
			if n := i - from + 1; n%coldBlock == 0 || i == len(w.pool)-1 {
				out.sample((n-1)%coldBlock+1, out.busy-busy0, cpuTime()-cpu0, mallocs()-m0)
			}
		}
	}
	return out, nil
}

// neighbors splits an answer into ids and squared distances.
func neighbors(nb []core.Neighbor) ([]int64, []float64) {
	ids := make([]int64, len(nb))
	dists := make([]float64, len(nb))
	for i, n := range nb {
		ids[i], dists[i] = int64(n.Object), n.DistSq
	}
	return ids, dists
}

func runEngineCold(e *env) (*result, error) {
	w := &engineCold{pts: gaussian(coldN, coldDim, dataSeed)}
	w.pool = sampleQueries(w.pts, coldN, coldPool, 1e-3, e.seed)
	for _, q := range w.pool {
		w.truth = append(w.truth, kNearest(w.pts, coldN, q, k))
	}
	res := newResult()
	var setups []float64
	var loads []*build
	var rec recovery
	var s *coldSetup
	for i := 0; i < e.setups(); i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			if err := rec.add(e, s.b, coldDim); err != nil {
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
	// The cache holds what the last few queries touched, so sending the
	// pool's last queries once brings it to the state every round
	// starts from.
	warm, err := w.rounds(e, s, coldPool-coldWarm, 0, 1, nil)
	if err != nil {
		return nil, err
	}
	for _, msg := range warm.wrongAnswers {
		res.wrong("%s", msg)
	}
	if !e.trace {
		out, err := w.rounds(e, s, 0, e.seconds, 1, nil)
		if err != nil {
			return nil, err
		}
		out.addTo(res)
		out.setQueries(res)
		res.set("setup_s", median(setups))
		res.set("heap_mb", liveHeapMiB())
	} else {
		// A 10-d query makes about a thousand spans: keep the probe's
		// and a few dozen of the traced run's.
		e.rec.keepRequests(50)
		if err := serveProbe(res, e, s.eng.Exec(), w.pts, coldN, w.pool[:16], w.truth[:16]); err != nil {
			return nil, err
		}
		plain, err := w.rounds(e, s, 0, e.seconds/2, 1, nil)
		if err != nil {
			return nil, err
		}
		plain.addTo(res)
		agg := &layerAgg{}
		snap0 := s.eng.Snapshot()
		traced, err := w.rounds(e, s, 0, e.seconds/2, 1, agg)
		if err != nil {
			return nil, err
		}
		traced.addTo(res)
		agg.setExec(res, s.eng.Snapshot().Sub(snap0))
		res.set("trace.overhead_pct", 100*(plain.qps()-traced.qps())/plain.qps())
		res.set("exec.open_ms", float64(s.open)/1e6)
		kernelProbe(res, s.b.ix, w.pool[:8])
		if err := codecProbe(res, s.b.ix, coldDim); err != nil {
			return nil, err
		}
		if err := driverProbe(res, e, s.b.ix, w.pool); err != nil {
			return nil, err
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	if err := rec.add(e, s.b, coldDim); err != nil {
		return nil, err
	}
	if e.trace {
		s.b.setLayers(res, &rec)
		return res, nil
	}
	return res, setLoad(res, loads, &rec)
}
