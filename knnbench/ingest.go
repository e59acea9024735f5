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

// ingest-mixed-2d: writes beside reads on a durable 2-d index. Set-up
// loads, commits and checkpoints half of the set. Each measured round
// starts from a copy of that directory and repeats a cycle: insert a
// batch, commit, run a few queries through Index.KNN; it checkpoints
// every few cycles, ends with a WAL tail, and is closed and recovered.
// Every round does the same operations on the same inputs.
const (
	ingestN         = 20000
	ingestBase      = ingestN / 2 // loaded in set-up
	ingestBatch     = 100         // points per cycle
	ingestCycles    = 20          // cycles per round
	ingestCkptEvery = 8           // cycles between checkpoints
	ingestQueries   = 16          // queries per cycle
)

type ingestMixed struct {
	pts  [][]float64
	pool [][]float64 // ingestCycles*ingestQueries queries, one round's
}

type ingestSetup struct {
	b    *build
	took time.Duration
}

func (w *ingestMixed) setup(e *env, i int) (*ingestSetup, error) {
	settle()
	t0 := time.Now()
	b, err := buildDurable(filepath.Join(e.dir, fmt.Sprintf("ingest-%d", i)), 2, w.pts, ingestBase)
	if err != nil {
		return nil, err
	}
	if _, _, err := b.ix.KNN(core.Point(w.pool[0]), k, "crss"); err != nil {
		return nil, fmt.Errorf("first query: %w", err)
	}
	took := time.Since(t0)
	b.record(e.rec)
	return &ingestSetup{b: b, took: took}, b.ix.Close()
}

// roundOut is what one round did and cost.
type roundOut struct {
	q       loopOut
	points  int
	insert  time.Duration
	commit  time.Duration
	commits int
	ckpt    time.Duration
	ckpts   int

	rates                           []float64 // points per second of each cycle's writes
	walAppends, pageWrites, written uint64
	committed                       int
	diskBytes                       int64
	heap                            float64
	recover                         time.Duration
	replayed                        uint64
	recoveryChecks                  int // queries checked after recovery
}

// round runs one round from a copy of the base directory in dir and
// returns the round's directory recovered. Spans go to rec.
func (w *ingestMixed) round(e *env, rec *recorder, base, dir string, r int) (roundOut, *core.Index, error) {
	var out roundOut
	if err := copyDir(base, dir); err != nil {
		return out, nil, err
	}
	ix, _, err := recoverIndex(dir, 2, ingestBase)
	if err != nil {
		return out, nil, err
	}
	out.committed = ingestBase
	settle()
	truths := make([][]float64, ingestQueries)
	answers := make([][]core.Neighbor, ingestQueries)
	for c := 0; c < ingestCycles; c++ {
		req := e.nextReq()
		cycleID := rec.newID()
		cycleStart := time.Now()
		w0, err := writtenBytes()
		if err != nil {
			return out, nil, err
		}
		t0 := time.Now()
		for i := out.committed; i < out.committed+ingestBatch; i++ {
			if err := ix.Insert(core.Point(w.pts[i]), core.ObjectID(i)); err != nil {
				return out, nil, fmt.Errorf("insert %d: %w", i, err)
			}
		}
		t1 := time.Now()
		s0 := ix.StorageStats()
		if err := ix.Commit(); err != nil {
			return out, nil, fmt.Errorf("commit: %w", err)
		}
		t2 := time.Now()
		s1 := ix.StorageStats()
		out.committed += ingestBatch
		rec.record("rtree.insert", t0, t1, cycleID, req)
		rec.record("pagestore.commit", t1, t2, cycleID, req)
		out.insert += t1.Sub(t0)
		out.commit += t2.Sub(t1)
		out.commits++
		out.walAppends += s1.WALAppends - s0.WALAppends
		t3 := t2
		if c%ingestCkptEvery == ingestCkptEvery-1 {
			if err := ix.Checkpoint(); err != nil {
				return out, nil, fmt.Errorf("checkpoint: %w", err)
			}
			t3 = time.Now()
			rec.record("pagestore.checkpoint", t2, t3, cycleID, req)
			out.ckpt += t3.Sub(t2)
			out.ckpts++
			out.pageWrites += ix.StorageStats().PageWrites - s1.PageWrites
		}
		w1, err := writtenBytes()
		if err != nil {
			return out, nil, err
		}
		out.written += w1 - w0
		out.points += ingestBatch
		out.rates = append(out.rates, ingestBatch/t3.Sub(t0).Seconds())

		qs := w.pool[c*ingestQueries : (c+1)*ingestQueries]
		for j, q := range qs {
			truths[j] = kNearest(w.pts, out.committed, q, k)
		}
		cpu0, m0, busy0 := cpuTime(), mallocs(), out.q.busy
		for j, q := range qs {
			t := time.Now()
			nb, st, err := ix.KNN(core.Point(q), k, "crss")
			took := time.Since(t)
			if err != nil {
				return out, nil, fmt.Errorf("query: %w", err)
			}
			rec.record("query.knn", t, t.Add(took), cycleID, req)
			answers[j] = nb
			out.q.queries++
			out.q.busy += took
			out.q.lat = append(out.q.lat, took)
			out.q.pages += st.DiskAccesses
		}
		out.q.sample(len(qs), out.q.busy-busy0, cpuTime()-cpu0, mallocs()-m0)
		for j, q := range qs {
			ids, dists := neighbors(answers[j])
			if err := checkAnswer(w.pts, out.committed, q, truths[j], ids, dists); err != nil {
				out.q.wrongAnswers = append(out.q.wrongAnswers, fmt.Sprintf("round %d cycle %d query %d: %v", r, c, j, err))
			}
		}
		rec.add(cycleID, "ingest.cycle", cycleStart, time.Now(), 0, req)
	}
	out.heap = liveHeapMiB()
	if err := ix.Close(); err != nil {
		return out, nil, err
	}
	if out.diskBytes, err = dirBytes(dir); err != nil {
		return out, nil, err
	}
	rix, took, err := recoverIndex(dir, 2, out.committed)
	if err != nil {
		return out, nil, err
	}
	rec.record("pagestore.recover", time.Now().Add(-took), time.Now(), 0, e.nextReq())
	out.recover = took
	out.replayed = rix.StorageStats().ReplayedRecords
	q := w.pool[0]
	nb, _, err := rix.KNN(core.Point(q), k, "crss")
	if err != nil {
		return out, nil, fmt.Errorf("query after recovery: %w", err)
	}
	ids, dists := neighbors(nb)
	if err := checkAnswer(w.pts, out.committed, q, kNearest(w.pts, out.committed, q, k), ids, dists); err != nil {
		out.q.wrongAnswers = append(out.q.wrongAnswers, fmt.Sprintf("round %d after recovery: %v", r, err))
	}
	out.recoveryChecks++
	return out, rix, nil
}

// rounds runs whole rounds until d has passed (at least min). It
// returns the last round's recovered index open when keep is set.
func (w *ingestMixed) rounds(e *env, rec *recorder, base string, d time.Duration, min int, keep bool) ([]roundOut, *core.Index, error) {
	var outs []roundOut
	var ix *core.Index
	var dir string
	deadline := time.Now().Add(d)
	for r := 0; r < min || time.Now().Before(deadline); r++ {
		if ix != nil {
			if err := ix.Close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
		dir = filepath.Join(e.dir, fmt.Sprintf("round-%d", r))
		out, rix, err := w.round(e, rec, base, dir, r)
		if err != nil {
			return nil, nil, err
		}
		outs, ix = append(outs, out), rix
	}
	if keep {
		return outs, ix, nil
	}
	if err := ix.Close(); err != nil {
		return nil, nil, err
	}
	return outs, nil, os.RemoveAll(dir)
}

// addTo counts the round's checked queries as attempted operations.
func (o *roundOut) addTo(res *result) {
	o.q.addTo(res)
	res.Attempted += o.recoveryChecks
}

// sum merges rounds; the per-round lists give each round's heap,
// recovery time and WAL records replayed.
func sum(outs []roundOut) (all roundOut, heaps, recovers, replayed []float64) {
	for _, o := range outs {
		all.q.qpsSamples = append(all.q.qpsSamples, o.q.qpsSamples...)
		all.q.cpuSamples = append(all.q.cpuSamples, o.q.cpuSamples...)
		all.q.allocSamples = append(all.q.allocSamples, o.q.allocSamples...)
		all.rates = append(all.rates, o.rates...)
		all.q.lat = append(all.q.lat, o.q.lat...)
		all.q.pages += o.q.pages
		all.q.queries += o.q.queries
		all.q.busy += o.q.busy
		all.q.wrongAnswers = append(all.q.wrongAnswers, o.q.wrongAnswers...)
		all.recoveryChecks += o.recoveryChecks
		all.points += o.points
		all.insert += o.insert
		all.commit += o.commit
		all.commits += o.commits
		all.ckpt += o.ckpt
		all.ckpts += o.ckpts
		all.walAppends += o.walAppends
		all.pageWrites += o.pageWrites
		all.written += o.written
		all.committed = o.committed
		all.diskBytes = o.diskBytes
		heaps = append(heaps, o.heap)
		recovers = append(recovers, o.recover.Seconds())
		replayed = append(replayed, float64(o.replayed))
	}
	return all, heaps, recovers, replayed
}

func runIngestMixed(e *env) (*result, error) {
	w := &ingestMixed{pts: longBeachLike(ingestN, dataSeed)}
	w.pool = sampleQueries(w.pts, ingestBase, ingestCycles*ingestQueries, 1e-4, e.seed)
	res := newResult()
	var setups []float64
	var s *ingestSetup
	for i := 0; i < e.setups(); i++ {
		if s != nil {
			if err := os.RemoveAll(s.b.dir); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = w.setup(e, i); err != nil {
			return nil, err
		}
		setups = append(setups, s.took.Seconds())
	}
	base := s.b.dir
	if !e.trace {
		outs, _, err := w.rounds(e, nil, base, e.seconds, 3, false)
		if err != nil {
			return nil, err
		}
		all, heaps, recovers, _ := sum(outs)
		all.addTo(res)
		all.q.setQueries(res)
		res.set("setup_s", median(setups))
		res.set("heap_mb", median(heaps))
		res.set("ingest_pts_s", median(all.rates))
		res.set("recover_s", median(recovers))
		res.set("write_bytes_per_pt", float64(all.written)/float64(all.points))
		res.set("disk_bytes_per_pt", float64(all.diskBytes)/float64(all.committed))
		return res, nil
	}

	plainOuts, _, err := w.rounds(e, nil, base, e.seconds/2, 1, false)
	if err != nil {
		return nil, err
	}
	plain, _, _, _ := sum(plainOuts)
	plain.addTo(res)
	tracedOuts, ix, err := w.rounds(e, e.rec, base, e.seconds/2, 1, true)
	if err != nil {
		return nil, err
	}
	traced, _, _, replayed := sum(tracedOuts)
	traced.addTo(res)
	res.set("trace.overhead_pct", 100*(plain.q.qps()-traced.q.qps())/plain.q.qps())
	res.set("parallel.build_s", s.b.insert.Seconds())
	res.set("rtree.insert_us", perUS(traced.insert, traced.points))
	res.set("pagestore.commit_ms", float64(traced.commit)/1e6/float64(traced.commits))
	res.set("pagestore.checkpoint_ms", float64(traced.ckpt)/1e6/float64(traced.ckpts))
	res.set("pagestore.wal_appends_per_commit", float64(traced.walAppends)/float64(traced.commits))
	res.set("pagestore.page_writes_per_checkpoint", float64(traced.pageWrites)/float64(traced.ckpts))
	res.set("pagestore.replayed_records", median(replayed))
	err = w.probe(res, e, ix, traced.committed)
	if cerr := ix.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// probe measures, on the final recovered index, the layers the ingest
// cycle itself does not go through: the kernels, the page codec, the
// immediate driver, and an engine and the HTTP service over the index.
func (w *ingestMixed) probe(res *result, e *env, ix *core.Index, committed int) error {
	kernelProbe(res, ix, w.pool[:16])
	if err := codecProbe(res, ix, 2); err != nil {
		return err
	}
	if err := driverProbe(res, e, ix, w.pool); err != nil {
		return err
	}
	t0 := time.Now()
	eng, err := ix.NewEngine(core.EngineConfig{CachePages: 2 * ix.Tree().Store().Len()})
	if err != nil {
		return err
	}
	res.set("exec.open_ms", float64(time.Since(t0))/1e6)
	alg, err := core.AlgorithmByName("crss")
	if err != nil {
		return err
	}
	truth := make([][]float64, len(w.pool))
	for i, q := range w.pool {
		truth[i] = kNearest(w.pts, committed, q, k)
	}
	agg := &layerAgg{}
	snap0 := eng.Snapshot()
	for i, q := range w.pool {
		nb, _, err := tracedKNN(context.Background(), eng.Exec(), alg, geom.Point(q), k, e.rec, agg, e.nextReq(), 0)
		if err != nil {
			eng.Close()
			return fmt.Errorf("engine probe query %d: %w", i, err)
		}
		ids, dists := neighbors(nb)
		if err := checkAnswer(w.pts, committed, q, truth[i], ids, dists); err != nil {
			res.wrong("engine probe query %d: %v", i, err)
		}
	}
	agg.setExec(res, eng.Snapshot().Sub(snap0))
	if err := serveProbe(res, e, eng.Exec(), w.pts, committed, w.pool, truth); err != nil {
		eng.Close()
		return err
	}
	return eng.Close()
}
