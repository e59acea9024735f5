package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

const (
	numDisks = 10 // width of the disk array in every workload
	k        = 10 // neighbours per query
)

// build is one durable index loaded from generated points, with what
// its load cost.
type build struct {
	ix    *core.Index
	dir   string
	n     int // points loaded
	start time.Time

	insert, commit, checkpoint time.Duration
	walAppends, pageWrites     uint64 // by the commit and the checkpoint
	written                    uint64 // wchar over insert, commit and checkpoint
}

// buildDurable creates a durable index under dir, inserts pts[:n] one
// by one with ids 0..n-1 (the paper builds its trees incrementally),
// commits and checkpoints.
func buildDurable(dir string, dim int, pts [][]float64, n int) (*build, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ix, err := core.NewIndex(core.IndexConfig{Dim: dim, NumDisks: numDisks, DataDir: dir})
	if err != nil {
		return nil, fmt.Errorf("open index: %w", err)
	}
	b := &build{ix: ix, dir: dir, n: n}
	if err := b.load(pts); err != nil {
		ix.Close()
		return nil, err
	}
	return b, nil
}

func (b *build) load(pts [][]float64) error {
	w0, err := writtenBytes()
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < b.n; i++ {
		if err := b.ix.Insert(core.Point(pts[i]), core.ObjectID(i)); err != nil {
			return fmt.Errorf("insert %d: %w", i, err)
		}
	}
	t1 := time.Now()
	s0 := b.ix.StorageStats()
	if err := b.ix.Commit(); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	t2 := time.Now()
	s1 := b.ix.StorageStats()
	if err := b.ix.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	t3 := time.Now()
	s2 := b.ix.StorageStats()
	w1, err := writtenBytes()
	if err != nil {
		return err
	}
	b.start = t0
	b.insert, b.commit, b.checkpoint = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	b.walAppends = s1.WALAppends - s0.WALAppends
	b.pageWrites = s2.PageWrites - s1.PageWrites
	b.written = w1 - w0
	return nil
}

// loadRate is points inserted and committed per second of the load.
func (b *build) loadRate() float64 {
	return float64(b.n) / (b.insert + b.commit + b.checkpoint).Seconds()
}

// recoverIndex opens a closed data directory, which recovers it, and
// checks that it holds exactly want committed objects and passes the
// index's own invariant check. The caller closes the index.
func recoverIndex(dir string, dim, want int) (*core.Index, time.Duration, error) {
	settle()
	t0 := time.Now()
	ix, err := core.NewIndex(core.IndexConfig{Dim: dim, NumDisks: numDisks, DataDir: dir})
	took := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("recover %s: %w", dir, err)
	}
	if got := ix.Recovered(); got != want {
		ix.Close()
		return nil, 0, fmt.Errorf("recovered %d objects, %d were committed", got, want)
	}
	if err := ix.Check(); err != nil {
		ix.Close()
		return nil, 0, fmt.Errorf("recovered index: %w", err)
	}
	return ix, took, nil
}

// recoverCopies recovers `copies` fresh copies of the closed directory
// src and returns the recovery times and the WAL records each replayed.
func recoverCopies(src, scratch string, dim, want, copies int) ([]time.Duration, uint64, error) {
	var times []time.Duration
	var replayed uint64
	for i := 0; i < copies; i++ {
		dst := filepath.Join(scratch, fmt.Sprintf("recover-%d", i))
		if err := copyDir(src, dst); err != nil {
			return nil, 0, err
		}
		ix, took, err := recoverIndex(dst, dim, want)
		if err != nil {
			return nil, 0, err
		}
		replayed = ix.StorageStats().ReplayedRecords
		if err := ix.Close(); err != nil {
			return nil, 0, err
		}
		if err := os.RemoveAll(dst); err != nil {
			return nil, 0, err
		}
		times = append(times, took)
	}
	return times, replayed, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// recovery collects the times of recovering copies of closed data
// directories. The read workloads take five after closing each set-up,
// so that the samples spread over the run instead of sharing one moment
// of the machine.
type recovery struct {
	times    []time.Duration
	replayed uint64 // WAL records each recovery applied
}

// add recovers five fresh copies of the closed directory of b.
func (r *recovery) add(e *env, b *build, dim int) error {
	times, replayed, err := recoverCopies(b.dir, e.dir, dim, b.n, 5)
	if err != nil {
		return err
	}
	r.times = append(r.times, times...)
	r.replayed = replayed
	return nil
}

// setLoad sets the end-to-end metrics of a workload whose durable load
// happens in set-up: the median over the set-ups of the load's rate and
// write volume, the size of the last load's closed directory, and the
// median recovery time.
func setLoad(res *result, loads []*build, rec *recovery) error {
	last := loads[len(loads)-1]
	size, err := dirBytes(last.dir)
	if err != nil {
		return err
	}
	var rates, written []float64
	for _, b := range loads {
		rates = append(rates, b.loadRate())
		written = append(written, float64(b.written)/float64(b.n))
	}
	res.set("ingest_pts_s", median(rates))
	res.set("write_bytes_per_pt", median(written))
	res.set("disk_bytes_per_pt", float64(size)/float64(last.n))
	res.set("recover_s", median(durations(rec.times, time.Second)))
	return nil
}

// setLayers sets the per-layer metrics of the load.
func (b *build) setLayers(res *result, rec *recovery) {
	res.set("parallel.build_s", b.insert.Seconds())
	res.set("rtree.insert_us", perUS(b.insert, b.n))
	res.set("pagestore.commit_ms", float64(b.commit)/1e6)
	res.set("pagestore.checkpoint_ms", float64(b.checkpoint)/1e6)
	res.set("pagestore.wal_appends_per_commit", float64(b.walAppends))
	res.set("pagestore.page_writes_per_checkpoint", float64(b.pageWrites))
	res.set("pagestore.replayed_records", float64(rec.replayed))
}

// record adds the load's spans.
func (b *build) record(rec *recorder) {
	t1 := b.start.Add(b.insert)
	t2 := t1.Add(b.commit)
	rec.record("parallel.build", b.start, t1, 0, 0)
	rec.record("pagestore.commit", t1, t2, 0, 0)
	rec.record("pagestore.checkpoint", t2, t2.Add(b.checkpoint), 0, 0)
}
