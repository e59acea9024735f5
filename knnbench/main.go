// Command knnbench is the repository's end-to-end benchmark: it drives
// the k-NN system through its public Go API and its HTTP service in one
// of three closed-loop workloads, checks every answer against its own
// linear scan, and prints one JSON result line. See README.md.
//
//	knnbench --workload serve-hot-2d --seed 1 --seconds 10 --trace 0
//	knnbench repeat --workloads serve-hot-2d,engine-cold-10d --runs 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// metricUnits gives the unit of every metric the benchmark prints. The
// end-to-end metrics are printed by untraced runs, the per-layer ones
// by traced runs.
var metricUnits = map[string]string{
	// end to end
	"setup_s":            "s",
	"qps":                "1/s",
	"p50_ms":             "ms",
	"p90_ms":             "ms",
	"cpu_us_per_query":   "us",
	"allocs_per_query":   "count",
	"pages_per_query":    "count",
	"heap_mb":            "MiB",
	"ingest_pts_s":       "1/s",
	"recover_s":          "s",
	"write_bytes_per_pt": "B",
	"disk_bytes_per_pt":  "B",
	// per layer
	"server.handler_us":                    "us",
	"server.self_us":                       "us",
	"net.transport_us":                     "us",
	"exec.knn_us":                          "us",
	"exec.stage_us":                        "us",
	"exec.fetch_us":                        "us",
	"exec.sem_wait_us":                     "us",
	"exec.fetches_per_query":               "count",
	"exec.decodes_per_query":               "count",
	"exec.open_ms":                         "ms",
	"bufferpool.hit_ratio":                 "ratio",
	"bufferpool.evictions_per_query":       "count",
	"decluster.balance_ratio":              "ratio",
	"query.driver_us":                      "us",
	"query.nodes_per_query":                "count",
	"query.batches_per_query":              "count",
	"query.scanned_per_query":              "count",
	"geom.dmin_ns_per_entry":               "ns",
	"geom.dmm_ns_per_entry":                "ns",
	"geom.dmax_ns_per_entry":               "ns",
	"pagestore.decode_us":                  "us",
	"pagestore.decode_allocs":              "count",
	"pagestore.commit_ms":                  "ms",
	"pagestore.checkpoint_ms":              "ms",
	"pagestore.wal_appends_per_commit":     "count",
	"pagestore.page_writes_per_checkpoint": "count",
	"pagestore.replayed_records":           "count",
	"rtree.insert_us":                      "us",
	"parallel.build_s":                     "s",
	"trace.overhead_pct":                   "%",
}

// env is one run's settings and scratch space.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string    // scratch directory for data directories
	rec     *recorder // span recorder; nil in untraced runs
	reqs    atomic.Int64
}

// nextReq numbers a traced request; its spans share the number.
func (e *env) nextReq() int64 { return e.reqs.Add(1) }

// setups is how many times a run sets its workload up; setup_s is the
// median. A traced run sets up once: it reports no setup_s.
func (e *env) setups() int {
	if e.trace {
		return 1
	}
	return 3
}

// result is one run's outcome; it prints as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	errs []string // first wrong answers, for the report
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metricValue{}} }

func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("knnbench: unknown metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// wrong records an in-range answer that failed the checker.
func (r *result) wrong(format string, args ...any) {
	r.Correct = false
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*result, error){
	"serve-hot-2d":    runServeHot,
	"engine-cold-10d": runEngineCold,
	"ingest-mixed-2d": runIngestMixed,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "repeat" {
		os.Exit(repeatMain(os.Args[2:]))
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("knnbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-hot-2d, engine-cold-10d or ingest-mixed-2d")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	base := filepath.Join(".bench_build", "knnbench-runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, *workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir}
	if e.trace {
		e.rec = newRecorder()
	}
	res, err := run(e)
	if err != nil {
		return err
	}
	if e.trace {
		path := filepath.Join(".bench_build", fmt.Sprintf("knnbench-trace-%s-seed%d.json", *workload, *seed))
		if err := e.rec.writeChrome(path, *workload); err != nil {
			return fmt.Errorf("write span file: %w", err)
		}
		printSelfTimes(e.rec.selfTimes(), path)
	}
	for _, msg := range res.errs {
		fmt.Fprintln(os.Stderr, "wrong answer:", msg)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d attempted=%d failed=%d correct=%v\n", *workload, *seed, res.Attempted, res.Failed, res.Correct)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-38s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func printSelfTimes(self map[string]selfTime, path string) {
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("spans written to %s; self time per span:\n", path)
	for _, name := range names {
		st := self[name]
		fmt.Printf("  %-28s spans=%-7d total=%12.1fus self=%12.1fus (%.2fus/span)\n",
			name, st.Spans, st.TotalUS, st.SelfUS, st.SelfUS/float64(st.Spans))
	}
}
