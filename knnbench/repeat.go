package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatMain runs workloads many times, each run with its own seed, and
// prints each metric's median, quartiles and spread — the distance
// between the quartiles as a share of the median. Successive runs
// alternate the order of the workloads. With --sets 2 it repeats the
// whole series with the same seeds and prints how far the second set's
// median moved from the first's, against the bound in BENCHMARK.json.
//
//	knnbench repeat --workloads serve-hot-2d,ingest-mixed-2d --runs 10 --sets 2
func repeatMain(args []string) int {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	names := fs.String("workloads", "serve-hot-2d,engine-cold-10d,ingest-mixed-2d", "comma-separated workloads")
	runs := fs.Int("runs", 10, "runs per workload and set")
	sets := fs.Int("sets", 1, "sets of runs")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "passed to every run")
	benchFile := fs.String("bench", "BENCHMARK.json", "file holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bounds, better := readBounds(*benchFile)
	wls := strings.Split(*names, ",")
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "repeat:", err)
		return 1
	}
	// values[workload][metric][set] holds one value per run; shares the
	// failed share of each set.
	values := map[string]map[string][][]float64{}
	shares := map[string][]map[float64]bool{}
	for _, w := range wls {
		values[w] = map[string][][]float64{}
		shares[w] = make([]map[float64]bool, *sets)
	}
	for set := 0; set < *sets; set++ {
		for i := 0; i < *runs; i++ {
			order := append([]string(nil), wls...)
			if i%2 == 1 {
				for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
					order[a], order[b] = order[b], order[a]
				}
			}
			for _, w := range order {
				s := *seed + int64(i)
				res, err := runOnce(self, w, s, *seconds, *trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "repeat: %s seed %d: %v\n", w, s, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "repeat: %s seed %d: wrong answers\n", w, s)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d: attempted %d failed %d\n", set+1, i+1, w, s, res.Attempted, res.Failed)
				if shares[w][set] == nil {
					shares[w][set] = map[float64]bool{}
				}
				shares[w][set][float64(res.Failed)/float64(res.Attempted)] = true
				for name, m := range res.Metrics {
					v := values[w][name]
					for len(v) < *sets {
						v = append(v, nil)
					}
					v[set] = append(v[set], m.Value)
					values[w][name] = v
				}
			}
		}
	}
	for _, w := range wls {
		fmt.Printf("%s (%d runs x %d sets, failed share per set: %v)\n", w, *runs, *sets, shareList(shares[w]))
		fmt.Printf("  %-38s %14s %14s %14s %8s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "shift", "bound")
		metrics := make([]string, 0, len(values[w]))
		for name := range values[w] {
			metrics = append(metrics, name)
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			v := values[w][name]
			q1, med, q3 := quartiles(v[0])
			line := fmt.Sprintf("  %-38s %14.6g %14.6g %14.6g %7.2f%%", name, med, q1, q3, 100*(q3-q1)/med)
			if len(v) > 1 && len(v[1]) > 0 {
				_, med2, _ := quartiles(v[1])
				shift := (med2 - med) / med
				if better[name] == "higher" {
					shift = -shift
				}
				line += fmt.Sprintf(" %7.2f%%", 100*shift)
			} else {
				line += fmt.Sprintf(" %8s", "")
			}
			if b, ok := bounds[name]; ok {
				line += fmt.Sprintf(" %7.1f%%", 100*b)
			}
			fmt.Println(line)
		}
	}
	return 0
}

// runOnce runs the benchmark once in a child process and parses its
// last output line.
func runOnce(self, workload string, seed int64, seconds, trace int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// readBounds reads the end-to-end bounds and every metric's better
// direction from the benchmark file; missing file, no bounds.
func readBounds(path string) (map[string]float64, map[string]string) {
	bounds, better := map[string]float64{}, map[string]string{}
	b, err := os.ReadFile(path)
	if err != nil {
		return bounds, better
	}
	var doc struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "repeat: %s: %v\n", path, err)
		return bounds, better
	}
	for _, m := range doc.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range doc.PerLayer {
		better[m.Name] = m.Better
	}
	return bounds, better
}

func shareList(sets []map[float64]bool) string {
	var parts []string
	for _, s := range sets {
		var vs []string
		for v := range s {
			vs = append(vs, strconv.FormatFloat(v, 'g', -1, 64))
		}
		sort.Strings(vs)
		parts = append(parts, "{"+strings.Join(vs, " ")+"}")
	}
	return strings.Join(parts, " ")
}
