package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(r)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), so that spreads read the same as in that tool.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// cpuTime is the CPU time the whole process has used so far, user plus
// system, from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// settle runs a full collection before a timed operation, so that each
// one starts from the same collector state. Without it a repeated
// operation meets a collection at a phase that depends on the work
// done before it in the run, which moves short timings run by run.
func settle() { runtime.GC() }

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// writtenBytes is the process's wchar from /proc/self/io: bytes passed
// to write-family system calls so far.
func writtenBytes() (uint64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("wchar: ")); ok {
			return strconv.ParseUint(string(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/self/io")
}
