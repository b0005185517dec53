package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// meter samples wall time, process CPU time (getrusage user+sys) and the
// cumulative heap allocation counter together, so a timed region can be
// paused and resumed without mixing in untimed work.
type meter struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

type sample struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func now() sample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	m := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(m)
	return sample{wall: time.Now(), cpu: cpu, alloc: m[0].Value.Uint64()}
}

// add accumulates the interval from s to now.
func (m *meter) add(s sample) {
	e := now()
	m.wall += e.wall.Sub(s.wall)
	m.cpu += e.cpu - s.cpu
	m.alloc += e.alloc - s.alloc
}

// liveHeap forces a collection and returns the bytes it found live.
func liveHeap() int64 {
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return int64(m[0].Value.Uint64())
}

// peakRSS is the process's resident-set high-water mark, in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss << 10 // Linux reports kilobytes
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is left in its order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// machine is the record every result carries, so that figures from
// different hosts or days can be told apart.
type machine struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	ArchiveFS  string  `json:"archive_fs"`
	CalibNs    float64 `json:"calib_ns"`
}

func machineRecord() machine {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return machine{
		CPU: cpu, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		ArchiveFS: "in-memory persist.FS (no write, rename or fsync syscalls)",
		CalibNs:   calibrate(),
	}
}

// calibrate times a fixed CPU-bound kernel that touches no memory beyond
// registers — a 64-bit xorshift-multiply chain — and returns the median
// nanoseconds per step over five trials. It moves only with the host's
// clock speed and contention, which is what it is recorded to explain.
func calibrate() float64 {
	const steps = 4 << 20
	var trials []float64
	x := uint64(88172645463325252)
	for t := 0; t < 5; t++ {
		start := time.Now()
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0x2545f4914f6cdd1d
		}
		trials = append(trials, float64(time.Since(start).Nanoseconds())/steps)
	}
	calibSink = x
	return median(trials)
}

// calibSink keeps the calibration chain's result live.
var calibSink uint64
