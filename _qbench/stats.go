package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. It sorts a copy; xs is left untouched.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// splitmix64 derives independent sub-seeds from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// minSamples is the fewest latencies a measured phase collects: p99 then
// has at least ten samples beyond it. A phase that has not reached it
// when its time is up runs on until it has.
const minSamples = 1000

// windowedP99 is the 99th percentile of latencies taken in consecutive
// windows of at least minSamples operations each (the last window takes
// the remainder), and the lower quartile over the windows. Other
// processes on a shared host preempt this one in bursts; a burst lifts
// the tail of the windows it overlaps, and sub-millisecond operations'
// p99 is where it shows first. The lower quartile keeps the figure to
// the program's own tail as long as a quarter of the windows is left
// alone. Fewer than 2·minSamples latencies form a single window.
func windowedP99(lat []float64) float64 {
	n := len(lat) / minSamples
	if n <= 1 {
		return quantile(lat, 0.99)
	}
	var p99s []float64
	for w := 0; w < n; w++ {
		hi := (w + 1) * minSamples
		if w == n-1 {
			hi = len(lat)
		}
		p99s = append(p99s, quantile(lat[w*minSamples:hi], 0.99))
	}
	return quantile(p99s, 0.25)
}
