package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the percentile reported beside every median: the
// highest that leaves ten samples beyond it at the smallest op count a
// workload collects in its window (fleet-wire, 30 rounds on a slowed
// host).
const tailQuantile = 0.65

// timings reports a timing sample as its median and tail percentile under
// the given metric prefix, and notes the sample count.
func (o *outcome) timings(prefix string, xs []float64) {
	o.metrics[prefix+".p50"] = median(xs)
	o.metrics[prefix+".p65"] = quantile(xs, tailQuantile)
	beyond := int(float64(len(xs)) * (1 - tailQuantile))
	o.infof("samples %s n=%d (%d beyond p65)", prefix, len(xs), beyond)
}

// refWords is the float64 length of each worker's reference buffer:
// 8 MiB, well past the caches, so a pass streams from memory.
const refWords = 1 << 20

// opSamples collects the cost of each measured op, and times a reference
// pass right after each one. The pass is the benchmark's own fixed work —
// every worker streaming twice through its own buffer, nproc workers at
// once — so it slows with the host (stolen CPU time, neighbours
// contending for memory and cores) but never with a change to the
// program. An op's wall time over the pass's gives its cost in passes,
// which stays put while the host's speed drifts.
type opSamples struct {
	wall, ref, alloc []float64
	bufs             [][]float64
}

func newOpSamples(nproc int) *opSamples {
	s := &opSamples{bufs: make([][]float64, nproc)}
	for i := range s.bufs {
		s.bufs[i] = make([]float64, refWords)
	}
	s.refPass() // faults the buffers in
	return s
}

// refPass runs and times one reference pass.
func (s *opSamples) refPass() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, b := range s.bufs {
		wg.Add(1)
		go func(b []float64) {
			defer wg.Done()
			for r := 0; r < 2; r++ {
				for i := range b {
					b[i]++
				}
			}
		}(b)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

func (s *opSamples) add(c opCost) {
	s.wall = append(s.wall, c.wall)
	s.ref = append(s.ref, s.refPass())
	s.alloc = append(s.alloc, float64(c.alloc)/mib)
}

// report sets the end-to-end op metrics every workload shares, given the
// work items one op completes: the op's cost in reference passes, and
// throughput per reference pass taken at the median op, so one stalled op
// does not move it. The raw wall times are printed beside them.
func (o *outcome) report(s *opSamples, workPerOp float64) {
	ratio := make([]float64, len(s.wall))
	for i, w := range s.wall {
		ratio[i] = w / s.ref[i]
	}
	o.timings("op_ref", ratio)
	o.metrics["work_per_ref"] = workPerOp / median(ratio)
	o.metrics["alloc_mib_per_op"] = median(s.alloc)
	o.metrics["ok_op_ratio"] = 1 - float64(o.failed)/float64(o.attempted)
	o.infof("op wall time p50 %.4f s, p65 %.4f s; reference pass p50 %.2f ms (%d workers)",
		median(s.wall), quantile(s.wall, tailQuantile), 1e3*median(s.ref), len(s.bufs))
}

// digest fingerprints a float vector bit for bit.
func digest(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// allFinite reports whether every value is a finite float.
func allFinite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// heapAlloc returns the cumulative bytes allocated on the heap.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// opCost is what one op took: wall seconds and heap bytes allocated.
type opCost struct {
	wall  float64
	alloc uint64
}

// timedOp runs f, converting a panic into an error, and measures it.
func timedOp(f func() error) (c opCost, err error) {
	a0, t0 := heapAlloc(), time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		err = f()
	}()
	c.wall = time.Since(t0).Seconds()
	c.alloc = heapAlloc() - a0
	return c, err
}

// pairOp runs one untraced and one traced op, alternating which goes
// first, so drifts in host speed hit both sides alike, and returns the
// traced op's wall time over the untraced one's.
func pairOp(i int, plain, traced func() float64) float64 {
	var p, t float64
	if i%2 == 0 {
		p = plain()
		t = traced()
	} else {
		t = traced()
		p = plain()
	}
	return t / p
}

// setupTimes runs build n times, each from a freshly collected heap so
// garbage from the previous build is not charged to the next, and
// returns the build times.
func setupTimes(n int, build func()) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		build()
		out = append(out, time.Since(t0).Seconds())
	}
	return out
}

// deadline returns the wall-clock end of a window of the given seconds.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

const mib = 1 << 20
