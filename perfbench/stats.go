package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/sim"
)

// percentile returns the nearest-rank q-quantile of xs (sorting xs in
// place), or 0 for an empty slice.
func percentile(xs []sim.Time, q float64) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(q*float64(len(xs))+0.9999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// medianOf returns the median of f over the repeats.
func medianOf(rs []repeat, f func(repeat) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func micros(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// heapSampler tracks the peak bytes of live and not-yet-swept heap
// objects while a repeat runs, polling runtime/metrics (which does not
// stop the world) every millisecond from its own goroutine.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64 // written by the sampler goroutine until done closes
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) sample() {
	m := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(m)
	if v := m[0].Value.Uint64(); v > s.peak {
		s.peak = v
	}
}

// finish stops the sampler, waits for it to exit, and returns the peak
// in MB.
func (s *heapSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / 1e6
}

// allocatedBytes reports the cumulative bytes the process has allocated
// on the heap.
func allocatedBytes() uint64 {
	m := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(m)
	return m[0].Value.Uint64()
}
