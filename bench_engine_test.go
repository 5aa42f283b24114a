package repro

// Engine benchmark suite: microbenchmarks of the simulation kernel's
// hot paths, reporting events/sec alongside the usual wall-clock and
// allocation measurements. These isolate the scheduler itself — the
// ready queue, the event pool, the coroutine park/resume switch, and
// the synchronization primitives — from the protocol stack above it,
// so a kernel regression is visible before it smears across every
// experiment. cmd/orca-bench -bench-json runs the same workloads and
// records them in BENCH_engine.json.

import (
	"testing"

	"repro/internal/sim"
)

// reportEvents attaches the events/sec metric from an environment's
// dispatch counter.
func reportEvents(b *testing.B, e *sim.Env) {
	b.ReportMetric(float64(e.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineYield measures the same-instant wakeup path: a Yield
// is one ready-queue append plus one resume, the cheapest possible
// reschedule. With a single process every resume is a self-handoff
// that never switches coroutines.
func BenchmarkEngineYield(b *testing.B) {
	e := sim.New(1)
	e.Spawn("yielder", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineYieldPingPong measures the cross-process switch: two
// processes alternating at the same instant, so every dispatch
// suspends one coroutine and the dispatcher resumes the other.
func BenchmarkEngineYieldPingPong(b *testing.B) {
	e := sim.New(1)
	for i := 0; i < 2; i++ {
		e.Spawn("ponger", func(p *sim.Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineSleep measures the timed path through the binary
// heap: staggered sleepers keep a populated heap, the worst case the
// ready queue cannot absorb.
func BenchmarkEngineSleep(b *testing.B) {
	e := sim.New(1)
	const procs = 16
	for i := 0; i < procs; i++ {
		d := sim.Time(i + 1)
		e.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < b.N/procs; i++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineCondBroadcast measures condition-variable fan-out:
// one broadcaster repeatedly waking a pack of waiters, the pattern of
// guard re-evaluation after every applied write.
func BenchmarkEngineCondBroadcast(b *testing.B) {
	e := sim.New(1)
	c := sim.NewCond(e)
	const waiters = 8
	stop := false
	for i := 0; i < waiters; i++ {
		e.Spawn("waiter", func(p *sim.Proc) {
			for !stop {
				c.Wait(p)
			}
		})
	}
	e.Spawn("broadcaster", func(p *sim.Proc) {
		for i := 0; i < b.N/waiters; i++ {
			c.Broadcast()
			p.Yield()
		}
		stop = true
		c.Broadcast()
	})
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineQueue measures the mailbox handoff: a producer and a
// consumer alternating through a sim.Queue, the kernel's interrupt-
// and delivery-stream pattern.
func BenchmarkEngineQueue(b *testing.B) {
	e := sim.New(1)
	q := sim.NewQueue[int](e)
	e.Spawn("consumer", func(p *sim.Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Yield()
		}
		q.Close()
	})
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineResource measures contended CPU scheduling: several
// threads taking turns on one resource, each turn a sleep on the heap
// plus a wakeup on the ready queue.
func BenchmarkEngineResource(b *testing.B) {
	e := sim.New(1)
	r := sim.NewResource(e)
	const procs = 4
	for i := 0; i < procs; i++ {
		e.Spawn("user", func(p *sim.Proc) {
			for i := 0; i < b.N/procs; i++ {
				r.Use(p, sim.Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}

// BenchmarkEngineTimerCancel measures timer cancellation with many
// timers outstanding: 64 processes each arm a 10 ms timeout, sleep a
// random 1-200 µs, and cancel the timer, as amoeba's Client.Trans does
// when the reply beats the timeout. One op is one arm-sleep-cancel
// round.
func BenchmarkEngineTimerCancel(b *testing.B) {
	e := sim.New(1)
	const procs = 64
	for i := 0; i < procs; i++ {
		e.Spawn("caller", func(p *sim.Proc) {
			for i := 0; i < b.N/procs; i++ {
				timer := p.Env().After(10*sim.Millisecond, func() {})
				p.Sleep(sim.Time(1+p.Env().Rand().Intn(200)) * sim.Microsecond)
				timer.Cancel()
			}
		})
	}
	b.ResetTimer()
	e.Run()
	reportEvents(b, e)
	e.Shutdown()
}
