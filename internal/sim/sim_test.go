package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

const maxTime = Time(math.MaxInt64)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestEventTieBreakBySequence(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	e.At(5, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestProcSleep(t *testing.T) {
	e := New(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 42*Microsecond {
		t.Fatalf("woke at %v, want 42µs", wake)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d procs still live", n)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	var trace []string
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 2; step++ {
				p.Sleep(Time(10 * (i + 1)))
				trace = append(trace, fmt.Sprintf("p%d@%d", i, p.Now()))
			}
		})
	}
	e.Run()
	// At t=20 both p1 (event scheduled at t=0) and p0 (scheduled at
	// t=10) are runnable; the earlier-scheduled event wins the tie.
	want := []string{"p0@10", "p1@20", "p0@20", "p2@30", "p1@40", "p2@60"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestCondFIFO(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	e.At(100, func() { c.Broadcast() })
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("wake order %v, want [a b c]", order)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.At(50, func() { c.Signal() })
	e.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	if len(e.Blocked()) != 2 {
		t.Fatalf("blocked = %v, want 2 procs", e.Blocked())
	}
	e.Shutdown()
}

func TestResourceSerializes(t *testing.T) {
	e := New(1)
	r := NewResource(e)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 10*Microsecond)
			done = append(done, p.Now())
		})
	}
	e.Run()
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times %v, want %v", done, want)
		}
	}
	if r.BusyTime() != 30*Microsecond {
		t.Fatalf("busy = %v, want 30µs", r.BusyTime())
	}
}

func TestResourceAcquireFront(t *testing.T) {
	e := New(1)
	r := NewResource(e)
	var order []string
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(10)
		r.Release(p)
	})
	e.SpawnAt(1, "slow", func(p *Proc) {
		r.Use(p, 10)
		order = append(order, "slow")
	})
	e.SpawnAt(2, "intr", func(p *Proc) {
		r.UseFront(p, 10)
		order = append(order, "intr")
	})
	e.Run()
	if order[0] != "intr" || order[1] != "slow" {
		t.Fatalf("order = %v, want [intr slow]", order)
	}
}

func TestReleaseByNonHolderPanics(t *testing.T) {
	e := New(1)
	r := NewResource(e)
	e.Spawn("a", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release(p)
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on Release by non-holder")
			}
		}()
		r.Release(p)
	})
	e.Run()
}

func TestQueueHandoff(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			p.Sleep(10)
			q.Put(i)
		}
		p.Sleep(10)
		q.Close()
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 items", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v, want [1 2 3 4 5]", got)
		}
	}
}

func TestQueueFIFOAcrossConsumers(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []string
	for _, name := range []string{"c1", "c2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			v, _ := q.Get(p)
			got = append(got, fmt.Sprintf("%s=%d", name, v))
		})
	}
	e.At(10, func() { q.Put(100) })
	e.At(20, func() { q.Put(200) })
	e.Run()
	if len(got) != 2 || got[0] != "c1=100" || got[1] != "c2=200" {
		t.Fatalf("got %v, want [c1=100 c2=200]", got)
	}
}

func TestQueueBufferThenDrain(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	q.Put(1)
	q.Put(2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v != 1 {
		t.Fatalf("TryGet = %d,%v want 1,true", v, ok)
	}
	var rest []int
	e.Spawn("drain", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			rest = append(rest, v)
		}
	})
	e.At(5, func() { q.Close() })
	e.Run()
	if len(rest) != 1 || rest[0] != 2 {
		t.Fatalf("rest = %v, want [2]", rest)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10)
			count++
		}
	})
	e.RunUntil(55)
	if count != 5 {
		t.Fatalf("count = %d at t=55, want 5", count)
	}
	if e.Now() != 55 {
		t.Fatalf("Now = %v, want 55", e.Now())
	}
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d after Run, want 100", count)
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(10)
			n++
			if n == 3 {
				e.Stop()
			}
		}
	})
	e.Run()
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	e.Shutdown()
}

func TestShutdownReapsBlockedProcs(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			c.Wait(p)
			t.Error("stuck proc should never wake")
		})
	}
	e.Run()
	if len(e.Blocked()) != 4 {
		t.Fatalf("blocked = %v, want 4", e.Blocked())
	}
	e.Shutdown()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown, want 0", n)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := New(1)
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childTime = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childTime != 15 {
		t.Fatalf("child finished at %v, want 15", childTime)
	}
}

// TestDeterminism drives a small random workload twice with the same
// seed and once with a different seed, and checks the traces are
// identical and (almost surely) different respectively.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) string {
		e := New(seed)
		r := NewResource(e)
		q := NewQueue[int](e)
		trace := ""
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					d := Time(e.Rand().Intn(50) + 1)
					p.Sleep(d)
					r.Use(p, Time(e.Rand().Intn(20)+1))
					q.Put(i)
					trace += fmt.Sprintf("%d@%d;", i, p.Now())
				}
			})
		}
		e.Run()
		return trace
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Fatal("same seed produced different traces")
	}
	if a == c {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// Property: for any set of sleep durations, processes complete in the
// order implied by their total virtual sleep time, with determinism.
func TestSleepCompletionOrderProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 20 {
			return true
		}
		e := New(1)
		type fin struct {
			idx int
			at  Time
		}
		var fins []fin
		for i, d := range durs {
			i, d := i, Time(d)+1
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				fins = append(fins, fin{i, p.Now()})
			})
		}
		e.Run()
		if len(fins) != len(durs) {
			return false
		}
		for k := 1; k < len(fins); k++ {
			if fins[k].at < fins[k-1].at {
				return false
			}
			if fins[k].at == fins[k-1].at && fins[k].idx < fins[k-1].idx {
				return false // ties must resolve in spawn order
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceBusyTimeWithHolder(t *testing.T) {
	e := New(1)
	r := NewResource(e)
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		if r.BusyTime() != 100 {
			t.Errorf("busy mid-hold = %v, want 100", r.BusyTime())
		}
		r.Release(p)
	})
	e.Run()
}

// runRecover runs e and returns what a panic out of Run carried.
func runRecover(e *Env) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// A panic inside a process reaches the caller of Run with its value.
func TestProcPanicReachesRun(t *testing.T) {
	e := New(1)
	e.Spawn("other", func(p *Proc) { p.Sleep(100) })
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	if r := runRecover(e); r != "boom" {
		t.Fatalf("recovered %v, want boom", r)
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %v, want 5", e.Now())
	}
	e.Shutdown()
}

// runtime.Goexit inside a process (t.FailNow, for one) unwinds the
// caller of Run: Run neither returns nor panics.
func TestProcGoexitUnwindsRun(t *testing.T) {
	e := New(1)
	deferred := false
	e.Spawn("quitter", func(p *Proc) {
		defer func() { deferred = true }()
		p.Yield()
		runtime.Goexit()
	})
	returned, panicked := false, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() != nil }()
		e.Run()
		returned = true
	}()
	<-done
	if returned || panicked || !deferred {
		t.Fatalf("returned=%v panicked=%v deferred=%v, want false false true", returned, panicked, deferred)
	}
	e.Shutdown()
}

// A process that kills itself stays suspended at its next park; its
// deferred handlers run once, at Shutdown.
func TestKillRunningProcThenShutdown(t *testing.T) {
	e := New(1)
	defers := 0
	e.Spawn("doomed", func(p *Proc) {
		defer func() {
			if !p.Killed() {
				t.Error("deferred handler ran without Killed()")
			}
			defers++
		}()
		e.Kill(p)
		p.Sleep(10)
		t.Error("killed process resumed")
	})
	e.Spawn("bystander", func(p *Proc) { p.Sleep(20) })
	e.Run()
	if defers != 0 {
		t.Fatalf("defers ran %d times before Shutdown, want 0", defers)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	e.Shutdown()
	e.Shutdown()
	if defers != 1 {
		t.Fatalf("defers ran %d times, want 1", defers)
	}
}

// Shutdown discards a process that never started without running it.
func TestShutdownSkipsUnstartedProc(t *testing.T) {
	e := New(1)
	ran := false
	e.SpawnAt(100, "late", func(p *Proc) { ran = true })
	e.Spawn("never", func(p *Proc) { ran = true })
	e.Kill(e.Spawn("killed", func(p *Proc) { ran = true }))
	e.Shutdown()
	if ran {
		t.Fatal("Shutdown ran a process that never started")
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown, want 0", n)
	}
}

// Shutdown reaps killed and parked processes one at a time in spawn
// order, and the same program reaps in the same order every run.
func TestShutdownReapsInSpawnOrder(t *testing.T) {
	run := func() []string {
		e := New(1)
		c := NewCond(e)
		var order []string
		var victims []*Proc
		for i := 0; i < 24; i++ {
			name := fmt.Sprintf("p%02d", 23-i)
			p := e.Spawn(name, func(p *Proc) {
				defer func() { order = append(order, name) }()
				if i%3 == 0 {
					p.Sleep(Time(100 - i))
				}
				c.Wait(p)
			})
			if i%2 == 0 {
				victims = append(victims, p)
			}
		}
		e.At(50, func() {
			for _, p := range victims {
				e.Kill(p)
			}
		})
		e.Run()
		e.Shutdown()
		return order
	}
	first := run()
	if len(first) != 24 {
		t.Fatalf("reaped %d processes, want 24", len(first))
	}
	for i, name := range first {
		if want := fmt.Sprintf("p%02d", 23-i); name != want {
			t.Fatalf("reap %d = %s, want %s (spawn order)", i, name, want)
		}
	}
	if again := run(); !reflect.DeepEqual(first, again) {
		t.Fatalf("second run reaped in order %v, first %v", again, first)
	}
}

// RunUntil can stop the run while a process is parked; Run resumes it
// mid-park.
func TestRunUntilThenRunResumesMidPark(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	var wokeAt Time
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		wokeAt = p.Now()
		p.Sleep(5)
	})
	e.At(100, c.Signal)
	e.RunUntil(40)
	if got := e.Blocked(); len(got) != 1 || got[0] != "waiter" {
		t.Fatalf("Blocked = %v after RunUntil, want [waiter]", got)
	}
	if end := e.Run(); end != 105 || wokeAt != 100 {
		t.Fatalf("Run ended at %v with wake at %v, want 105 and 100", end, wokeAt)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d, want 0", n)
	}
}

// A steady ping-pong between two processes allocates nothing: every
// switch reuses pooled events and the coroutines' own stacks.
func TestYieldPingPongAllocs(t *testing.T) {
	e := New(1)
	for i := 0; i < 2; i++ {
		e.Spawn("ponger", func(p *Proc) {
			for {
				for k := 0; k < 64; k++ {
					p.Yield()
				}
				p.Sleep(1)
			}
		})
	}
	e.RunUntil(10) // warm the event pool and the queues
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Fatalf("allocs per ping-pong round = %v, want 0", n)
	}
	e.Shutdown()
}

// checkHeap fails the test unless e.queue is a valid (time, seq)
// min-heap whose events know their own slots.
func checkHeap(t *testing.T, e *Env) {
	t.Helper()
	for i, ev := range e.queue {
		if ev.index != i {
			t.Fatalf("heap slot %d holds an event with index %d", i, ev.index)
		}
		if ev.cancelled {
			t.Fatalf("heap slot %d holds a cancelled event", i)
		}
		if i > 0 && ev.before(e.queue[(i-1)/2]) {
			t.Fatalf("heap slot %d precedes its parent", i)
		}
	}
}

// Cancel takes a pending timer out of the heap at once instead of
// leaving it to be skipped when its time comes.
func TestCancelRemovesTimerFromHeap(t *testing.T) {
	e := New(1)
	keep := e.At(20, func() {})
	ev := e.At(10, func() { t.Error("cancelled timer fired") })
	if len(e.queue) != 2 {
		t.Fatalf("heap holds %d events, want 2", len(e.queue))
	}
	ev.Cancel()
	if len(e.queue) != 1 || e.queue[0] != keep {
		t.Fatalf("heap after Cancel = %v, want only the kept timer", e.queue)
	}
	keep.Cancel()

	// Many armed-then-cancelled timers, cancelled in random order.
	rng := rand.New(rand.NewSource(1))
	timers := make([]*Event, 10000)
	for i := range timers {
		timers[i] = e.After(Time(1+rng.Intn(5000)), func() { t.Error("cancelled timer fired") })
	}
	checkHeap(t, e)
	for n, i := range rng.Perm(len(timers)) {
		timers[i].Cancel()
		if n%997 == 0 {
			checkHeap(t, e)
		}
	}
	if len(e.queue) != 0 {
		t.Fatalf("heap holds %d events after cancelling every timer, want 0", len(e.queue))
	}
	if end := e.Run(); end != 0 || e.Events() != 0 {
		t.Fatalf("Run ended at %v after %d events, want 0 and 0", end, e.Events())
	}
}

// Cancel only marks an event it cannot take out of the heap: one that
// fired, one already cancelled, one cancelled by its own callback, and
// one due at the current instant.
func TestCancelNoOps(t *testing.T) {
	e := New(1)
	fired := 0
	count := func() { fired++ }

	done := e.At(5, count)
	twice := e.At(30, func() { t.Error("cancelled timer fired") })
	var self *Event
	self = e.At(10, func() {
		fired++
		self.Cancel() // already popped: flag only
		checkHeap(t, e)
	})
	e.At(20, func() {
		fired++
		done.Cancel() // fired at 5
		now := e.At(e.Now(), func() { t.Error("cancelled same-instant event fired") })
		if now.index != -1 {
			t.Errorf("same-instant event has heap index %d, want -1", now.index)
		}
		heapLen := len(e.queue)
		now.Cancel()
		if len(e.queue) != heapLen {
			t.Errorf("cancelling a same-instant event changed the heap: %d -> %d", heapLen, len(e.queue))
		}
	})
	e.At(40, count)
	twice.Cancel()
	n := len(e.queue)
	twice.Cancel()
	if len(e.queue) != n {
		t.Fatalf("second Cancel changed the heap: %d -> %d", n, len(e.queue))
	}
	checkHeap(t, e)
	if end := e.Run(); end != 40 || fired != 4 || e.Events() != 4 {
		t.Fatalf("Run ended at %v with %d fired and %d dispatched, want 40, 4, 4", end, fired, e.Events())
	}
}

// A bounded run that stops short of a cancelled timer ends at the
// bound, as when the timer was still pending, and a cancelled timer
// the run has passed no longer counts.
func TestRunUntilCancelledTimerBeyondBound(t *testing.T) {
	e := New(1)
	e.At(10, func() {})
	e.At(100, func() {}).Cancel()
	if got := e.RunUntil(50); got != 50 {
		t.Fatalf("RunUntil(50) = %v with a timer cancelled at 100, want 50", got)
	}
	if got := e.RunUntil(150); got != 50 {
		t.Fatalf("RunUntil(150) = %v past the cancelled timer, want 50", got)
	}
	if got := e.RunUntil(60); got != 50 {
		t.Fatalf("RunUntil(60) = %v after the cancelled timer was passed, want 50", got)
	}

	// Run drains everything, cancelled timers included.
	e = New(1)
	e.At(10, func() {})
	e.At(100, func() {}).Cancel()
	if got := e.Run(); got != 10 {
		t.Fatalf("Run = %v, want 10", got)
	}
	if got := e.RunUntil(50); got != 10 {
		t.Fatalf("RunUntil(50) after a drain = %v, want 10", got)
	}
}

// A consumer that parks on Get every round allocates nothing: the
// waiter record is pooled and the wait list keeps its array.
func TestQueueParkedConsumerAllocs(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	e.Spawn("consumer", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; ; i++ {
			p.Sleep(1)
			q.Put(i)
		}
	})
	e.RunUntil(10) // warm the event pool and the queues
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Fatalf("allocs per parked Get = %v, want 0", n)
	}
	e.Shutdown()
}

// A Signal/Wait ping-pong allocates nothing: the woken waiter's slot
// is reused by its next Wait.
func TestCondSignalWaitAllocs(t *testing.T) {
	e := New(1)
	var c Cond
	turn := 0
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for {
				for turn != i {
					c.Wait(p)
				}
				turn = 1 - i
				c.Signal()
				if i == 1 {
					p.Sleep(1)
				}
			}
		})
	}
	e.RunUntil(10)
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Fatalf("allocs per Signal/Wait round = %v, want 0", n)
	}
	e.Shutdown()
}

// lazyQueue is the reference model for FuzzEventQueue: a list sorted
// by (time, seq) that keeps a cancelled event until its turn and then
// skips it. The engine takes cancelled timers out early; it must be
// indistinguishable from this model, the final clock of a bounded run
// included.
type lazyQueue struct {
	seq     int64
	now     Time
	pending []*lazyEvent // sorted by (t, seq)
	fired   int64
}

type lazyEvent struct {
	t         Time
	seq       int64
	cancelled bool
}

// add records an event scheduled at t. It must be called next to the
// engine call that schedules it, so both assign the same seq order.
func (m *lazyQueue) add(t Time) *lazyEvent {
	m.seq++
	ev := &lazyEvent{t: t, seq: m.seq}
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.t > t || p.t == t && p.seq > ev.seq
	})
	m.pending = append(m.pending, nil)
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
	return ev
}

// skip drops cancelled events from the front up to time limit.
func (m *lazyQueue) skip(limit Time) {
	for len(m.pending) > 0 && m.pending[0].cancelled && m.pending[0].t <= limit {
		m.pending = m.pending[1:]
	}
}

// dispatched checks that ev is the model's next live event and that
// the engine's clock agrees with it.
func (m *lazyQueue) dispatched(t *testing.T, e *Env, ev *lazyEvent) {
	t.Helper()
	m.skip(ev.t)
	if len(m.pending) == 0 || m.pending[0] != ev {
		t.Fatalf("dispatched (%v, %d), want the model's head", ev.t, ev.seq)
	}
	if e.Now() != ev.t {
		t.Fatalf("clock %v at the dispatch of an event due at %v", e.Now(), ev.t)
	}
	m.pending = m.pending[1:]
	m.now = ev.t
	m.fired++
}

// runUntil returns the clock a lazy queue ends RunUntil(limit) at.
func (m *lazyQueue) runUntil(limit Time) Time {
	m.skip(limit)
	if len(m.pending) > 0 {
		m.now = limit
	}
	return m.now
}

// FuzzEventQueue runs a seeded random program of At, After, Schedule
// and Cancel calls, made from callbacks, processes and between
// RunUntil slices, and of Sleep and Yield calls from processes. Every
// dispatch must match the lazy reference model, as must the clock at
// the end of every slice.
func FuzzEventQueue(f *testing.F) {
	f.Add(uint64(1), uint16(300))
	f.Fuzz(func(t *testing.T, seed uint64, budget uint16) {
		rng := rand.New(rand.NewSource(int64(seed)))
		e := New(int64(seed))
		m := &lazyQueue{}
		left := int(budget % 2048)
		type handle struct {
			ev *Event
			me *lazyEvent
		}
		var handles []handle
		delay := func() Time {
			switch r := rng.Intn(20); {
			case r < 5:
				return 0 // same instant: the ready queue
			case r < 12:
				return Time(1 + rng.Intn(5))
			case r < 18:
				return Time(6 + rng.Intn(100))
			default:
				return Time(1000 + rng.Intn(4000)) // a timeout, likely cancelled
			}
		}
		cancel := func() {
			if len(handles) == 0 {
				return
			}
			i := len(handles) - 1 - rng.Intn(min(len(handles), 16))
			if rng.Intn(4) == 0 {
				i = rng.Intn(len(handles))
			}
			handles[i].ev.Cancel()
			handles[i].me.cancelled = true
		}
		var act func()
		callback := func(me *lazyEvent) func() {
			return func() {
				m.dispatched(t, e, me)
				act()
			}
		}
		var proc func(p *Proc)
		act = func() {
			if left <= 0 {
				return
			}
			left--
			switch rng.Intn(6) {
			case 0, 1:
				d := delay()
				me := m.add(e.Now() + d)
				var ev *Event
				if rng.Intn(2) == 0 {
					ev = e.At(e.Now()+d, callback(me))
				} else {
					ev = e.After(d, callback(me))
				}
				handles = append(handles, handle{ev, me})
			case 2:
				at := e.Now() + delay()
				e.Schedule(at, callback(m.add(at)))
			case 3, 4:
				cancel()
			case 5:
				at := e.Now() + delay()
				me := m.add(at)
				e.SpawnAt(at, "proc", func(p *Proc) {
					m.dispatched(t, e, me)
					proc(p)
				})
			}
		}
		proc = func(p *Proc) {
			for left > 0 {
				for k := rng.Intn(3); k >= 0; k-- {
					act()
				}
				if rng.Intn(3) == 0 {
					me := m.add(p.Now())
					p.Yield()
					m.dispatched(t, e, me)
				} else {
					d := delay()
					me := m.add(p.Now() + d)
					p.Sleep(d)
					m.dispatched(t, e, me)
				}
			}
		}
		runUntil := func(limit Time) {
			if got, want := e.RunUntil(limit), m.runUntil(limit); got != want {
				t.Fatalf("RunUntil(%v) = %v, want %v", limit, got, want)
			}
			checkHeap(t, e)
		}
		for i := 0; i < 4; i++ {
			act()
		}
		// Slices run on after the budget is spent, arming and
		// cancelling timeouts as they go, so the tail holds bounds with
		// only cancelled timers beyond them. Now and then Run drains
		// the rest instead.
		for len(m.pending) > 0 && rng.Intn(50) != 0 {
			runUntil(e.Now() + Time(rng.Intn(600)))
			act()
			if left == 0 && rng.Intn(3) == 0 {
				// An armed-then-cancelled timeout, often the last
				// event pending.
				d := Time(1 + rng.Intn(5000))
				me := m.add(e.Now() + d)
				e.After(d, callback(me)).Cancel()
				me.cancelled = true
			}
		}
		runUntil(e.Now() + Time(rng.Intn(600)))
		e.Run()
		m.skip(maxTime)
		if len(m.pending) != 0 {
			t.Fatalf("%d live events never dispatched", len(m.pending))
		}
		runUntil(e.Now() + Time(rng.Intn(6000))) // after a drain
		if e.Events() != m.fired {
			t.Fatalf("Events() = %d, model dispatched %d", e.Events(), m.fired)
		}
		if n := e.LiveProcs(); n != 0 {
			t.Fatalf("%d processes still live after the program ended", n)
		}
	})
}
