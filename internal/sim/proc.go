package sim

import "iter"

// Proc is a cooperatively scheduled simulated process. It runs as a
// coroutine (iter.Pull) that the dispatcher on Run's caller resumes,
// so at most one Proc (or event handler) executes at a time and a
// switch between processes never goes through the Go scheduler.
// Blocking primitives (Sleep, Cond.Wait, Resource.Acquire, ...) park
// the process and return control to the scheduler.
type Proc struct {
	env        *Env
	name       string
	id         int64                   // spawn order
	next       func() (struct{}, bool) // resume the coroutine
	stop       func()                  // reap it (Shutdown)
	yield      func(struct{}) bool     // suspend it; false when reaped
	terminated bool
	killed     bool
}

// reaped is the panic value that unwinds a process Shutdown reaps.
// iter.Pull would re-raise a goroutine exit on Shutdown's own
// goroutine, so the unwinding is a panic the coroutine's top frame
// recovers.
type reaped struct{}

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. It may be called before Run (to
// seed the simulation) or from simulation context (to fork).
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time.
func (e *Env) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	e.spawned++
	p := &Proc{env: e, name: name, id: e.spawned}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (reaped{}) {
				panic(r) // surfaces on the caller of Run
			}
		}()
		fn(p)
		// A process killed while executing that ran to completion
		// still holds control and passes it on like any other.
		p.terminated = true
		delete(e.live, p)
		e.handoff = e.advance()
	})
	e.live[p] = struct{}{}
	e.wakeAt(t, p)
	return p
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// park suspends the process until the scheduler resumes it. All
// blocking primitives funnel through here. The process first advances
// the dispatch loop itself (see Env.advance): if its own resume event
// comes up next it keeps running with no switch at all. Otherwise it
// leaves the chosen process to the dispatcher and suspends.
func (p *Proc) park() {
	e := p.env
	q := e.advance()
	if q == p {
		return
	}
	e.handoff = q
	if !p.yield(struct{}{}) {
		panic(reaped{}) // Shutdown: unwind to the coroutine's top frame
	}
}

// Killed reports whether the process has been killed (its machine
// crashed, or Shutdown reaped it). Cleanup code that may run while the
// process unwinds uses it to avoid touching shared state.
func (p *Proc) Killed() bool { return p.killed }

// Terminated reports whether the process body has returned. The
// kernel layer uses it to prune dead threads from its bookkeeping.
func (p *Proc) Terminated() bool { return p.terminated }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		p.Yield()
		return
	}
	p.env.wakeAt(p.env.now+d, p)
	p.park()
}

// Yield reschedules the process at the current time, letting any other
// event already queued for this instant run first.
func (p *Proc) Yield() {
	p.env.wake(p)
	p.park()
}
