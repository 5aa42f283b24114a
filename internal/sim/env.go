package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Event is a scheduled occurrence in virtual time. It is returned by
// At and After so callers can cancel pending events (e.g. protocol
// retransmission timers).
//
// An event resumes a parked process (proc non-nil) or runs a callback
// (fn non-nil). Process-resume events are the scheduler's own and are
// recycled through a free list; callback events are handed to callers
// and never reused, so a retained *Event stays valid to Cancel.
type Event struct {
	t         Time
	seq       int64
	fn        func()
	proc      *Proc // resume this process instead of calling fn
	env       *Env  // the environment that scheduled it (Cancel)
	cancelled bool
	pooled    bool   // internal event, recycled after firing
	index     int    // heap slot; -1 off the heap (ready, fired, removed)
	next      *Event // free-list link while recycled
}

// Cancel prevents the event from firing and drops its callback. A
// pending future event leaves the event heap at once, in O(log n), so
// a timer that is armed and then cancelled, the common fate of RPC and
// retransmission timeouts, costs later dispatches nothing. Cancelling
// an event that is due at the current instant only marks it; the
// dispatcher skips it. Cancelling an event that has already fired, or
// was already cancelled, is a no-op.
func (ev *Event) Cancel() {
	ev.cancelled = true
	ev.fn = nil
	if ev.index >= 0 {
		ev.env.unschedule(ev)
	}
}

// Time reports the virtual time at which the event fires.
func (ev *Event) Time() Time { return ev.t }

// before reports whether ev fires before other in the (time, seq)
// total order.
func (ev *Event) before(other *Event) bool {
	return ev.t < other.t || ev.t == other.t && ev.seq < other.seq
}

// eventQueue is a binary min-heap ordered by (time, sequence). The
// sequence number breaks ties deterministically in scheduling order.
// Each event keeps its slot in index, so any event can be removed in
// O(log n). Both sifts move a hole instead of swapping, writing each
// displaced event once.
type eventQueue []*Event

// push inserts ev.
func (q *eventQueue) push(ev *Event) {
	*q = append(*q, nil)
	q.up(len(*q)-1, ev)
}

// remove takes the event at slot i out of the heap and returns it.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	ev := h[i]
	ev.index = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if i < n {
		// Refill the hole with the last event, which moves toward the
		// root if it precedes the hole's parent and toward the leaves
		// otherwise.
		if i > 0 && last.before(h[(i-1)/2]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	return ev
}

// up places ev at the hole i, moving the hole toward the root while ev
// precedes its parent.
func (q eventQueue) up(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) / 2
		parent := q[p]
		if !ev.before(parent) {
			break
		}
		q[i] = parent
		parent.index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down places ev at the hole i, moving the hole toward the leaves
// while a child precedes ev.
func (q eventQueue) down(i int, ev *Event) {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		child := q[c]
		if !child.before(ev) {
			break
		}
		q[i] = child
		child.index = i
		i = c
	}
	q[i] = ev
	ev.index = i
}

// Env is a discrete-event simulation environment: a virtual clock, an
// event queue, and a set of cooperatively scheduled processes. All
// methods must be called from simulation context (from inside an event
// handler or a process body), except New, Spawn before Run, Run itself,
// and Shutdown after Run returns.
//
// Same-instant events (wakeups, yields, condition broadcasts) go to a
// FIFO ready queue instead of the binary heap: their (time, seq) keys
// are necessarily larger than everything already consumed and appended
// in seq order, so a plain append preserves the total order while
// costing O(1) instead of O(log n). Only future events pay for the
// heap, and only while live: Cancel takes a timer out at once. The
// dispatch loop merges the two sources by (time, seq), which
// keeps the schedule bit-identical to a single-heap implementation.
type Env struct {
	now       Time
	queue     eventQueue // future events, min-heap on (time, seq)
	ready     []*Event   // same-instant events in seq (FIFO) order
	readyHead int        // index of the next ready event
	seqGen    int64
	free      *Event // free list of recycled internal events
	handoff   *Proc  // the process the dispatcher resumes next
	live      map[*Proc]struct{}
	spawned   int64 // spawn counter: Proc.id, the order Shutdown reaps in
	rng       *rand.Rand
	stopped   bool
	bounded   bool // RunUntil in progress
	limit     Time // RunUntil bound
	// lastDead is the latest time of a timer Cancel took out of the
	// heap that the run has not yet passed (0: none). RunUntil treats
	// it as a pending event when it sets the final clock (see advance).
	lastDead Time

	// stats
	dispatched int64
}

// New creates an environment whose random source is seeded with seed.
// The same seed always yields the same simulation.
func New(seed int64) *Env {
	return &Env{
		live: make(map[*Proc]struct{}),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Events reports the number of events dispatched so far; the engine
// benchmarks use it to compute events/sec.
func (e *Env) Events() int64 { return e.dispatched }

// getEvent returns a recycled internal event or a fresh one.
func (e *Env) getEvent() *Event {
	ev := e.free
	if ev == nil {
		return &Event{env: e, pooled: true, index: -1}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle returns an internal event to the free list. Caller events
// (pooled == false) are left alone: their owner may still Cancel them.
func (e *Env) recycle(ev *Event) {
	if !ev.pooled {
		return
	}
	ev.fn = nil
	ev.proc = nil
	ev.cancelled = false
	ev.next = e.free
	e.free = ev
}

// schedule inserts an event into the ready queue (same instant) or the
// heap (future), assigning its place in the total order.
func (e *Env) schedule(ev *Event, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", t, e.now))
	}
	e.seqGen++
	ev.t, ev.seq = t, e.seqGen
	if t == e.now {
		ev.index = -1
		e.ready = append(e.ready, ev)
		return
	}
	e.queue.push(ev)
}

// unschedule takes a cancelled event out of the heap.
func (e *Env) unschedule(ev *Event) {
	e.queue.remove(ev.index)
	e.lastDead = max(e.lastDead, ev.t)
}

// At schedules fn to run at virtual time t. Scheduling in the past
// panics: it would violate causality.
func (e *Env) At(t Time, fn func()) *Event {
	ev := &Event{fn: fn, env: e, index: -1}
	e.schedule(ev, t)
	return ev
}

// After schedules fn to run d from now.
func (e *Env) After(d Time, fn func()) *Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now+d, fn)
}

// Schedule is At without the cancellation handle: the event comes
// from (and returns to) the scheduler's free list. It is the right
// call for fire-and-forget occurrences on hot paths — network frame
// deliveries, for instance — where nobody retains the event.
func (e *Env) Schedule(t Time, fn func()) {
	ev := e.getEvent()
	ev.fn = fn
	e.schedule(ev, t)
}

// next pops the earliest pending event in (time, seq) order, merging
// the ready queue and the heap. It returns nil when both are empty.
func (e *Env) next() *Event {
	ev := e.peek()
	if ev == nil {
		return nil
	}
	if ev.index == 0 {
		return e.queue.remove(0)
	}
	e.ready[e.readyHead] = nil
	e.readyHead++
	if e.readyHead == len(e.ready) {
		e.ready = e.ready[:0]
		e.readyHead = 0
	}
	return ev
}

// advance dispatches events until a process is due to resume and
// returns it, or returns nil when the run is over (drained, stopped,
// or past the RunUntil bound). Callback events run inline on the
// caller, which is either the dispatcher (Env.dispatch) or a parking
// or terminating process: a process dispatches onward itself and only
// involves the dispatcher when control must move to another process.
//
// A bounded run that stops short of a pending event ends with the
// clock at the bound. A timer cancelled beyond the bound counts as
// pending here: it left the heap early, but the clock rule is the one
// of a queue that keeps cancelled events until their time comes.
func (e *Env) advance() *Proc {
	for !e.stopped {
		if e.bounded {
			if head := e.peek(); head == nil || head.t > e.limit {
				if head != nil || e.lastDead > e.limit {
					e.now = e.limit
				}
				if e.lastDead <= e.limit {
					e.lastDead = 0 // behind the bound: no longer pending
				}
				break
			}
		}
		ev := e.next()
		if ev == nil {
			// Drained: every cancelled timer is behind the run.
			e.lastDead = 0
			break
		}
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.now = ev.t
		e.dispatched++
		if ev.proc == nil {
			fn := ev.fn
			e.recycle(ev)
			fn()
			continue
		}
		p := ev.proc
		e.recycle(ev)
		if !p.terminated && !p.killed {
			return p
		}
	}
	return nil
}

// dispatch is the one loop that resumes processes, run on the caller
// of Run or RunUntil. Each resumed process runs until it hands control
// on: it parks or terminates, leaving in e.handoff the process advance
// chose next (nil when the run is over). A panic in a process, or a
// t.FailNow, surfaces here, on the caller of Run.
func (e *Env) dispatch() {
	for p := e.advance(); p != nil; p = e.handoff {
		p.next()
	}
}

// peek reports the earliest pending event without popping it.
func (e *Env) peek() *Event {
	var rv *Event
	if e.readyHead < len(e.ready) {
		rv = e.ready[e.readyHead]
	}
	if len(e.queue) > 0 {
		if hv := e.queue[0]; rv == nil || hv.before(rv) {
			return hv
		}
	}
	return rv
}

// Run processes events until the queue is empty or Stop is called.
// It returns the final virtual time. Processes that are still blocked
// when the queue drains are left parked; call Shutdown to reap them
// (Blocked lists them for deadlock diagnosis).
func (e *Env) Run() Time {
	e.dispatch()
	return e.now
}

// RunUntil processes events until virtual time t is reached, the queue
// empties, or Stop is called. The bound must not precede Now. The
// clock ends at t when an event is still pending beyond t, counting a
// timer cancelled beyond t as pending, and otherwise at the last
// dispatched event.
func (e *Env) RunUntil(t Time) Time {
	e.bounded, e.limit = true, t
	e.dispatch()
	e.bounded = false
	return e.now
}

// Stop makes Run return after the current event completes.
func (e *Env) Stop() { e.stopped = true }

// Blocked returns the names of processes that are alive but parked,
// sorted for stable output. After Run returns, a non-empty result
// usually means the simulated program deadlocked. Killed processes are
// not listed: they are dead, not deadlocked.
func (e *Env) Blocked() []string {
	var names []string
	for p := range e.live {
		if !p.terminated && !p.killed {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// Kill marks a process dead from the current instant: the scheduler
// never resumes it again, and any event that would have woken it is
// discarded when it fires. It models a thread dying with its crashed
// machine, so — unlike a cooperative exit — the process's current
// state (held resources, queued wait entries) is simply abandoned.
// Its stack is unwound by Shutdown. Killing the process that is
// currently executing is allowed: it finishes its current non-blocking
// step and stays suspended from its next park until Shutdown.
func (e *Env) Kill(p *Proc) {
	if p.terminated || p.killed {
		return
	}
	p.killed = true
}

// LiveProcs reports the number of processes that have been spawned and
// have not yet terminated.
func (e *Env) LiveProcs() int { return len(e.live) }

// Shutdown reaps every process that has not terminated, one at a time
// in spawn order. A parked process unwinds its stack, running its
// deferred handlers; they see Killed() and must neither block nor
// touch shared state. A process that never started is discarded
// without running. Shutdown must be called only after Run has returned.
func (e *Env) Shutdown() {
	procs := make([]*Proc, 0, len(e.live))
	for p := range e.live {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	for _, p := range procs {
		p.killed = true
		p.stop()
	}
	e.live = make(map[*Proc]struct{})
}

// wake schedules p to resume at the current virtual time: an O(1)
// append to the ready queue using a recycled event, no heap traffic
// and no per-wake closure.
func (e *Env) wake(p *Proc) {
	ev := e.getEvent()
	ev.proc = p
	e.seqGen++
	ev.t, ev.seq = e.now, e.seqGen
	e.ready = append(e.ready, ev)
}

// wakeAt schedules p to resume at time t >= now through the scheduler's
// pooled-event path (Sleep, SpawnAt).
func (e *Env) wakeAt(t Time, p *Proc) {
	ev := e.getEvent()
	ev.proc = p
	e.schedule(ev, t)
}
