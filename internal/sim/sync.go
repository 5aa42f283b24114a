package sim

// fifo is a FIFO on one backing array. pop advances a head index
// instead of reslicing, and push slides the live window down instead
// of growing while there is slack below the head, so a steady stream
// of pushes and pops reuses one array and allocates nothing.
type fifo[T any] struct {
	buf  []T // buf[head:] holds the queue, oldest first
	head int
}

// len reports the number of queued elements.
func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// push appends x at the back.
func (f *fifo[T]) push(x T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		// Compact instead of growing: amortized O(1) per element.
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, x)
}

// pushFront puts x at the front, in the slack below the head if any.
func (f *fifo[T]) pushFront(x T) {
	if f.head > 0 {
		f.head--
		f.buf[f.head] = x
		return
	}
	var zero T
	f.buf = append(f.buf, zero)
	copy(f.buf[1:], f.buf)
	f.buf[0] = x
}

// pop removes and returns the front element; the caller checked that
// one exists.
func (f *fifo[T]) pop() T {
	x := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return x
}

// Cond is a condition variable in virtual time. Waiters are woken in
// FIFO order, which keeps simulations deterministic. The zero Cond is
// ready to use (it binds to the environment of the first waiter), so
// it can be embedded by value in per-operation records without a
// separate allocation.
type Cond struct {
	env     *Env
	waiters fifo[*Proc]
}

// NewCond creates a condition variable bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Wait parks p until Signal or Broadcast wakes it. As with
// sync.Cond, callers re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.env = p.env
	c.waiters.push(p)
	p.park()
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.waiters.len() > 0 {
		c.env.wake(c.waiters.pop())
	}
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.env.wake(c.waiters.pop())
	}
}

// Resource is an exclusively held resource (a node's CPU, for example)
// with a FIFO wait queue and an optional high-priority lane used for
// interrupt handling.
type Resource struct {
	env    *Env
	holder *Proc
	// waiters is the wait queue; the slack below its head absorbs
	// AcquireFront pushes without reallocating.
	waiters fifo[*Proc]
	// busy accumulates total held time, for utilization reports.
	busy       Time
	acquiredAt Time
}

// NewResource creates a free resource bound to e.
func NewResource(e *Env) *Resource { return &Resource{env: e} }

// Acquire blocks p until it holds the resource.
func (r *Resource) Acquire(p *Proc) {
	if r.holder == nil {
		r.holder = p
		r.acquiredAt = r.env.now
		return
	}
	r.waiters.push(p)
	p.park()
}

// AcquireFront is Acquire, but p jumps the wait queue. Interrupt
// service threads use it so device handling preempts queued user work
// (though not the current holder: the kernel is not preemptive
// mid-instruction).
func (r *Resource) AcquireFront(p *Proc) {
	if r.holder == nil {
		r.holder = p
		r.acquiredAt = r.env.now
		return
	}
	r.waiters.pushFront(p)
	p.park()
}

// Release passes the resource to the next waiter, if any. Only the
// holder may call Release.
func (r *Resource) Release(p *Proc) {
	if r.holder != p {
		panic("sim: Release by non-holder " + p.name)
	}
	r.busy += r.env.now - r.acquiredAt
	if r.waiters.len() == 0 {
		r.holder = nil
		return
	}
	next := r.waiters.pop()
	r.holder = next
	r.acquiredAt = r.env.now
	r.env.wake(next)
}

// Use acquires the resource, holds it for d of virtual time, and
// releases it. It models a burst of exclusive work such as CPU time.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}

// UseFront is Use with queue-jumping acquisition.
func (r *Resource) UseFront(p *Proc, d Time) {
	r.AcquireFront(p)
	p.Sleep(d)
	r.Release(p)
}

// BusyTime reports the total virtual time the resource has been held.
func (r *Resource) BusyTime() Time {
	t := r.busy
	if r.holder != nil {
		t += r.env.now - r.acquiredAt
	}
	return t
}

// Queue is an unbounded FIFO mailbox between simulated processes.
// Items are handed directly to waiting receivers, preserving FIFO
// fairness among both items and receivers.
//
// Items and parked receivers each sit in a fifo that reuses its
// backing array, and parked receivers are represented by pooled
// waiter records, so a steady-state producer/consumer pair allocates
// nothing, whether the consumer finds an item waiting or parks for it.
type Queue[T any] struct {
	env     *Env
	items   fifo[T]
	waiters fifo[*queueWaiter[T]]
	wfree   []*queueWaiter[T]
	closed  bool
}

type queueWaiter[T any] struct {
	p    *Proc
	item T
	ok   bool
}

// NewQueue creates an empty queue bound to e.
func NewQueue[T any](e *Env) *Queue[T] { return &Queue[T]{env: e} }

// Put appends an item, waking the longest-waiting receiver if one
// exists. Put never blocks. Put on a closed queue panics.
func (q *Queue[T]) Put(x T) {
	if q.closed {
		panic("sim: Put on closed queue")
	}
	if q.waiters.len() > 0 {
		w := q.waiters.pop()
		w.item, w.ok = x, true
		q.env.wake(w.p)
		return
	}
	q.items.push(x)
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (item T, ok bool) {
	if q.items.len() > 0 {
		return q.items.pop(), true
	}
	if q.closed {
		return item, false
	}
	var w *queueWaiter[T]
	if n := len(q.wfree); n > 0 {
		w = q.wfree[n-1]
		q.wfree[n-1] = nil
		q.wfree = q.wfree[:n-1]
		*w = queueWaiter[T]{p: p}
	} else {
		w = &queueWaiter[T]{p: p}
	}
	q.waiters.push(w)
	p.park()
	item, ok = w.item, w.ok
	var zero T
	w.item, w.p = zero, nil
	q.wfree = append(q.wfree, w)
	return item, ok
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (item T, ok bool) {
	if q.items.len() == 0 {
		return item, false
	}
	return q.items.pop(), true
}

// Close marks the queue closed and wakes all blocked receivers with
// ok=false. Items already queued can still be drained with Get.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for q.waiters.len() > 0 {
		q.env.wake(q.waiters.pop().p)
	}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }
