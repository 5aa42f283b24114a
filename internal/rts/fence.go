package rts

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/sim"
)

// Sequenced fences — operations that span sequencer groups.
//
// Each group of a Router orders its own objects, so an operation
// touching objects in several groups (a transfer between accounts, a
// fork that must observe the parent's writes everywhere) needs a point
// that every covered group's stream agrees on. A fence is that point:
// a two-phase "reserve a slot in every touched group in ascending
// group order, release when the last reservation delivers" barrier.
// Pausing fences (InvokeFenced) carry writes and pause the covered
// streams until they apply; barrier fences (forkFence) carry a fork
// body that fires on the target once every covered group delivered
// it. A fence covering one group degenerates to an ordinary message in
// that group's total order.

// FencedOp is one write of a fenced invocation (see InvokeFenced).
type FencedOp struct {
	ID   ObjID
	Op   string
	Args []any
}

// wireFence is the fence message sequenced into every covered group's
// stream. A pausing fence (Pause) carries the fenced writes; a barrier
// fence carries an opaque body handed to the fork handler on the
// target machine when the last covered group delivers there.
type wireFence struct {
	FID    int64
	Shards []int // covered groups, ascending
	Target int   // barrier: machine whose fork handler fires (-1: pausing)
	Body   any   // barrier payload
	Ops    []FencedOp
	Pause  bool
}

// fenceRec tracks one fence's arrivals on one machine.
type fenceRec struct {
	expect  int // covered groups spanning this machine
	arrived int
	src     int // initiating machine (pausing fences; -1 until known)
	done    bool
	aborted bool
	cond    sim.Cond
}

// fenceAbortGrace is how long a pausing fence whose initiator crashed
// may stay incomplete before it is presumed aborted. The grace must
// exceed the sequencing latency of the initiator's last in-flight
// reservation broadcast: after that long, a still-missing arrival can
// only mean the initiator died between reservations and the fence can
// never complete.
const fenceAbortGrace = 250 * sim.Millisecond

// presumeAbort runs when a machine crashes with pausing fences in
// progress: it scans for the fences that machine initiated and, if any
// are still incomplete after fenceAbortGrace, releases the groups they
// paused without applying the fenced writes. The decision is made
// once, globally — modelling the abort record a real group sequencer
// would time out and broadcast, without simulating its messages (the
// same modelling rehome uses for the point-to-point recovery round). A
// single global decision point keeps the outcome consistent: a fence
// either executes on every machine or on none. A machine that crashes
// with no fence in progress needs no scan: every fence it finished
// initiating was fully sequenced and completes on every survivor.
func (r *Router) presumeAbort(node int) {
	watch := -1
	for i, m := range r.machines {
		if !m.Crashed() {
			watch = i
			break
		}
	}
	if watch == -1 {
		return
	}
	r.machines[watch].SpawnThread("fence-abort", func(p *sim.Proc) {
		// The scan waits out the grace rather than running at the crash
		// instant: the initiator's last reservation broadcast may still
		// be in flight when the machine dies, so its record only shows
		// up in the fence tables after delivery. A fence found
		// incomplete this long after the crash can never complete — a
		// fully sequenced fence finishes on every machine within normal
		// delivery latency of the crash, far inside the grace.
		p.Sleep(fenceAbortGrace)
		var fids []int64
		seen := make(map[int64]bool)
		for _, m := range r.fences {
			for fid, rec := range m {
				if rec.src == node && !rec.done && !seen[fid] {
					fids = append(fids, fid)
					seen[fid] = true
				}
			}
		}
		sortInt64s(fids)
		for _, fid := range fids {
			for i := range r.fences {
				r.fenceAborted[i][fid] = true
				if rec, ok := r.fences[i][fid]; ok {
					rec.aborted = true
					rec.done = true
					rec.cond.Broadcast()
					delete(r.fences[i], fid)
				}
			}
		}
	})
}

// sortInt64s sorts a small int64 slice (insertion sort, like sortInts).
func sortInt64s(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// fenceRec returns (or installs) the machine's record for a fence,
// expecting one arrival per covered group whose span contains the
// machine.
func (r *Router) fenceRec(node int, f wireFence) *fenceRec {
	m := r.fences[node]
	if rec, ok := m[f.FID]; ok {
		return rec
	}
	expect := 0
	for _, k := range f.Shards {
		if r.inSpan[k][node] {
			expect++
		}
	}
	rec := &fenceRec{expect: expect, src: -1}
	m[f.FID] = rec
	return rec
}

// handleFence consumes one fence delivery from a group's stream (runs
// on the delivering manager's thread).
//
// Barrier fences only matter at the target machine: the last covered
// group's delivery there fires the fork handler with the payload, so
// the payload (a fork) observes every write sequenced before the fence
// in every covered group.
//
// Pausing fences first acknowledge the initiator's reservation (the
// uid completion InvokeFenced awaits), then every covered group but
// the last PAUSES its delivery stream on this machine — nothing
// sequenced after the fence in that group may apply before the fenced
// writes. The last arrival executes the fenced writes against the
// local replicas and releases the paused groups. Reservation in
// ascending group order plus ack-before-pause makes concurrent fences
// acquire their groups in a consistent order, so two fences can never
// pause each other's completion path (see DESIGN.md).
func (r *Router) handleFence(p *sim.Proc, mgr *bcastManager, d group.Delivery, f wireFence) {
	node := mgr.m.ID()
	if !f.Pause {
		if node != f.Target {
			return
		}
		rec := r.fenceRec(node, f)
		rec.arrived++
		if rec.arrived == rec.expect {
			delete(r.fences[node], f.FID)
			if r.extra != nil {
				r.extra(node, f.Body)
			}
		}
		return
	}
	mgr.complete(p, d.UID, d.Src, nil)
	if r.fenceAborted[node][f.FID] {
		// Presumed aborted: a straggling delivery applies nothing and
		// must not pause the stream again.
		return
	}
	rec := r.fenceRec(node, f)
	rec.src = d.Src
	rec.arrived++
	if rec.arrived < rec.expect {
		for !rec.done {
			rec.cond.Wait(p)
		}
		return
	}
	r.execFence(p, mgr, f)
	rec.done = true
	rec.cond.Broadcast()
	delete(r.fences[node], f.FID)
}

// execFence applies the fenced writes on this machine, in op order,
// each against its home group's replica. Costs charge through the
// delivering manager's frame accounting; touched replicas join their
// HOME manager's guard-retry sweep, which runs at that manager's next
// frame boundary (its own delivery of this fence, at the latest).
func (r *Router) execFence(p *sim.Proc, mgr *bcastManager, f wireFence) {
	node := mgr.m.ID()
	for i := range f.Ops {
		fo := &f.Ops[i]
		g := r.groups[r.home[fo.ID]]
		gm := g.mgr(node)
		if gm == nil || !g.replicatedOn(node, fo.ID) {
			continue
		}
		inst, ok := gm.insts[fo.ID]
		if !ok {
			panic(fmt.Sprintf("rts: fenced write to unknown object %d on node %d", fo.ID, node))
		}
		op := inst.op(fo.Op)
		mgr.charge(p, g.costs.WriteApply+g.costs.opCost(op))
		op.Apply(inst.state, fo.Args)
		inst.writes++
		if !inst.typ.SizeFixed {
			inst.seg.Resize(int64(inst.typ.stateSize(inst.state)))
		}
		inst.cond.Broadcast()
		if !inst.touched {
			inst.touched = true
			gm.touched = append(gm.touched, inst)
		}
	}
}

// InvokeFenced applies several write operations — possibly on objects
// in different groups — as one atomic, deterministically ordered step:
// on every machine, all of the writes apply at the same point of every
// covered group's stream, and no operation sequenced after the fence
// in any covered group observes a partial application. The two-phase
// protocol reserves a slot in every covered group in ascending group
// order (waiting for each reservation's local delivery before the
// next) and releases when the last covered group delivers.
//
// The operations must be unguarded writes on replicated, non-adaptive
// objects; results are discarded. The invoking machine must lie in
// every covered group's span. The call returns once the writes have
// applied locally, so the invoker's subsequent reads observe them. An
// initiator that crashes between reservations is presumed aborted: the
// already-reserved groups stay paused for fenceAbortGrace and are then
// released without applying any of the fenced writes, so the fence is
// all-or-nothing under crashes too (see presumeAbort).
func (r *Router) InvokeFenced(w *Worker, ops []FencedOp) {
	if len(r.groups) == 0 {
		panic("rts: InvokeFenced on a runtime without a sequencer group")
	}
	if len(ops) == 0 {
		return
	}
	node := w.Node()
	var shards []int
	size := 16
	for i := range ops {
		fo := &ops[i]
		k := r.homeOf(fo.ID)
		if k == homeP2P || r.adapt[fo.ID] != nil {
			panic(fmt.Sprintf("rts: fenced op on object %d, which is not a fixed replicated object", fo.ID))
		}
		mg := r.groups[k].mgr(node)
		if mg == nil {
			panic(fmt.Sprintf("rts: fenced op on object %d from node %d outside group %d's span", fo.ID, node, k))
		}
		inst := mg.instance(w.P, fo.ID)
		op := inst.op(fo.Op)
		if op.Kind == Read {
			panic(fmt.Sprintf("rts: fenced operation %s is a read; fences carry writes", fo.Op))
		}
		if op.Guard != nil {
			panic(fmt.Sprintf("rts: fenced operation %s is guarded; fences carry unguarded writes", fo.Op))
		}
		size += SizeOfArgs(fo.Args) + len(fo.Op) + 16
		seen := false
		for _, sk := range shards {
			if sk == k {
				seen = true
				break
			}
		}
		if !seen {
			shards = append(shards, k)
		}
	}
	sortInts(shards)
	w.SyncShared() // program order reaches every group before the fence
	w.Flush()
	r.fenceSeq++
	f := wireFence{FID: r.fenceSeq, Shards: shards, Target: -1, Ops: ops, Pause: true}
	rec := r.fenceRec(node, f)
	r.fencing[node]++
	for _, k := range shards {
		mgr := r.groups[k].mgr(node)
		uid := mgr.g.Broadcast(w.P, "rts-fence", f, size)
		mgr.await(w.P, uid)
	}
	for !rec.done {
		rec.cond.Wait(w.P)
	}
	r.fencing[node]--
	r.stats.FencedOps += int64(len(ops))
}

// forkFence broadcasts a barrier fence carrying body into every group
// whose span contains both the invoking machine and the target; the
// fork handler fires on the target once the LAST of those groups
// delivers there, so the payload observes every write the invoker
// sequenced before the fence, in every group the target replicates.
// It reports false when no group spans both machines (disjoint
// replication domains).
func (r *Router) forkFence(w *Worker, target int, body any, size int) bool {
	node := w.Node()
	var shards []int
	for k := range r.groups {
		if r.inSpan[k][node] && r.inSpan[k][target] {
			shards = append(shards, k)
		}
	}
	if len(shards) == 0 {
		return false
	}
	r.fenceSeq++
	f := wireFence{FID: r.fenceSeq, Shards: shards, Target: target, Body: body}
	for _, k := range shards {
		r.groups[k].mgr(node).g.Broadcast(w.P, "rts-fence", f, size+16)
	}
	return true
}
