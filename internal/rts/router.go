package rts

import (
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/sim"
)

// Router is the runtime system a program talks to. It hosts N ≥ 0
// sequencer groups — each a BroadcastRTS over its own group.Member set,
// the paper's §3.2.1 runtime — and optionally the point-to-point
// primary-copy runtime of §3.2.2 on the same machines, and routes
// every object by its home: group k, or the point-to-point runtime.
// The configurations a program can ask for are shapes of this one
// router:
//
//   - pure broadcast: one group spanning every machine;
//   - pure point-to-point: no group, the point-to-point runtime;
//   - mixed placement: one group plus the point-to-point runtime, each
//     object choosing its strategy at creation;
//   - sharded total order: N > 1 groups, each object assigned to one
//     of them at creation, so unrelated objects sequence concurrently
//     through independent sequencers — with or without the
//     point-to-point runtime beside them.
//
// Inside a subsystem nothing changes: a replicated object's writes
// travel its group's total order exactly as in a solitary broadcast
// runtime, and a primary-copy object runs the invalidation or update
// protocol exactly as in a solitary point-to-point runtime. The
// subsystems share the wire and the CPUs, which is the point: mixed
// strategies are measured under honest contention.
//
// A group may span a subset of the machines (its replication domain):
// its multicast then interrupts only domain NICs, only domain machines
// apply its writes, and machines outside the domain reach its objects
// through the forwarder RPC. Writes spanning several groups stay
// atomic and deterministically ordered through sequenced fences (see
// fence.go), and adaptive objects migrate between their group and the
// point-to-point runtime under live traffic (see adapt.go).
type Router struct {
	reg      *Registry
	machines []*amoeba.Machine
	groups   []*BroadcastRTS
	inSpan   [][]bool // [group][node]
	p2p      *P2PRTS  // nil without the point-to-point runtime
	defP2P   bool     // Create places objects on the point-to-point runtime

	// home is both the id allocator and the routing table: object i
	// lives in group home[i], or on the point-to-point runtime when
	// home[i] is homeP2P. A slice, not a map: the typed local-read
	// fast path looks every read up here. Slot 0 is unused, so ids
	// start at 1.
	home []int32

	// forkKind names process-creation messages, both as a group
	// message kind and as the kernel port of the fallback path; extra
	// receives them on the target machine (see Fork).
	forkKind string
	extra    func(node int, body any)

	// Fence state (see fence.go): per-machine in-flight fence records
	// keyed by fence id, fences presumed aborted after their initiator
	// crashed, and the pausing fences each machine has in progress.
	fences       []map[int64]*fenceRec
	fenceAborted []map[int64]bool
	fencing      []int
	fenceSeq     int64

	// adapt holds the placement controller of every adaptive object
	// (see adapt.go); nil when no adaptive objects exist.
	adapt map[ObjID]*adaptInfo

	// stats holds the router's own counters: fenced ops and
	// migrations (see RTSStats).
	stats RTSStats
}

// homeP2P marks an object hosted by the point-to-point runtime.
const homeP2P = -1

// RouterConfig selects the subsystems a Router builds.
type RouterConfig struct {
	// Groups holds one configuration per sequencer group, in group
	// order. Group k's members join on the machines its Members list
	// names, which must be ascending; that list is also the group's
	// replication domain. A group whose Batch is enabled also turns on
	// the runtime's write combining (see batch.go).
	Groups []group.Config
	// P2P, when non-nil, adds the point-to-point runtime on every
	// machine.
	P2P *P2PConfig
	// DefaultP2P sends Create (Default-policy) objects to the
	// point-to-point runtime instead of a group. It is implied when
	// there is no group.
	DefaultP2P bool
}

// NewRouter builds the runtime system over machines (every node of the
// simulation, by node id). With groups, every machine must lie in at
// least one group's span, so creations and forks always have a local
// group to travel.
func NewRouter(reg *Registry, costs Costs, machines []*amoeba.Machine, cfg RouterConfig) *Router {
	if len(cfg.Groups) == 0 && cfg.P2P == nil {
		panic("rts: a runtime needs a sequencer group or the point-to-point runtime")
	}
	n := len(machines)
	r := &Router{
		reg:          reg,
		machines:     machines,
		home:         make([]int32, 1),
		fences:       make([]map[int64]*fenceRec, n),
		fenceAborted: make([]map[int64]bool, n),
		fencing:      make([]int, n),
	}
	for i := range r.fences {
		r.fences[i] = make(map[int64]*fenceRec)
		r.fenceAborted[i] = make(map[int64]bool)
	}
	// Every group joins before any runtime starts, so the kernels see
	// the same thread and port creation order whatever the shape.
	members := make([][]*group.Member, len(cfg.Groups))
	for k, gc := range cfg.Groups {
		for _, id := range gc.Members {
			members[k] = append(members[k], group.Join(machines[id], gc))
		}
	}
	covered := make([]bool, n)
	for k, gc := range cfg.Groups {
		span := gc.Members
		sub := make([]*amoeba.Machine, len(span))
		in := make([]bool, n)
		for i, id := range span {
			if i > 0 && span[i-1] >= id {
				panic(fmt.Sprintf("rts: group %d span %v not ascending", k, span))
			}
			sub[i] = machines[id]
			in[id] = true
			covered[id] = true
		}
		g := newBroadcastRTS(reg, costs, sub, members[k], span, fmt.Sprintf("%s%d", fwdPort, k))
		g.router = r
		g.batch = gc.Batch
		r.groups = append(r.groups, g)
		r.inSpan = append(r.inSpan, in)
	}
	for id, ok := range covered {
		if !ok && len(r.groups) > 0 {
			panic(fmt.Sprintf("rts: node %d lies in no group span", id))
		}
	}
	if cfg.P2P != nil {
		r.p2p = newP2PRTS(reg, costs, *cfg.P2P, machines)
		r.p2p.router = r
		r.defP2P = cfg.DefaultP2P || len(r.groups) == 0
	}
	return r
}

// Groups reports the sequencer-group count.
func (r *Router) Groups() int { return len(r.groups) }

// P2P exposes the point-to-point runtime, nil when not built.
func (r *Router) P2P() *P2PRTS { return r.p2p }

// alloc hands out the next object id with its home.
func (r *Router) alloc(home int) ObjID {
	r.home = append(r.home, int32(home))
	return ObjID(len(r.home) - 1)
}

// homeOf reports an object's home: a group index, or homeP2P. It
// stays small enough to inline into the read and invoke paths.
func (r *Router) homeOf(id ObjID) int {
	if id <= 0 || int(id) >= len(r.home) {
		unknownObject(id)
	}
	return int(r.home[id])
}

//go:noinline
func unknownObject(id ObjID) { panic(fmt.Sprintf("rts: unknown object %d", id)) }

// hashShard spreads object ids over n groups (Fibonacci hashing; ids
// are sequential, so the low bits alone would stripe, not spread).
func hashShard(id ObjID, n int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(n))
}

// Create instantiates a shared object of a registered type under the
// Default policy — on the point-to-point runtime under its configured
// protocol and placement, or replicated in a group picked by the id
// hash — and returns its id. It blocks until the creating machine can
// use the object.
func (r *Router) Create(w *Worker, typeName string, args ...any) ObjID {
	if r.defP2P {
		return r.CreatePrimaryCopy(w, typeName, r.p2p.cfg.Protocol, r.p2p.cfg.Placement, args...)
	}
	return r.CreateReplicated(w, typeName, -1, nil, args...)
}

// CreateReplicated creates an object replicated in sequencer group k —
// or, for k < 0, in the group the object id hashes to among the groups
// whose span contains the creator — on the whole group span (nodes ==
// nil) or only on the given nodes (partial replication). The creator
// must lie in the group's span and in nodes.
func (r *Router) CreateReplicated(w *Worker, typeName string, k int, nodes []int, args ...any) ObjID {
	id := r.alloc(homeP2P)
	k = r.pickGroup(w.Node(), id, k)
	r.home[id] = int32(k)
	g := r.groups[k]
	r.syncSwitch(w, g)
	g.create(w, id, typeName, nodes, args)
	return id
}

// pickGroup resolves the group a new object joins: k itself, checked,
// or for k < 0 the id hash over the groups spanning node.
func (r *Router) pickGroup(node int, id ObjID, k int) int {
	if len(r.groups) == 0 {
		panic("rts: replicated object on a runtime without a sequencer group")
	}
	if k >= 0 {
		if k >= len(r.groups) {
			panic(fmt.Sprintf("rts: group %d out of range [0,%d)", k, len(r.groups)))
		}
		if !r.inSpan[k][node] {
			panic(fmt.Sprintf("rts: create in group %d from node %d outside its span %v", k, node, r.groups[k].span))
		}
		return k
	}
	elig := 0
	for g := range r.groups {
		if r.inSpan[g][node] {
			elig++
		}
	}
	pick := hashShard(id, elig)
	for g := range r.groups {
		if r.inSpan[g][node] {
			if pick == 0 {
				return g
			}
			pick--
		}
	}
	panic("unreachable")
}

// CreatePrimaryCopy creates an object on the point-to-point runtime
// under the given consistency protocol and placement policy. The
// primary copy lives on the creating machine.
func (r *Router) CreatePrimaryCopy(w *Worker, typeName string, protocol P2PProtocol, placement Placement, args ...any) ObjID {
	if r.p2p == nil {
		panic("rts: primary-copy object on a runtime without the point-to-point subsystem")
	}
	w.SyncShared() // order after any buffered broadcast writes
	id := r.alloc(homeP2P)
	r.p2p.create(w, id, typeName, protocol, placement, args)
	return id
}

// syncSwitch re-points the worker's write-combining buffer when an
// operation targets a different group than the buffered writes: the
// buffer drains into its own group first (program order must reach the
// total order before the cross-group op), then follows the worker to
// the new group's manager. A worker streaming into one group never
// pays this; ping-ponging across groups degrades to one frame per
// switch — placement, not the runtime, is the lever there.
func (r *Router) syncSwitch(w *Worker, g *BroadcastRTS) {
	if b := w.batch; b != nil && b.mgr.rts != g {
		b.follow(w, g)
	}
}

// Invoke performs an operation on a shared object with the
// sequential-consistency and indivisibility guarantees of the shared
// data-object model. It blocks for guards, locks, and write
// completion. A local read's result slice may alias a per-worker
// scratch buffer: it is valid until the worker's next operation, and
// callers that retain results must copy them.
//
// Invoke routes by the object's home; machines outside a group's span
// forward to a span holder. An invocation that bounces off an object's
// old placement mid-migration (the retry sentinel, see adapt.go) waits
// for the home to flip and re-issues under the new placement — at most
// once per migration, and the re-issued operation executes exactly
// once, after the cut.
func (r *Router) Invoke(w *Worker, id ObjID, op string, args ...any) []any {
	for {
		k := r.homeOf(id)
		var res []any
		if k == homeP2P {
			// An op leaving the broadcast subsystem must observe the
			// worker's buffered broadcast writes in program order.
			w.SyncShared()
			res = r.p2p.Invoke(w, id, op, args...)
		} else {
			g := r.groups[k]
			r.syncSwitch(w, g)
			if g.mgr(w.Node()) == nil {
				return g.forward(w, r.localClient(w.Node()), id, op, args)
			}
			res = g.Invoke(w, id, op, args...)
		}
		if !isRetry(res) {
			if r.adapt != nil {
				r.adaptObserve(w, id, op)
			}
			return res
		}
		info := r.adapt[id]
		if info == nil {
			panic(fmt.Sprintf("rts: migration bounce on non-adaptive object %d", id))
		}
		r.awaitFlip(w, id, info, k)
	}
}

// localClient returns the forwarder RPC client of the first group
// spanning node (every machine lies in at least one span).
func (r *Router) localClient(node int) *amoeba.Client {
	for _, g := range r.groups {
		if mg := g.mgr(node); mg != nil {
			return mg.fwdClient
		}
	}
	panic(fmt.Sprintf("rts: node %d lies in no group span", node))
}

// LocalReadState serves the typed callers' local-read fast path:
// replicated objects expose the local replica state after charging
// exactly what the Invoke read path would (see
// BroadcastRTS.LocalReadState); primary-copy objects decline, so their
// reads take the general Invoke path (local copy, lock, or RPC). The
// state must be treated as read-only and not retained.
func (r *Router) LocalReadState(w *Worker, id ObjID, op *OpDef) (State, bool) {
	k := r.homeOf(id)
	if k == homeP2P {
		return nil, false
	}
	st, ok := r.groups[k].LocalReadState(w, id, op)
	if ok && r.adapt != nil {
		r.adaptCount(w, id, Read)
	}
	return st, ok
}

// PeekState returns a machine's current replica state (nil if the
// machine holds no copy). It is an inspection hook for tests and
// experiment harnesses, not part of the programming model.
func (r *Router) PeekState(node int, id ObjID) (State, bool) {
	if id <= 0 || int(id) >= len(r.home) {
		return nil, false
	}
	if k := r.home[id]; k != homeP2P {
		return r.groups[k].PeekState(node, id)
	}
	return r.p2p.PeekState(node, id)
}

// NodeCrashed tells every subsystem a machine crashed, so each routes
// around it: groups stop forwarding to the dead replica holder and the
// point-to-point runtime re-homes objects whose primary died. It also
// arranges the presumed abort of fences the machine was initiating
// (see fence.go) and wakes waiters of any moveout the machine was
// driving, so one of them can rescue the migration (see awaitFlip).
func (r *Router) NodeCrashed(node int) {
	for _, g := range r.groups {
		g.NodeCrashed(node)
	}
	if r.p2p != nil {
		r.p2p.NodeCrashed(node)
	}
	if r.fencing[node] > 0 {
		r.presumeAbort(node)
	}
	if r.adapt == nil {
		return
	}
	ids := make([]ObjID, 0, len(r.adapt))
	for id, info := range r.adapt {
		if info.migrating && info.toBr && !info.decided && info.fromNode == node {
			ids = append(ids, id)
		}
	}
	sortObjIDs(ids)
	for _, id := range ids {
		r.adapt[id].cond.Broadcast()
	}
}

// SetForkHandler installs h as the receiver of process-creation
// messages of the given kind (see Fork), on every machine: through
// every group's delivery stream, at the target of a barrier fence, and
// on the kernel port the point-to-point fallback uses.
func (r *Router) SetForkHandler(kind string, h func(node int, body any)) {
	r.forkKind = kind
	r.extra = h
	for _, g := range r.groups {
		for _, mgr := range g.mgrs {
			mgr.extra = h
		}
	}
	for _, m := range r.machines {
		node := m.ID()
		m.Bind(kind, func(p *sim.Proc, from int, pkt amoeba.Packet) { h(node, pkt.Body) })
	}
}

// Fork delivers a process-creation message to the target machine's
// fork handler, ordered after every write the invoker sequenced before
// it in every group the target replicates. One group carries it as a
// plain message in its total order. Several groups carry it as a
// barrier fence through every group spanning both machines (see
// forkFence). With no common group — no group at all, or disjoint
// replication domains — it is a kernel message, with the weaker
// ordering a point-to-point fork has.
func (r *Router) Fork(w *Worker, target int, body any, size int) {
	node := w.Node()
	if len(r.groups) == 1 {
		r.groups[0].mgr(node).g.Broadcast(w.P, r.forkKind, body, size)
		return
	}
	if len(r.groups) > 1 && r.forkFence(w, target, body, size) {
		return
	}
	w.M.Send(w.P, target, amoeba.Packet{Port: r.forkKind, Kind: r.forkKind, Body: body, Size: size})
}

// Counters returns the unified counter snapshot: every subsystem's
// counters merged, plus the router's own fence and migration counters.
func (r *Router) Counters() RTSStats {
	snaps := append(r.GroupCounters(), r.stats)
	if r.p2p != nil {
		snaps = append(snaps, r.p2p.Counters())
	}
	return Merge(snaps...)
}

// GroupCounters reports each sequencer group's own counter snapshot,
// in group order.
func (r *Router) GroupCounters() []RTSStats {
	out := make([]RTSStats, len(r.groups))
	for k, g := range r.groups {
		out[k] = g.Counters()
	}
	return out
}

// GroupStats reports the protocol counters of every group member, in
// group order and, within a group, in span order.
func (r *Router) GroupStats() []group.Stats {
	var out []group.Stats
	for _, g := range r.groups {
		for _, mgr := range g.mgrs {
			out = append(out, mgr.g.Stats())
		}
	}
	return out
}

// RTSStats is the unified runtime-counter snapshot: one schema for
// reports, experiment tables, and BENCH_engine.json whatever
// subsystems the router hosts.
type RTSStats struct {
	// Broadcast-runtime counters.
	LocalReads  int64 `json:"local_reads,omitempty"`  // reads served from a local replica (both runtimes)
	BcastWrites int64 `json:"bcast_writes,omitempty"` // writes shipped through the total order
	GuardWaits  int64 `json:"guard_waits,omitempty"`  // guard suspensions (both runtimes)
	Forwarded   int64 `json:"forwarded,omitempty"`    // ops forwarded to a partial-replication holder

	// Batching counters (see batch.go): ops submitted through
	// per-worker combining buffers, and the batch frames that carried
	// them — Frames << BatchedOps is the amortization experiments
	// report.
	BatchedOps int64 `json:"batched_ops,omitempty"`  // ops submitted through a combining buffer
	Frames     int64 `json:"batch_frames,omitempty"` // combining-buffer flushes (batched frames sent)

	// Point-to-point-runtime counters.
	RemoteReads   int64 `json:"remote_reads,omitempty"`  // reads RPC'd to the primary
	P2PWrites     int64 `json:"p2p_writes,omitempty"`    // writes routed to a primary copy
	Fetches       int64 `json:"fetches,omitempty"`       // secondary copies installed
	Discards      int64 `json:"discards,omitempty"`      // secondary copies dropped by the ratio heuristic
	Invalidations int64 `json:"invalidations,omitempty"` // invalidation messages sent
	Updates       int64 `json:"updates,omitempty"`       // update messages sent

	// Fence counters (see fence.go): write operations applied through
	// a pausing fence.
	FencedOps int64 `json:"fenced_ops,omitempty"`

	// Adaptive-placement counters (see adapt.go): completed online
	// migrations (including primary re-homes) and the total virtual
	// time objects spent mid-migration.
	Migrations         int64   `json:"migrations,omitempty"`
	MigrationVirtualUS float64 `json:"migration_virtual_us,omitempty"`

	// Fault-tolerance counters (see Router.NodeCrashed).
	Crashes    int64 `json:"crashes,omitempty"`     // machine crashes observed by the runtime
	OpsRetried int64 `json:"ops_retried,omitempty"` // operations retried after a crash broke their first attempt
	Rehomed    int64 `json:"rehomed,omitempty"`     // objects re-homed or restarted on a new primary

	// Sequencer-recovery counters from the group layer: election
	// rounds (elected-sequencer protocol), consensus takeovers, slots
	// re-proposed after a leader change, and the worst member's
	// virtual time spent with recovery in progress (suspicion to first
	// post-recovery delivery). Within one group, Elections and
	// Takeovers are the max over its members, which observe the same
	// logical recovery; across independent groups they sum (see
	// Merge). Reproposals sums, and the recovery time is the worst
	// outage anywhere.
	Elections         int64   `json:"elections,omitempty"`
	Takeovers         int64   `json:"takeovers,omitempty"`
	Reproposals       int64   `json:"reproposals,omitempty"`
	RecoveryVirtualUS float64 `json:"recovery_virtual_us,omitempty"`
}

// Merge combines counter snapshots from independent runtime subsystems
// hosted on the same machines (a router's sequencer groups and its
// point-to-point runtime) into one. Work counters sum — each subsystem
// performed its share of the reads, writes, frames, and retries — and
// so do elections and takeovers, because each group recovers its own
// sequencer. Whole-machine observations merge by max: every subsystem
// observes the same crash (NodeCrashed reaches all of them), and the
// recovery outage is the worst one anywhere, so Crashes and
// RecoveryVirtualUS would double-count under a sum.
func Merge(snaps ...RTSStats) RTSStats {
	var s RTSStats
	for _, o := range snaps {
		s.LocalReads += o.LocalReads
		s.BcastWrites += o.BcastWrites
		s.GuardWaits += o.GuardWaits
		s.Forwarded += o.Forwarded
		s.BatchedOps += o.BatchedOps
		s.Frames += o.Frames
		s.RemoteReads += o.RemoteReads
		s.P2PWrites += o.P2PWrites
		s.Fetches += o.Fetches
		s.Discards += o.Discards
		s.Invalidations += o.Invalidations
		s.Updates += o.Updates
		s.FencedOps += o.FencedOps
		s.Migrations += o.Migrations
		s.MigrationVirtualUS += o.MigrationVirtualUS
		if o.Crashes > s.Crashes {
			s.Crashes = o.Crashes
		}
		s.OpsRetried += o.OpsRetried
		s.Rehomed += o.Rehomed
		s.Elections += o.Elections
		s.Takeovers += o.Takeovers
		s.Reproposals += o.Reproposals
		if o.RecoveryVirtualUS > s.RecoveryVirtualUS {
			s.RecoveryVirtualUS = o.RecoveryVirtualUS
		}
	}
	return s
}
