// Per-object placement policies.
//
// The paper treats replication strategy as a per-object decision: the
// dynamic placement of §3.2.2 chooses each object's copy set from its
// own read/write ratio, and the authors note TSP's write-mostly job
// queue would be better kept in one copy while the bound stays fully
// replicated. This file makes that decision part of object creation:
// a Policy names a strategy (fully replicated, replicated on a subset,
// primary copy under a point-to-point protocol), creation options
// attach one to Proc.NewWith / TypeBuilder.NewWith, and a program
// configured with Config.Mixed can host objects under different
// strategies side by side. Objects created without a policy follow
// Config.RTS exactly as before.
package orca

import (
	"fmt"

	"repro/internal/rts"
)

// Re-exported protocol and placement names, so policy literals do not
// need a second import.
const (
	// Invalidation discards secondary copies on writes.
	Invalidation = rts.Invalidation
	// Update ships write operations to secondary copies.
	Update = rts.Update

	// DynamicPlacement replicates from read/write-ratio statistics.
	DynamicPlacement = rts.DynamicPlacement
	// SingleCopy keeps exactly the primary copy.
	SingleCopy = rts.SingleCopy
	// FullReplication installs a copy on every machine at creation.
	FullReplication = rts.FullReplication
)

// Policy declares where a shared object's replicas live and how they
// are kept consistent. The concrete policies are Default, Replicated,
// ReplicatedOn, and PrimaryCopy.
type Policy interface {
	applyPolicy(*createSpec)
}

// placementMode is the resolved policy family.
type placementMode int

const (
	modeDefault placementMode = iota // follow Config.RTS
	modeReplicated
	modePrimaryCopy
	modeAdaptive
)

// shardMode says how a sharded runtime picks the object's sequencer
// group (see OnShard and Sharded).
type shardMode int

const (
	shardAuto     shardMode = iota // hash of the object id
	shardExplicit                  // OnShard: the named shard
	shardKeyed                     // Sharded: key mod shard count
)

// createSpec is the accumulated result of a creation-option list.
type createSpec struct {
	mode      placementMode
	nodes     []int
	protocol  rts.P2PProtocol
	placement rts.Placement
	adapt     rts.AdaptConfig
	shardSel  shardMode
	shard     int // OnShard target / Sharded key
}

type defaultPolicy struct{}

func (defaultPolicy) applyPolicy(cs *createSpec) {
	cs.mode = modeDefault
	cs.nodes = nil
}

// Default is the back-compat policy: the object is hosted by the
// runtime Config.RTS selects, exactly as a plain New. It is what an
// empty option list means.
var Default Policy = defaultPolicy{}

type replicatedPolicy struct{ nodes []int }

func (p replicatedPolicy) applyPolicy(cs *createSpec) {
	cs.mode = modeReplicated
	cs.nodes = p.nodes
}

// Replicated places the object on the broadcast runtime, fully
// replicated: local reads everywhere, writes through the total order —
// the paper's §3.2.1 strategy, chosen per object.
var Replicated Policy = replicatedPolicy{}

// ReplicatedOn is Replicated restricted to the given machines — the
// partial-replication optimization. Machines outside the set forward
// their operations to a replica holder.
func ReplicatedOn(nodes ...int) Policy {
	return replicatedPolicy{nodes: append([]int(nil), nodes...)}
}

// PrimaryCopy places the object on the point-to-point runtime: the
// primary copy lives on the creating machine, secondaries follow the
// Placement policy and are kept consistent by the Protocol — the
// paper's §3.2.2 strategy, chosen per object. The zero value means the
// invalidation protocol with dynamic placement.
type PrimaryCopy struct {
	Protocol  rts.P2PProtocol
	Placement rts.Placement
}

func (p PrimaryCopy) applyPolicy(cs *createSpec) {
	cs.mode = modePrimaryCopy
	cs.protocol = p.Protocol
	cs.placement = p.Placement
	cs.nodes = nil
}

type adaptivePolicy struct{ cfg rts.AdaptConfig }

func (p adaptivePolicy) applyPolicy(cs *createSpec) {
	cs.mode = modeAdaptive
	cs.adapt = p.cfg
	cs.nodes = nil
}

// Adaptive places the object under the online placement controller:
// it starts fully replicated on the broadcast runtime and re-places
// itself mid-run — replicated to primary copy, primary copy to
// replicated, primary re-homing toward the hottest writer — as the
// observed access pattern warrants (see rts/adapt.go). The zero
// AdaptConfig selects the default thresholds. Requires Config.Mixed —
// the controller migrates objects between both runtime subsystems —
// and, on a sharded runtime, full-span shards (ShardSpan 0).
func Adaptive(cfg rts.AdaptConfig) Policy { return adaptivePolicy{cfg: cfg} }

// Option configures one object creation. Build options with With and
// At, and pass them to Proc.NewWith or TypeBuilder.NewWith.
type Option func(*createSpec)

// With selects the object's placement policy. Options apply in order
// and a policy is a whole placement decision: it replaces any replica
// restriction an earlier option set, so an At meant to combine with a
// policy must come after its With.
func With(pol Policy) Option {
	return func(cs *createSpec) { pol.applyPolicy(cs) }
}

// At restricts the object's replicas to the given machines. Combined
// with (or defaulting to) a replicated policy it means ReplicatedOn;
// with PrimaryCopy it pins the primary, which must be the creating
// machine.
func At(nodes ...int) Option {
	cp := append([]int(nil), nodes...)
	return func(cs *createSpec) { cs.nodes = cp }
}

// OnShard pins the object to sequencer group k of a sharded runtime
// (Config.Shards > 1). k must name an existing shard whose span
// contains the creating machine. Creation on a non-sharded runtime
// panics: a pinned shard that silently degrades to "the one total
// order" would hide a misconfiguration.
func OnShard(k int) Option {
	return func(cs *createSpec) {
		cs.shardSel = shardExplicit
		cs.shard = k
	}
}

// Sharded selects the object's sequencer group as key modulo the shard
// count — the caller-controlled analogue of the default id hash, for
// programs that want related objects spread deterministically (a KV
// store striping its buckets). Requires a sharded runtime, like
// OnShard.
func Sharded(key int) Option {
	return func(cs *createSpec) {
		cs.shardSel = shardKeyed
		cs.shard = key
	}
}

// Opts bundles options into the slice NewWith takes, purely for
// call-site readability: NewWith(t, orca.Opts(orca.With(pol)), args).
func Opts(opts ...Option) []Option { return opts }

// resolveSpec folds an option list into a creation spec.
func resolveSpec(opts []Option) createSpec {
	var cs createSpec
	for _, o := range opts {
		o(&cs)
	}
	return cs
}

// NewWith creates a shared object of a registered type under the given
// creation options. With no options it is exactly New: the object
// follows Config.RTS. Policies beyond what the configured runtime can
// host (a PrimaryCopy object on a pure broadcast runtime, a Replicated
// object on a pure point-to-point runtime) require Config.Mixed and
// panic otherwise, naming the missing capability.
func (p *Proc) NewWith(typeName string, opts []Option, args ...any) Object {
	cs := resolveSpec(opts)
	return Object{id: p.rt.create(p.w, typeName, cs, args), rt: p.rt}
}

// create routes one creation spec onto the runtime system. The only
// refusals name a subsystem the configuration did not build.
func (rt *Runtime) create(w *rts.Worker, typeName string, cs createSpec, args []any) rts.ObjID {
	sys := rt.sys
	group := -1
	if cs.shardSel != shardAuto {
		n := sys.Groups()
		if n < 2 {
			panic("orca: OnShard/Sharded require a sharded runtime (Config.Shards > 1)")
		}
		group = ((cs.shard % n) + n) % n
		if cs.shardSel == shardExplicit && group != cs.shard {
			panic(fmt.Sprintf("orca: OnShard(%d) out of range [0,%d)", cs.shard, n))
		}
	}
	switch cs.mode {
	case modeDefault:
		if rt.cfg.RTS == Broadcast {
			return sys.CreateReplicated(w, typeName, group, cs.nodes, args...)
		}
		if cs.nodes != nil {
			panic("orca: At without a policy needs a broadcast default runtime; say With(ReplicatedOn(...)) or With(PrimaryCopy{...})")
		}
		return sys.Create(w, typeName, args...)
	case modeReplicated:
		if sys.Groups() == 0 {
			panic("orca: Replicated placement requires broadcast hardware; use RTS: Broadcast or Config.Mixed")
		}
		return sys.CreateReplicated(w, typeName, group, cs.nodes, args...)
	case modePrimaryCopy:
		if sys.P2P() == nil {
			panic("orca: PrimaryCopy placement requires the point-to-point runtime or Config.Mixed")
		}
		checkPrimaryNodes(w, cs.nodes)
		return sys.CreatePrimaryCopy(w, typeName, cs.protocol, cs.placement, args...)
	default:
		if sys.Groups() == 0 || sys.P2P() == nil {
			panic("orca: Adaptive placement requires Config.Mixed")
		}
		return sys.CreateAdaptive(w, typeName, cs.adapt, args...)
	}
}

// checkPrimaryNodes validates an At restriction on a primary-copy
// object: the primary always lives on the creating machine, so the
// only meaningful pin is that machine itself.
func checkPrimaryNodes(w *rts.Worker, nodes []int) {
	if nodes == nil {
		return
	}
	if len(nodes) != 1 || nodes[0] != w.Node() {
		panic(fmt.Sprintf("orca: a primary copy lives on its creating machine %d; At%v cannot move it", w.Node(), nodes))
	}
}
