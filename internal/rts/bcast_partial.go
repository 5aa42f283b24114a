package rts

import (
	"errors"
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/sim"
)

// Partial replication — the optimization the paper reports as under
// development ("In the initial implementation, every object is
// replicated on all machines that need it (an optimizing scheme using
// partial replication is under development)").
//
// A partially replicated object keeps its replicas on a subset of its
// group's machines (Router.CreateReplicated with nodes).
// Machines inside the placement behave exactly as with full
// replication: local reads, broadcast writes. Machines outside the
// placement forward their operations over RPC to a replica holder,
// which executes the operation through the normal path and returns the
// results. Write-heavy objects (like TSP's job queue, which the paper
// notes would be better off unreplicated) can thus be pinned to one
// machine, trading everyone's update-application cost for the
// forwarders' round trips.

// fwdPort prefixes the RPC port serving forwarded operations; group k
// binds fwdPort+k (see BroadcastRTS.fwdPort).
const fwdPort = "objfwd"

// fwdOp is the forwarded-operation request body.
type fwdOp struct {
	Obj  ObjID
	Op   string
	Args []any
}

// placement returns the replica set for an object; nil means all
// machines.
func (r *BroadcastRTS) placement(id ObjID) []int {
	if r.placements == nil {
		return nil
	}
	return r.placements[id]
}

// replicatedOn reports whether node holds a replica of id.
func (r *BroadcastRTS) replicatedOn(node int, id ObjID) bool {
	pl := r.placement(id)
	if pl == nil {
		return true
	}
	for _, n := range pl {
		if n == node {
			return true
		}
	}
	return false
}

// place records a partial placement for object id before its creation
// broadcast. The creating machine must be in the placement so creation
// can complete locally.
func (r *BroadcastRTS) place(creator int, id ObjID, nodes []int) {
	holder := false
	for _, n := range nodes {
		if n == creator {
			holder = true
			break
		}
	}
	if !holder {
		panic(fmt.Sprintf("rts: create from node %d outside placement %v", creator, nodes))
	}
	if r.placements == nil {
		r.placements = make(map[ObjID][]int)
	}
	r.placements[id] = append([]int(nil), nodes...)
}

// startForwarders binds the forwarded-operation service on every
// machine. Each request is handled on a fresh thread so a guarded
// operation cannot stall other forwarded work.
func (r *BroadcastRTS) startForwarders(machines []*amoeba.Machine) {
	for i, m := range machines {
		mgr := r.mgrs[i]
		srv := amoeba.NewServer(m, r.fwdPort)
		mgr.fwdSrv = srv
		mgr.fwdClient = amoeba.NewClient(m, amoeba.RPCDefaults{Timeout: 2 * sim.Second, Retries: 1 << 20})
		m.SpawnThread("objfwd", func(p *sim.Proc) {
			for {
				req, ok := srv.GetRequest(p)
				if !ok {
					return
				}
				body := req.Body.(fwdOp)
				mgr.m.SpawnThread("objfwd-op", func(hp *sim.Proc) {
					hw := NewWorker(hp, mgr.m)
					res := r.Invoke(hw, body.Obj, body.Op, body.Args...)
					hw.Flush()
					srv.PutReply(hp, req, res, SizeOfArgs(res))
				})
			}
		})
	}
}

// forward executes an operation at a replica holder on behalf of a
// machine that holds no replica — outside the object's placement, or
// outside the group span altogether — over the RPC client cl. The
// holders are the placement, or the whole span for a fully replicated
// object. Dead holders are skipped, and a holder that dies
// mid-operation fails the RPC with ErrCrashed; the operation is then
// retried at the next surviving holder. A retried write may therefore
// execute twice if the dead holder applied it before crashing and the
// write had already been broadcast — the at-least-once caveat every
// crash-recovery path of the runtime shares (see DESIGN.md).
func (r *BroadcastRTS) forward(w *Worker, cl *amoeba.Client, id ObjID, opName string, args []any) []any {
	w.Flush()
	r.stats.Forwarded++
	holders := r.placement(id)
	if holders == nil {
		holders = r.span
	}
	first := true
	for _, holder := range holders {
		if r.down[holder] || w.M.Net().Down(holder) {
			continue
		}
		if !first {
			r.stats.OpsRetried++
		}
		first = false
		rep, err := cl.Trans(w.P, holder, r.fwdPort, opName,
			fwdOp{Obj: id, Op: opName, Args: args}, SizeOfArgs(args)+len(opName)+16)
		if err == nil {
			if rep == nil {
				return nil
			}
			return rep.([]any)
		}
		if !errors.Is(err, amoeba.ErrCrashed) {
			panic(fmt.Sprintf("rts: forwarded op %s on object %d failed: %v", opName, id, err))
		}
	}
	panic(fmt.Sprintf("rts: no live replica holder for object %d (holders %v)", id, holders))
}

// directWrite applies a write to a single-copy object at its only
// holder, bypassing the broadcast entirely: with exactly one replica
// there is nothing to keep consistent, and the holder's execution
// order is the object's total order. Guarded writes wait on the
// replica's condition like guarded reads do.
func (mgr *bcastManager) directWrite(w *Worker, inst *bcastInstance, op *OpDef, args []any) []any {
	r := mgr.rts
	for {
		w.Flush()
		if op.Guard != nil {
			w.Accrue(r.costs.GuardCheck)
			if !op.Guard(inst.state, args) {
				r.stats.GuardWaits++
				inst.cond.Wait(w.P)
				continue
			}
		}
		w.Accrue(r.costs.WriteApply + r.costs.opCost(op))
		res := op.Apply(inst.state, args)
		inst.writes++
		if !inst.typ.SizeFixed {
			inst.seg.Resize(int64(inst.typ.stateSize(inst.state)))
		}
		inst.cond.Broadcast()
		return res
	}
}
