package orca_test

// Compositions of the runtime router's shapes: sequencer shards beside
// the point-to-point runtime, adaptive objects migrating through their
// own shard's order, and fences on a single group. Each scenario runs
// twice and must reproduce its fingerprint bit for bit.

import (
	"fmt"
	"testing"

	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/sim"
)

// composeFingerprint summarizes a run for the double-run checks.
func composeFingerprint(rep orca.Report) string {
	return fmt.Sprintf("elapsed=%d frames=%d msgs=%d wire=%d rts=%+v shards=%d",
		int64(rep.Elapsed), rep.Net.Frames, rep.Net.Messages, rep.Net.WireBytes, rep.RTS, len(rep.Shards))
}

// runTwice runs a scenario twice and fails unless both runs print the
// same fingerprint.
func runTwice(t *testing.T, run func() orca.Report) orca.Report {
	t.Helper()
	rep := run()
	if rep.TimedOut {
		t.Fatalf("timed out; blocked: %v", rep.Blocked)
	}
	if a, b := composeFingerprint(rep), composeFingerprint(run()); a != b {
		t.Fatalf("runs diverged:\n  %s\n  %s", a, b)
	}
	return rep
}

// TestShardedMixedComposes: four sequencer shards and the
// point-to-point runtime in one program. Primary-copy counters carry
// per-worker traffic beside sharded replicated accounts, and fenced
// transfers move value between accounts in different shards.
func TestShardedMixedComposes(t *testing.T) {
	const procs, transfers, incs = 4, 8, 20
	var a, b, total, pc int
	rep := runTwice(t, func() orca.Report {
		rt := orca.New(orca.Config{Processors: procs, RTS: orca.Broadcast, Mixed: true,
			Shards: 4, Seed: 41}, std.Register)
		return rt.Run(func(p *orca.Proc) {
			acctA := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(0)), 100)
			acctB := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(2)))
			hits := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(3)))
			prim := make([]orca.Object, procs)
			for i := range prim {
				prim[i] = p.NewWith(std.IntObj, orca.Opts(orca.With(orca.PrimaryCopy{
					Protocol: orca.Update, Placement: orca.SingleCopy,
				})))
			}
			done := p.New(std.BarrierObj, procs-1)
			for cpu := 1; cpu < procs; cpu++ {
				cpu := cpu
				p.Fork(cpu, fmt.Sprintf("w%d", cpu), func(wp *orca.Proc) {
					for k := 0; k < incs; k++ {
						wp.Invoke(prim[cpu], "inc")
						wp.Invoke(hits, "inc")
					}
					wp.Invoke(done, "arrive")
				})
			}
			for k := 0; k < transfers; k++ {
				p.InvokeFenced(
					orca.FencedOp{Obj: acctA, Op: "add", Args: []any{-5}},
					orca.FencedOp{Obj: acctB, Op: "add", Args: []any{5}},
				)
			}
			p.Invoke(done, "wait")
			a, b, total = p.InvokeI(acctA, "value"), p.InvokeI(acctB, "value"), p.InvokeI(hits, "value")
			pc = 0
			for i := range prim {
				pc += p.InvokeI(prim[i], "value")
			}
		})
	})
	if a != 100-5*transfers || b != 5*transfers {
		t.Errorf("accounts = %d, %d; want %d, %d", a, b, 100-5*transfers, 5*transfers)
	}
	if want := (procs - 1) * incs; total != want || pc != want {
		t.Errorf("replicated hits = %d, primary-copy sum = %d; want %d each", total, pc, want)
	}
	if rep.RTS.FencedOps != 2*transfers {
		t.Errorf("FencedOps = %d, want %d", rep.RTS.FencedOps, 2*transfers)
	}
	if rep.RTS.P2PWrites == 0 || rep.RTS.BcastWrites == 0 {
		t.Errorf("both subsystems should carry writes; got p2p=%d bcast=%d", rep.RTS.P2PWrites, rep.RTS.BcastWrites)
	}
	if len(rep.Shards) != 4 {
		t.Errorf("Report.Shards has %d entries, want 4", len(rep.Shards))
	}
}

// TestAdaptiveAcrossShards: adaptive objects spread over four
// full-span shards (ids 1-4 hash to shards 0, 1, 2 and 2), each
// migrating through its own shard's order, go replicated → primary
// copy while one machine
// writes each of them, and back to replicated when every machine turns
// to reading them, losing no acknowledged write.
func TestAdaptiveAcrossShards(t *testing.T) {
	const procs, writes, reads = 4, 48, 60
	var midPrimary int
	var finals, acked []int
	rep := runTwice(t, func() orca.Report {
		rt := orca.New(orca.Config{Processors: procs, RTS: orca.Broadcast, Mixed: true,
			Shards: 4, Seed: 42}, std.Register)
		adapt := orca.Opts(orca.With(orca.Adaptive(
			rts.AdaptConfig{SampleEvery: 8, MinDwell: sim.Millisecond})))
		finals, acked = make([]int, procs), make([]int, procs)
		return rt.Run(func(p *orca.Proc) {
			objs := make([]orca.Object, procs)
			for i := range objs {
				objs[i] = p.NewWith(std.IntObj, adapt, 0)
			}
			wrote := p.New(std.BarrierObj, procs)
			read := p.New(std.BarrierObj, procs)
			for cpu := 0; cpu < procs; cpu++ {
				cpu := cpu
				p.Fork(cpu, fmt.Sprintf("w%d", cpu), func(wp *orca.Proc) {
					// Phase 1: this machine is its object's only writer.
					for k := 0; k < writes; k++ {
						wp.Invoke(objs[cpu], "inc")
						acked[cpu]++
						wp.Work(200 * sim.Microsecond)
					}
					wp.Invoke(wrote, "arrive")
					wp.Invoke(wrote, "wait")
					// Phase 2: every machine reads every object.
					for k := 0; k < reads; k++ {
						for i := range objs {
							wp.InvokeI(objs[i], "value")
						}
						wp.Work(100 * sim.Microsecond)
					}
					wp.Invoke(read, "arrive")
				})
			}
			p.Invoke(wrote, "wait")
			midPrimary = 0
			for _, pl := range rt.System().AdaptivePlacements() {
				if pl != "replicated" {
					midPrimary++
				}
			}
			p.Invoke(read, "wait")
			for i := range objs {
				finals[i] = p.InvokeI(objs[i], "value")
			}
		})
	})
	for i := range finals {
		if finals[i] != acked[i] {
			t.Errorf("object %d = %d, want its %d acknowledged writes", i, finals[i], acked[i])
		}
	}
	if midPrimary == 0 {
		t.Error("no adaptive object became a primary copy during the write phase")
	}
	for id, pl := range rep.Placements {
		if pl != "replicated" {
			t.Errorf("object %d ends %s, want replicated after the read phase", id, pl)
		}
	}
	if rep.RTS.Migrations < 2*int64(midPrimary) {
		t.Errorf("Migrations = %d, want a round trip for each of %d primaries", rep.RTS.Migrations, midPrimary)
	}
}

// TestInvokeFencedSingleGroupMixed: on one group beside the
// point-to-point runtime, a fence is one message in the group's total
// order and still applies its writes as one step.
func TestInvokeFencedSingleGroupMixed(t *testing.T) {
	const transfers, noise = 10, 30
	var a, b, n int
	rep := runTwice(t, func() orca.Report {
		rt := orca.New(orca.Config{Processors: 3, RTS: orca.Broadcast, Mixed: true, Seed: 43}, std.Register)
		return rt.Run(func(p *orca.Proc) {
			acctA := p.New(std.IntObj, 50)
			acctB := p.New(std.IntObj)
			q := p.NewWith(std.IntObj, orca.Opts(orca.With(orca.PrimaryCopy{})))
			done := p.New(std.BarrierObj, 2)
			for cpu := 1; cpu <= 2; cpu++ {
				p.Fork(cpu, fmt.Sprintf("noise%d", cpu), func(wp *orca.Proc) {
					for k := 0; k < noise; k++ {
						wp.Invoke(q, "inc")
						wp.Invoke(acctB, "add", 0)
					}
					wp.Invoke(done, "arrive")
				})
			}
			for k := 0; k < transfers; k++ {
				p.InvokeFenced(
					orca.FencedOp{Obj: acctA, Op: "add", Args: []any{-2}},
					orca.FencedOp{Obj: acctB, Op: "add", Args: []any{2}},
				)
			}
			p.Invoke(done, "wait")
			a, b, n = p.InvokeI(acctA, "value"), p.InvokeI(acctB, "value"), p.InvokeI(q, "value")
		})
	})
	if a != 50-2*transfers || b != 2*transfers || n != 2*noise {
		t.Errorf("a, b, q = %d, %d, %d; want %d, %d, %d", a, b, n, 50-2*transfers, 2*transfers, 2*noise)
	}
	if rep.RTS.FencedOps != 2*transfers {
		t.Errorf("FencedOps = %d, want %d", rep.RTS.FencedOps, 2*transfers)
	}
}

// TestAdaptiveRefusedUnderShardSpan: the one composition the router
// refuses. A moveout starts at the object's primary, which under
// ShardSpan may lie outside the shard's replication domain.
func TestAdaptiveRefusedUnderShardSpan(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true,
		Shards: 2, ShardSpan: 2, Seed: 46}, std.Register)
	rt.Run(func(p *orca.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Adaptive under ShardSpan did not panic")
			}
		}()
		p.NewWith(std.IntObj, orca.Opts(orca.With(orca.Adaptive(rts.AdaptConfig{}))))
	})
}
