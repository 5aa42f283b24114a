package main

import (
	"fmt"
	"sort"

	"repro/internal/apps/kv"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The benchmark drives the kv store with its own client loop, so that
// it can time each call. The loop is kv.Run's, step for step: the same
// shard placement, objects, forks, supervisor and audit, so the
// simulation is event-for-event the one kv.Run produces on the same
// trace (TestClientLoopMatchesKVRun holds it to that).

// kvSpec configures one store run.
type kvSpec struct {
	cfg     orca.Config
	policy  kv.Policy // PolicyReplicated, PolicyPrimary or PolicyMixed
	clients int       // default one per processor; client c runs on machine c mod P
	traffic workload.Config
}

// writeRec is one completed write: when it was issued and completed.
type writeRec struct{ issue, done sim.Time }

// kvRun is one store run's result.
type kvRun struct {
	simRun
	scheduled, completed int64
	gets, puts, updates  int64
	lostAcked            int
	firstAt, lastDone    sim.Time
	lat                  []sim.Time // per request: due -> done
	classLat             [numClasses][]sim.Time
	issueLag             []sim.Time // per request: due -> issued
	writes               []writeRec
}

// kvPollInterval is kv.Run's supervisor poll interval.
const kvPollInterval = 25 * sim.Millisecond

// kvShardOf is kv.Run's key-to-shard hash.
func kvShardOf(key int64, shards int) int {
	h := (uint64(key) + 1) * 0x9E3779B97F4A7C15
	return int((h >> 17) % uint64(shards))
}

// kvShardOpts is kv.Run's per-shard placement for the static policies.
func kvShardOpts(pl kv.Policy, s int) []orca.Option {
	if pl == kv.PolicyMixed {
		pl = kv.PolicyReplicated
		if s%2 == 1 {
			pl = kv.PolicyPrimary
		}
	}
	if pl == kv.PolicyPrimary {
		return orca.Opts(orca.With(orca.PrimaryCopy{Protocol: orca.Update, Placement: orca.SingleCopy}))
	}
	return orca.Opts(orca.With(orca.Replicated))
}

// clientTraffic is client c's share of the aggregate traffic, seeded
// exactly as kv.Run seeds it.
func clientTraffic(agg workload.Config, c, clients int) workload.Config {
	w := agg
	w.Rate = agg.Rate / float64(clients)
	w.Ops = agg.Ops / clients
	w.Seed = agg.Seed ^ int64(c+1)*0x5DEECE66D
	return w
}

// drawTrace generates one client's trace up front (set-up), timing the
// generator calls when tracing.
func drawTrace(cfg workload.Config, tr *tracer) []workload.Op {
	g := workload.New(cfg)
	var ops []workload.Op
	for {
		h0 := tr.now()
		op, ok := g.Next()
		tr.countNext(h0)
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

// serveKV runs the store on spec's traffic and audits it.
func serveKV(spec kvSpec, clk *clock, tr *tracer) kvRun {
	cfg := spec.cfg
	P := cfg.Processors
	nShards, nClients := 2*P, spec.clients
	if nClients == 0 {
		nClients = P
	}
	traces := make([][]workload.Op, nClients)
	var out kvRun
	for c := range traces {
		traces[c] = drawTrace(clientTraffic(spec.traffic, c, nClients), tr)
		out.scheduled += int64(len(traces[c]))
	}

	rt := orca.New(cfg, kv.Register)
	root := tr.open("apps.kv", -1)
	rep := rt.Run(func(p *orca.Proc) {
		shards := make([]kv.Shard, nShards)
		creators := min(P, nShards)
		ready := std.NewBarrier(p, creators)
		for home := 0; home < creators; home++ {
			home := home
			p.Fork(home, fmt.Sprintf("kv-place%d", home), func(cp *orca.Proc) {
				for s := home; s < nShards; s += P {
					shards[s] = kv.NewShard(cp, kvShardOpts(spec.policy, s)...)
				}
				ready.Arrive(cp)
			})
		}
		ready.Wait(p)

		histAll := p.Histogram("kv.all")
		exited := std.NewBoolArray(p, nClients, false)
		acked := make([]map[int64]int64, nClients) // key -> acked version
		for c := 0; c < nClients; c++ {
			c := c
			acked[c] = make(map[int64]int64)
			p.Fork(c%P, fmt.Sprintf("kv-client%d", c), func(cp *orca.Proc) {
				base := cp.Now()
				var puts int64
				for _, op := range traces[c] {
					start := cp.Now()
					issue := start
					if op.At > 0 {
						// Open loop: wait for the arrival instant; a client
						// already past it issues at once, and the latency
						// counts the backlog from the due time.
						at := base + op.At
						if at > start {
							cp.Sleep(at - start)
							issue = at
						}
						start = at
					}
					clk.startTimed()
					h0 := tr.now()
					sh := shards[kvShardOf(op.Key, nShards)]
					class := classWrite
					switch op.Kind {
					case workload.Get:
						sh.Get(cp, op.Key)
						class = classRead
						out.gets++
					case workload.Put:
						puts++
						acked[c][op.Key] = sh.Put(cp, op.Key, int64(c+1)<<32|puts)
						out.puts++
					case workload.Update:
						sh.Bump(cp, op.Key, 1)
						out.updates++
					}
					end := cp.Now()
					tr.span(classSpan[class], root, h0, issue, end)
					histAll.Record(end - start)
					out.lat = append(out.lat, end-start)
					out.classLat[class] = append(out.classLat[class], end-issue)
					out.issueLag = append(out.issueLag, issue-start)
					if class == classWrite {
						out.writes = append(out.writes, writeRec{issue, end})
					}
					if out.firstAt == 0 || start < out.firstAt {
						out.firstAt = start
					}
					if end > out.lastDone {
						out.lastDone = end
					}
				}
				exited.Set(cp, c, true)
			})
		}

		// Supervisor: a client is settled once it has exited or its
		// machine is down.
		for {
			settled := true
			for c := 0; c < nClients; c++ {
				if !exited.Get(p, c) && !p.NodeDown(c%P) {
					settled = false
					break
				}
			}
			if settled {
				break
			}
			p.Sleep(kvPollInterval)
		}

		// Audit, in sorted key order: every acknowledged write must
		// still be visible at (at least) its acked version.
		worst := make(map[int64]int64)
		for c := range acked {
			for k, v := range acked[c] {
				worst[k] = max(worst[k], v)
			}
		}
		keys := make([]int64, 0, len(worst))
		for k := range worst {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if _, ver := shards[kvShardOf(k, nShards)].Get(p, k); ver < worst[k] {
				out.lostAcked++
			}
		}
	})
	clk.stopTimed()
	tr.close(root, rep.Elapsed)
	out.simRun = newSimRun(rep, rt)
	out.completed = out.gets + out.puts + out.updates
	return out
}
