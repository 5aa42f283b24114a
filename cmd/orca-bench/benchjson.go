package main

// The -bench-json mode: a self-contained engine benchmark runner that
// measures the simulation kernel and the object-runtime hot paths
// without the testing package, and records the results in
// BENCH_engine.json. The file is the performance trajectory baseline:
// each entry carries wall-ns/op, events/sec, and allocs/op, plus the
// virtual-time metrics for the runtime-level workloads (which must
// stay bit-identical across engine work — only the wall-clock numbers
// are allowed to move).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/amoeba"
	"repro/internal/apps/kv"
	"repro/internal/apps/tsp"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchResult is one benchmark's record in BENCH_engine.json.
type benchResult struct {
	Name         string  `json:"name"`
	Ops          int64   `json:"ops"`
	WallNsPerOp  float64 `json:"wall_ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	VirtualUsOp  float64 `json:"virtual_us_per_op,omitempty"`
	VirtualSec   float64 `json:"virtual_s,omitempty"`
	// Virtual-latency percentiles of the serving workloads (kv/*
	// entries): request->completion times measured from open-loop
	// arrival instants. Deterministic — they must stay bit-identical
	// across engine work, like the other virtual metrics.
	P50VirtUs float64 `json:"p50_virtual_us,omitempty"`
	P95VirtUs float64 `json:"p95_virtual_us,omitempty"`
	P99VirtUs float64 `json:"p99_virtual_us,omitempty"`
	// RecoveryVirtUs is the virtual crash-recovery stall of the
	// consensus crash entry (suspicion to the next delivery), another
	// deterministic figure that must reproduce exactly.
	RecoveryVirtUs float64 `json:"recovery_virtual_us,omitempty"`
	// RTS records the unified runtime-system counters of the workload
	// (runtime-level entries only). Like the virtual metrics they are
	// part of the reproduced result and must not move across engine
	// work.
	RTS *rts.RTSStats `json:"rts,omitempty"`
}

// benchFile is the schema of BENCH_engine.json.
type benchFile struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	Results     []benchResult `json:"results"`
	Baseline    []benchResult `json:"pre_refactor_baseline"`
}

// preRefactorBaseline pins the runtime-level workloads as measured
// before the fast-path scheduler rework (central scheduler goroutine,
// heap-only event queue, a fresh Event and closure per wakeup, O(n)
// queue sizing), median of interleaved runs on the same host class.
// Every regeneration of BENCH_engine.json carries it, so the file
// always shows the trajectory against the fixed starting point. The
// virtual metrics are identical by construction — only wall-clock and
// allocation figures were allowed to move.
var preRefactorBaseline = []benchResult{
	{Name: "orca/local-read", WallNsPerOp: 69.4, AllocsPerOp: 1, VirtualUsOp: 10.01},
	{Name: "orca/broadcast-write", WallNsPerOp: 21700, AllocsPerOp: 62, VirtualUsOp: 209.0},
	{Name: "fig2/tsp-p8", WallNsPerOp: 72.0e6, AllocsPerOp: 836858, VirtualSec: 0.8889},
}

// measure runs fn(n) and fills in wall, alloc, and event rates. fn
// returns the environment (for the dispatch counter; nil to skip
// events/sec) after driving n operations.
func measure(name string, n int64, fn func(n int64) *sim.Env) benchResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	env := fn(n)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	r := benchResult{
		Name:        name,
		Ops:         n,
		WallNsPerOp: float64(wall.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
	if env != nil {
		r.EventsPerSec = float64(env.Events()) / wall.Seconds()
	}
	return r
}

// runBenchJSON runs the engine suite and writes path.
func runBenchJSON(path string, quick bool) error {
	scale := int64(1)
	if quick {
		scale = 4
	}
	var results []benchResult

	// Kernel microbenchmarks (mirrors bench_engine_test.go).
	results = append(results, measure("engine/yield", 4_000_000/scale, func(n int64) *sim.Env {
		e := sim.New(1)
		e.Spawn("yielder", func(p *sim.Proc) {
			for i := int64(0); i < n; i++ {
				p.Yield()
			}
		})
		e.Run()
		e.Shutdown()
		return e
	}))
	results = append(results, measure("engine/yield-pingpong", 1_000_000/scale, func(n int64) *sim.Env {
		e := sim.New(1)
		for i := 0; i < 2; i++ {
			e.Spawn("ponger", func(p *sim.Proc) {
				for i := int64(0); i < n/2; i++ {
					p.Yield()
				}
			})
		}
		e.Run()
		e.Shutdown()
		return e
	}))
	results = append(results, measure("engine/sleep", 1_000_000/scale, func(n int64) *sim.Env {
		e := sim.New(1)
		const procs = 16
		for i := 0; i < procs; i++ {
			d := sim.Time(i + 1)
			e.Spawn("sleeper", func(p *sim.Proc) {
				for i := int64(0); i < n/procs; i++ {
					p.Sleep(d)
				}
			})
		}
		e.Run()
		e.Shutdown()
		return e
	}))
	results = append(results, measure("engine/queue", 500_000/scale, func(n int64) *sim.Env {
		e := sim.New(1)
		q := sim.NewQueue[int](e)
		e.Spawn("consumer", func(p *sim.Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
		e.Spawn("producer", func(p *sim.Proc) {
			for i := int64(0); i < n; i++ {
				q.Put(int(i))
				p.Yield()
			}
			q.Close()
		})
		e.Run()
		e.Shutdown()
		return e
	}))
	results = append(results, measure("engine/timer-cancel", 500_000/scale, func(n int64) *sim.Env {
		e := sim.New(1)
		const procs = 64
		for i := 0; i < procs; i++ {
			e.Spawn("caller", func(p *sim.Proc) {
				for i := int64(0); i < n/procs; i++ {
					timer := p.Env().After(10*sim.Millisecond, func() {})
					p.Sleep(sim.Time(1+p.Env().Rand().Intn(200)) * sim.Microsecond)
					timer.Cancel()
				}
			})
		}
		e.Run()
		e.Shutdown()
		return e
	}))

	// Object-runtime primitives over the broadcast RTS (4 processors),
	// the workloads of BenchmarkOrcaOps. Their virtual-µs/op must not
	// move across engine changes (the batched variant pins its own
	// figures — batching changes virtual timing by design).
	orcaOp := func(name string, n int64, cfg orca.Config, op func(p *orca.Proc, c std.Counter, i int64)) benchResult {
		var rt *orca.Runtime
		var per sim.Time
		r := measure(name, n, func(n int64) *sim.Env {
			rt = orca.New(cfg, std.Register)
			rt.Run(func(p *orca.Proc) {
				c := std.NewCounter(p, 0)
				start := p.Now()
				for i := int64(0); i < n; i++ {
					op(p, c, i)
				}
				per = (p.Now() - start) / sim.Time(n)
			})
			return rt.Env()
		})
		r.VirtualUsOp = per.Microseconds()
		st := rt.Stats()
		r.RTS = &st
		return r
	}
	base4 := orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}
	batched4 := base4
	batched4.Batching = orca.DefaultBatching()
	results = append(results, orcaOp("orca/local-read", 2_000_000/scale, base4,
		func(p *orca.Proc, c std.Counter, _ int64) { c.Value(p) }))
	results = append(results, orcaOp("orca/broadcast-write", 100_000/scale, base4,
		func(p *orca.Proc, c std.Counter, i int64) { c.Assign(p, int(i)) }))
	// The same op stream through the combining buffer: the ≥2×
	// wall-clock amortization target of the batching pipeline.
	results = append(results, orcaOp("orca/bcast-write-batched", 100_000/scale, batched4,
		func(p *orca.Proc, c std.Counter, i int64) { c.Assign(p, int(i)) }))

	// Full application runs on the 12-city instance at 8 processors:
	// the Figure 2 TSP workload, and its mixed-placement variant
	// (primary-copy job queue on the point-to-point runtime,
	// broadcast-replicated bound — the counters prove both runtimes
	// carried traffic). virtual_s and the rts counters are the
	// reproduced datapoints and must stay fixed; wall_ns_per_op tracks
	// the engine.
	tspEntry := func(name string, cfg orca.Config, params tsp.Params) benchResult {
		inst := tsp.Generate(12, 5)
		var virtual sim.Time
		var stats rts.RTSStats
		r := measure(name, 1, func(int64) *sim.Env {
			res := tsp.RunOrca(cfg, inst, params)
			virtual = res.Report.Elapsed
			stats = res.Report.RTS
			return res.Runtime.Env()
		})
		r.VirtualSec = virtual.Seconds()
		r.RTS = &stats
		return r
	}
	results = append(results,
		tspEntry("fig2/tsp-p8",
			orca.Config{Processors: 8, RTS: orca.Broadcast, Seed: 1}, tsp.Params{}),
		tspEntry("mixed/tsp-p8",
			orca.Config{Processors: 8, RTS: orca.Broadcast, Mixed: true, Seed: 1},
			tsp.Params{PrimaryCopyQueue: true}),
		// Large-P batched TSP: the scale-out datapoint BENCH_engine.json
		// tracks (32 processors, sequencer batching on; the rts block
		// records the batched-op/frame amortization).
		tspEntry("scale/tsp-p32",
			orca.Config{Processors: 32, RTS: orca.Broadcast, Seed: 1, Batching: orca.DefaultBatching()},
			tsp.Params{}),
		// The same batched scale-out run through the consensus-replicated
		// log: the steady-state overhead of quorum sequencing.
		tspEntry("consensus/tsp-p32",
			orca.Config{Processors: 32, RTS: orca.Broadcast, Seed: 1,
				Batching: orca.DefaultBatching(), Protocol: group.Consensus},
			tsp.Params{}))

	// Consensus crash recovery: the leader machine dies mid-search and
	// the survivors take over without an election. The recovery
	// watermark (recovery_virtual_us) is the pinned datapoint.
	crashEntry := tspEntry("consensus/tsp-crash-p8",
		orca.Config{Processors: 8, RTS: orca.Broadcast, Seed: 1,
			Protocol: group.Consensus, Sequencer: 7,
			Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 7, At: 150 * sim.Millisecond}}}},
		tsp.Params{FaultTolerant: true})
	crashEntry.RecoveryVirtUs = crashEntry.RTS.RecoveryVirtualUS
	results = append(results, crashEntry)

	// Serving workload: the sharded KV store under open-loop Zipf(0.99)
	// read-heavy traffic at 8 processors, replicated vs primary-copy
	// shards on the identical trace. The virtual percentiles and rts
	// counters are the reproduced datapoints; wall tracks the engine.
	kvEntry := func(name string, policy kv.Policy) benchResult {
		wl := workload.Config{
			Keys: 2048, Dist: workload.Zipf, Theta: 0.99,
			ReadFrac: 0.95, UpdateFrac: 0.02, Seed: 1,
			Rate: 16000, Duration: 100 * sim.Millisecond,
		}
		var res kv.Result
		r := measure(name, 1, func(int64) *sim.Env {
			res = kv.Run(orca.Config{Processors: 8, RTS: orca.Broadcast, Mixed: true, Seed: 1},
				kv.Params{Policy: policy, Workload: wl})
			return res.Runtime.Env()
		})
		r.VirtualSec = res.Report.Elapsed.Seconds()
		all := res.Report.Latency["kv.all"]
		r.P50VirtUs = all.Percentile(0.50).Microseconds()
		r.P95VirtUs = all.Percentile(0.95).Microseconds()
		r.P99VirtUs = all.Percentile(0.99).Microseconds()
		st := res.Report.RTS
		r.RTS = &st
		return r
	}
	results = append(results,
		kvEntry("kv/zipf-p8-repl", kv.PolicyReplicated),
		kvEntry("kv/zipf-p8-primary", kv.PolicyPrimary))

	// Adaptive placement at scale: the phase-shift affinity trace on 32
	// processors, every shard under the online placement controller.
	// Shards migrate to their dominant writers and re-home when the
	// write traffic rotates mid-run; the rts block pins the migration
	// count and virtual migration cost along with the percentiles.
	adaptEntry := func() benchResult {
		const p = 32
		wl := workload.Config{
			Keys: 4096, Dist: workload.Uniform,
			ReadFrac: 0.5, UpdateFrac: 0.25, Seed: 1,
			Rate: 200 * p, Duration: 200 * sim.Millisecond,
			ShiftFrac: 0.5, Partitions: p, LocalFrac: 0.9,
		}
		var res kv.Result
		r := measure("adapt/kv-shift-p32", 1, func(int64) *sim.Env {
			res = kv.Run(orca.Config{Processors: p, RTS: orca.Broadcast, Mixed: true, Seed: 1},
				kv.Params{Policy: kv.PolicyAdaptive, Shards: p, AffineKeys: true,
					Adapt:    rts.AdaptConfig{SampleEvery: 16, MinDwell: 10 * sim.Millisecond},
					Workload: wl})
			return res.Runtime.Env()
		})
		r.VirtualSec = res.Report.Elapsed.Seconds()
		all := res.Report.Latency["kv.all"]
		r.P50VirtUs = all.Percentile(0.50).Microseconds()
		r.P95VirtUs = all.Percentile(0.95).Microseconds()
		r.P99VirtUs = all.Percentile(0.99).Microseconds()
		st := res.Report.RTS
		r.RTS = &st
		return r
	}
	results = append(results, adaptEntry())

	// Sharded total order: the counter scale-out workload (every machine
	// streams assigns to a counter homed in its own shard's domain, 16
	// sequencer groups over 128 machines on the modern cost profile) and
	// the hash-spread sharded TSP run. virtual_s and the rts counters
	// are the reproduced datapoints; wall tracks the engine.
	shardCounter := func(name string, p, shards int, opsPer int64) benchResult {
		net := netsim.Params{
			BandwidthBps: 1_000_000_000, PropDelay: 5 * sim.Microsecond,
			FrameOverhead: 42, MTU: 1500, BroadcastCapable: true,
		}
		kern := amoeba.DefaultCosts()
		kern.Interrupt, kern.Protocol = 5*sim.Microsecond, 3*sim.Microsecond
		kern.Send, kern.Switch = 6*sim.Microsecond, 2*sim.Microsecond
		span := p / shards
		cfg := orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1,
			Shards: shards, ShardSpan: span,
			Net: &net, KernelCosts: &kern, Batching: orca.DefaultBatching()}
		var rt *orca.Runtime
		var virtual sim.Time
		r := measure(name, int64(p)*opsPer, func(int64) *sim.Env {
			rt = orca.New(cfg, std.Register)
			rep := rt.Run(func(pr *orca.Proc) {
				fin := std.NewBarrier(pr, p)
				for cpu := 0; cpu < p; cpu++ {
					cpu := cpu
					pr.Fork(cpu, "bench-shard-w", func(wp *orca.Proc) {
						c := std.NewCounter(wp, 0, orca.OnShard(cpu/span))
						for i := int64(0); i < opsPer; i++ {
							c.Assign(wp, int(i))
						}
						fin.Arrive(wp)
					})
				}
				fin.Wait(pr)
			})
			virtual = rep.Elapsed
			return rt.Env()
		})
		r.VirtualSec = virtual.Seconds()
		st := rt.Stats()
		r.RTS = &st
		return r
	}
	// opsPer is NOT scaled down under -quick: the run is sub-second and
	// a shorter stream would shift the fixed fork/create startup share
	// of ns/op, making quick CI runs incomparable to the pinned figure.
	results = append(results,
		shardCounter("shard/counter-p128-s16", 128, 16, 100),
		tspEntry("shard/tsp-p64-s8",
			orca.Config{Processors: 64, RTS: orca.Broadcast, Seed: 1,
				Shards: 8, Batching: orca.DefaultBatching()},
			tsp.Params{}))

	out := benchFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Results:     results,
		Baseline:    preRefactorBaseline,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-22s %12.1f ns/op %14.0f events/s %8.1f allocs/op\n",
			r.Name, r.WallNsPerOp, r.EventsPerSec, r.AllocsPerOp)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
