package main

import (
	"fmt"
	"math/rand"

	"repro/internal/amoeba"
	"repro/internal/apps/kv"
	"repro/internal/apps/tsp"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadDef names one workload and the function that runs one repeat
// of it from a seed.
type workloadDef struct {
	name string
	run  func(seed int64, clk *clock, tr *tracer) outcome
}

var workloads = []workloadDef{
	{"tsp", runTSP},
	{"kv-zipf", runKVZipf},
	{"shard-stream", runShardStream},
	{"kv-crash", runKVCrash},
}

// Operation classes of the benchmark's own calls into orca.
const (
	classRead = iota
	classWrite
	classFenced
	numClasses
)

var classNames = [numClasses]string{"read", "write", "fenced"}

// simRun is what the ledger keeps from one simulated run.
type simRun struct {
	rep    orca.Report
	events int64
	group  group.Stats // summed over the members Runtime.GroupStats exposes
}

func newSimRun(rep orca.Report, rt *orca.Runtime) simRun {
	r := simRun{rep: rep, events: rt.Env().Events()}
	for _, g := range rt.GroupStats() {
		r.group.Sent += g.Sent
		r.group.PBSends += g.PBSends
		r.group.BBSends += g.BBSends
		r.group.Delivered += g.Delivered
		r.group.Retransmits += g.Retransmits
	}
	return r
}

// outcome is one repeat's result. Every field is a function of the
// workload and the seed alone, so all repeats of a run must agree on
// it exactly; host-time measurements live in clock and tracer.
type outcome struct {
	runs       []simRun
	attempted  int64
	failed     int64
	violations []string
	// ops completed over opsSpan of virtual time (virtual_ops_per_s).
	ops     int64
	opsSpan sim.Time
	// lat is the virtual latency of the benchmark's own calls by class;
	// e2eLat the per-request latencies virtual_p50/p999_us report.
	lat      [numClasses][]sim.Time
	e2eLat   []sim.Time
	issueLag []sim.Time // open loop: due -> issued
	// extra holds the workload's own end-to-end metrics (capacity_rps,
	// outage_ms).
	extra                 []metric
	tspNodes, tspSeqNodes int64
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// --- tsp ---------------------------------------------------------------

// tspCities and tspInstanceSeed give the 15-city instance the scratch
// measurements of the paper's Figure 2 program used; the benchmark seed
// relabels its cities.
const (
	tspCities       = 15
	tspInstanceSeed = 5
)

// relabel returns inst with cities 1..N-1 renumbered by a seeded
// permutation (city 0, the tour start, stays). The geometry and the
// optimum are unchanged; the branch-and-bound search order is not, so
// each seed is a different search of equal size.
func relabel(inst *tsp.Instance, seed int64) *tsp.Instance {
	n := inst.N
	old := make([]int, n) // new label -> old label
	for i, p := range rand.New(rand.NewSource(seed)).Perm(n - 1) {
		old[i+1] = p + 1
	}
	out := &tsp.Instance{N: n, Dist: make([][]int, n), Xs: make([]int, n), Ys: make([]int, n)}
	for i := 0; i < n; i++ {
		out.Xs[i], out.Ys[i] = inst.Xs[old[i]], inst.Ys[old[i]]
		out.Dist[i] = make([]int, n)
		for j := 0; j < n; j++ {
			out.Dist[i][j] = inst.Dist[old[i]][old[j]]
		}
	}
	return out
}

// runTSP solves the instance with the paper's program: 8 processors,
// broadcast runtime, one elected-sequencer group, no batching. Set-up
// builds the instance and its reference answer from tsp.SolveSeq.
func runTSP(seed int64, clk *clock, tr *tracer) outcome {
	inst := relabel(tsp.Generate(tspCities, tspInstanceSeed), seed)
	want, seqNodes := tsp.SolveSeq(inst)
	cfg := orca.Config{Processors: 8, RTS: orca.Broadcast, Seed: seed}

	clk.startTimed()
	root := tr.open("apps.tsp", -1)
	res := tsp.RunOrca(cfg, inst, tsp.Params{})
	clk.stopTimed()
	tr.close(root, res.Report.Elapsed)

	o := outcome{
		runs:        []simRun{newSimRun(res.Report, res.Runtime)},
		attempted:   1,
		ops:         res.Report.RTS.LocalReads + res.Report.RTS.BcastWrites,
		opsSpan:     res.Report.Elapsed,
		tspNodes:    res.Nodes,
		tspSeqNodes: seqNodes,
	}
	if res.Report.TimedOut {
		o.violate("tsp: run timed out")
	}
	if res.Best != want {
		o.violate("tsp: optimum %d, tsp.SolveSeq finds %d", res.Best, want)
	}
	if len(o.violations) > 0 {
		o.failed = 1
	}
	return o
}

// --- kv-zipf and kv-crash ------------------------------------------------

// kvTraffic is the serving mix: 8192 keys, Zipf 0.99, 90% get / 5% put
// / 5% update, open loop at the given aggregate rate.
func kvTraffic(seed int64, rate float64, d sim.Time) workload.Config {
	return workload.Config{Keys: 8192, Theta: 0.99, ReadFrac: 0.90, UpdateFrac: 0.05,
		Seed: seed, Rate: rate, Duration: d}
}

// The kv-zipf ladder of offered aggregate rates (requests per virtual
// second), the step latency is reported at, each step's length, and the
// latency limit that defines capacity.
var kvLadder = []float64{4800, 6400, 8000, 9600, 11200}

const (
	kvNominal    = 6400
	kvStep       = 2 * sim.Second
	capacityP999 = 25 * sim.Millisecond
)

// runKVZipf serves the ladder on 16 processors under the mixed runtime
// (even shards replicated, odd shards primary-copy), one open-loop
// client per machine.
func runKVZipf(seed int64, clk *clock, tr *tracer) outcome {
	var o outcome
	capacity := 0.0
	for _, rate := range kvLadder {
		r := serveKV(kvSpec{
			cfg:     orca.Config{Processors: 16, RTS: orca.Broadcast, Mixed: true, Seed: seed},
			policy:  kv.PolicyMixed,
			traffic: kvTraffic(seed, rate, kvStep),
		}, clk, tr)
		o.addKV(r)
		achieved := float64(r.completed) / (r.lastDone - r.firstAt).Seconds()
		if percentile(r.lat, 0.999) <= capacityP999 && achieved >= 0.99*rate && rate > capacity {
			capacity = rate
		}
		if rate == kvNominal {
			o.e2eLat, o.issueLag = r.lat, r.issueLag
		}
	}
	o.extra = []metric{{name: "capacity_rps", unit: "1/s", value: capacity,
		note: fmt.Sprintf("highest of %v req/s with p999 <= %v and >= 99%% achieved", kvLadder, capacityP999)}}
	return o
}

// runKVCrash serves the 6.4k step with every shard replicated and the
// sequencer on machine 15, which crashes halfway through. Clients run
// on machines 0-14, so the crash takes the sequencer and no client: no
// request may fail and no acknowledged write may be lost.
func runKVCrash(seed int64, clk *clock, tr *tracer) outcome {
	const (
		procs   = 16
		seqNode = procs - 1
		length  = 4 * sim.Second
		crashAt = length / 2
	)
	r := serveKV(kvSpec{
		cfg: orca.Config{Processors: procs, RTS: orca.Broadcast, Seed: seed, Sequencer: seqNode,
			Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: seqNode, At: crashAt}}}},
		policy:  kv.PolicyReplicated,
		clients: procs - 1,
		traffic: kvTraffic(seed, kvNominal, length),
	}, clk, tr)
	var o outcome
	o.addKV(r)
	o.e2eLat, o.issueLag = r.lat, r.issueLag
	if len(r.rep.Crashes) != 1 {
		o.violate("kv-crash: %d crashes executed, want 1", len(r.rep.Crashes))
	}
	// Outage: from the crash to the completion of the first write
	// issued after it.
	first := writeRec{issue: -1}
	for _, w := range r.writes {
		if w.issue >= crashAt && (first.issue < 0 || w.issue < first.issue) {
			first = w
		}
	}
	outage := 0.0
	if first.issue >= 0 {
		outage = float64(first.done-crashAt) / float64(sim.Millisecond)
	}
	o.extra = []metric{{name: "outage_ms", unit: "ms", value: outage,
		note: fmt.Sprintf("crash of the sequencer's machine at %v", crashAt)}}
	return o
}

// addKV folds one store run into the outcome.
func (o *outcome) addKV(r kvRun) {
	o.runs = append(o.runs, r.simRun)
	o.attempted += r.scheduled
	o.failed += r.scheduled - r.completed + int64(r.lostAcked)
	o.ops += r.completed
	o.opsSpan += r.lastDone - r.firstAt
	for c := range o.lat {
		o.lat[c] = append(o.lat[c], r.classLat[c]...)
	}
	if r.rep.TimedOut {
		o.violate("kv: run timed out")
	}
	if r.lostAcked > 0 {
		o.violate("kv: %d acknowledged writes lost", r.lostAcked)
	}
}

// --- shard-stream --------------------------------------------------------

// The scale-out configuration: 64 processors, 16 sequencer groups, each
// replicated on a 16-machine domain (4 domains of 4 shards), batching
// on, the modern cost profile.
const (
	ssProcs       = 64
	ssShards      = 16
	ssSpan        = 16
	ssDomains     = ssProcs / ssSpan
	ssPerDomain   = ssShards / ssDomains // shards (and accounts) per domain
	ssIters       = 512                  // assigns per process
	ssReadEvery   = 8                    // a forwarded read after every 8th assign
	ssFenceEvery  = 32                   // a fenced transfer after every 32nd assign
	ssInitBalance = 1_000_000
)

// ssPlan is one process's seeded script.
type ssPlan struct {
	assign    [ssIters]int
	readFrom  [ssIters / ssReadEvery]int // process whose counter to read
	transfers [ssIters / ssFenceEvery]struct{ from, to, amount int }
}

func planShardStream(seed int64) []ssPlan {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]ssPlan, ssProcs)
	for c := range plans {
		pl := &plans[c]
		for i := range pl.assign {
			pl.assign[i] = rng.Intn(1 << 30)
		}
		for i := range pl.readFrom {
			// A counter homed in another domain: reached by forwarding.
			pl.readFrom[i] = (c + ssSpan*(1+rng.Intn(ssDomains-1)) + rng.Intn(ssSpan)) % ssProcs
		}
		for i := range pl.transfers {
			from := rng.Intn(ssPerDomain)
			pl.transfers[i].from = from
			pl.transfers[i].to = (from + 1 + rng.Intn(ssPerDomain-1)) % ssPerDomain
			pl.transfers[i].amount = 1 + rng.Intn(100)
		}
	}
	return plans
}

// ownShard is the shard process c writes its counter in: one of the
// four shards of its domain, four writers per shard. Shard k spans
// domain k mod ssDomains.
func ownShard(c int) int { return c/ssSpan + ssDomains*(c%ssPerDomain) }

// modernProfile is the 1 Gb/s wire and microsecond kernel the sharded
// counter experiments use.
func modernProfile() (*netsim.Params, *amoeba.Costs) {
	net := netsim.Params{BandwidthBps: 1_000_000_000, PropDelay: 5 * sim.Microsecond,
		FrameOverhead: 42, MTU: 1500, BroadcastCapable: true}
	kern := amoeba.DefaultCosts()
	kern.Interrupt, kern.Protocol = 5*sim.Microsecond, 3*sim.Microsecond
	kern.Send, kern.Switch = 6*sim.Microsecond, 2*sim.Microsecond
	return &net, &kern
}

// runShardStream runs 64 closed-loop processes with no think time. Each
// streams no-result assigns to its own counter, reads a counter homed
// in another domain after every 8th assign, and moves an amount between
// two accounts in different shards of its domain with a fenced
// invocation after every 32nd.
func runShardStream(seed int64, clk *clock, tr *tracer) outcome {
	plans := planShardStream(seed)
	net, kern := modernProfile()
	cfg := orca.Config{Processors: ssProcs, RTS: orca.Broadcast, Seed: seed,
		Shards: ssShards, ShardSpan: ssSpan, Net: net, KernelCosts: kern,
		Batching: orca.DefaultBatching()}
	rt := orca.New(cfg, std.Register)

	var o outcome
	counters := make([]std.Counter, ssProcs)
	var accounts [ssDomains][ssPerDomain]std.Counter // domain d's account j lives in shard d + 4j
	var firstAt, lastDone sim.Time
	root := tr.open("apps.shard-stream", -1)
	record := func(class int, h0 int64, v0, v1 sim.Time) {
		tr.span(classSpan[class], root, h0, v0, v1)
		o.lat[class] = append(o.lat[class], v1-v0)
		if firstAt == 0 || v0 < firstAt {
			firstAt = v0
		}
		if v1 > lastDone {
			lastDone = v1
		}
	}
	perProc := int64(ssIters + ssIters/ssReadEvery + ssIters/ssFenceEvery)
	o.attempted = ssProcs * perProc

	rep := rt.Run(func(p *orca.Proc) {
		ready := std.NewBarrier(p, ssProcs)
		fin := std.NewBarrier(p, ssProcs)
		for c := 0; c < ssProcs; c++ {
			c := c
			p.Fork(c, fmt.Sprintf("stream%d", c), func(wp *orca.Proc) {
				d := c / ssSpan
				counters[c] = std.NewCounter(wp, 0, orca.OnShard(ownShard(c)))
				if c%ssSpan == 0 {
					for j := range accounts[d] {
						accounts[d][j] = std.NewCounter(wp, ssInitBalance, orca.OnShard(d+ssDomains*j))
					}
				}
				ready.Arrive(wp)
				ready.Wait(wp)
				clk.startTimed()
				pl := &plans[c]
				for i := 0; i < ssIters; i++ {
					h0, v0 := tr.now(), wp.Now()
					counters[c].Assign(wp, pl.assign[i])
					record(classWrite, h0, v0, wp.Now())
					if (i+1)%ssReadEvery == 0 {
						h0, v0 := tr.now(), wp.Now()
						counters[pl.readFrom[i/ssReadEvery]].Value(wp)
						record(classRead, h0, v0, wp.Now())
					}
					if (i+1)%ssFenceEvery == 0 {
						t := pl.transfers[i/ssFenceEvery]
						h0, v0 := tr.now(), wp.Now()
						wp.InvokeFenced(
							orca.FencedOp{Obj: accounts[d][t.from].Handle().Untyped(), Op: "add", Args: []any{-t.amount}},
							orca.FencedOp{Obj: accounts[d][t.to].Handle().Untyped(), Op: "add", Args: []any{t.amount}},
						)
						record(classFenced, h0, v0, wp.Now())
					}
				}
				fin.Arrive(wp)
			})
		}
		fin.Wait(p)
		// Output checks: each counter holds its writer's last assign,
		// and every domain's transfers conserved its total.
		for c := range counters {
			if got, want := counters[c].Value(p), plans[c].assign[ssIters-1]; got != want {
				o.violate("shard-stream: counter %d reads %d, its writer last assigned %d", c, got, want)
			}
		}
		for d := range accounts {
			sum := 0
			for j := range accounts[d] {
				sum += accounts[d][j].Value(p)
			}
			if want := ssPerDomain * ssInitBalance; sum != want {
				o.violate("shard-stream: domain %d accounts total %d, want %d", d, sum, want)
			}
		}
	})
	clk.stopTimed()
	tr.close(root, rep.Elapsed)

	o.runs = []simRun{newSimRun(rep, rt)}
	for _, l := range o.lat {
		o.ops += int64(len(l))
		o.e2eLat = append(o.e2eLat, l...)
	}
	o.opsSpan = lastDone - firstAt
	if rep.TimedOut {
		o.violate("shard-stream: run timed out")
	}
	if len(o.violations) > 0 {
		o.failed = o.attempted
	} else {
		o.failed = o.attempted - o.ops
	}
	return o
}
