package harness

import (
	"fmt"
	"io"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/rts"
	"repro/internal/sim"
)

// protoCluster builds machines and group members for the wire-level
// experiments.
type protoCluster struct {
	env *sim.Env
	net *netsim.Network
	ms  []*amoeba.Machine
	gs  []*group.Member
}

func newProtoCluster(seed int64, n int, cfgMut func(*group.Config)) *protoCluster {
	env := sim.New(seed)
	nw := netsim.New(env, n, netsim.DefaultParams())
	c := &protoCluster{env: env, net: nw}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	cfg := group.DefaultConfig(ids)
	cfg.Heartbeat = 0 // keep the wire clean for exact accounting
	cfg.StatusEvery = 0
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	for i := 0; i < n; i++ {
		m := amoeba.NewMachine(env, nw, i, amoeba.DefaultCosts())
		c.ms = append(c.ms, m)
		c.gs = append(c.gs, group.Join(m, cfg))
	}
	return c
}

// PBBBExperiment reproduces the §3.1 protocol analysis: PB sends the
// message twice over the wire but interrupts each user machine once;
// BB sends it once plus a short Accept but interrupts twice. The
// implementation switches from PB to BB at one packet.
func PBBBExperiment(w io.Writer, scale Scale) {
	sizes := []int{64, 256, 512, 1024, 1440, 2000, 4000, 8000}
	if scale == Quick {
		sizes = []int{256, 1440, 4000}
	}
	const nodes = 4
	run := func(method group.Method, size int) (wire int64, userIntr int64, latency sim.Time) {
		c := newProtoCluster(7, nodes, func(g *group.Config) { g.Method = method })
		var last sim.Time
		delivered := 0
		for i := 0; i < nodes; i++ {
			i := i
			c.ms[i].SpawnThread("consume", func(p *sim.Proc) {
				for {
					if _, ok := c.gs[i].Deliveries().Get(p); !ok {
						return
					}
					delivered++
					last = p.Now()
				}
			})
		}
		// Node 3 broadcasts (node 0 is the sequencer; nodes 1 and 2
		// are the "user machines" of the paper's analysis).
		c.ms[3].SpawnThread("send", func(p *sim.Proc) {
			c.gs[3].Broadcast(p, "payload", "m", size)
		})
		c.env.RunUntil(5 * sim.Second)
		s := c.net.Stats()
		c.env.Stop()
		c.env.Shutdown()
		return s.WireBytes, s.Interrupts[1], last
	}
	fmt.Fprintln(w, "== PBBB: the PB vs BB broadcast methods (§3.1) ==")
	fmt.Fprintln(w, "4 machines; sender is not the sequencer; 'user intr' is interrupts")
	fmt.Fprintln(w, "at a machine that is neither sender nor sequencer.")
	var rows [][]string
	for _, size := range sizes {
		pbWire, pbIntr, pbLat := run(group.ForcePB, size)
		bbWire, bbIntr, bbLat := run(group.ForceBB, size)
		_, _, autoLat := run(group.Auto, size)
		frags := (size + 24 + 1499) / 1500
		auto := "PB"
		if frags > 1 {
			auto = "BB"
		}
		rows = append(rows, []string{
			fmt.Sprint(size), fmt.Sprint(frags),
			fmt.Sprint(pbWire), fmt.Sprint(pbIntr), fmtTime(pbLat),
			fmt.Sprint(bbWire), fmt.Sprint(bbIntr), fmtTime(bbLat),
			auto, fmtTime(autoLat),
		})
	}
	Table(w, []string{"size", "pkts",
		"PB wire", "PB intr", "PB latency",
		"BB wire", "BB intr", "BB latency",
		"auto", "auto latency"}, rows)
	fmt.Fprintln(w, "Paper: PB consumes 2m bandwidth with one interrupt per machine; BB")
	fmt.Fprintln(w, "consumes m plus a short Accept with two interrupts; the system picks")
	fmt.Fprintln(w, "PB for short messages and BB for long ones (over 1 packet).")
	fmt.Fprintln(w)
}

// P2PWorkload drives a read/write mix over one object on a
// point-to-point cluster and reports elapsed virtual time, message
// count, and runtime statistics. It is the workload generator behind
// the RTSCMP and DYNREPL experiments and their benchmarks.
func P2PWorkload(proto rts.P2PProtocol, placement rts.Placement, nodes, readsPerWrite, writeRun, rounds int) (sim.Time, int64, rts.RTSStats) {
	env := sim.New(11)
	np := netsim.DefaultParams()
	np.BroadcastCapable = false
	nw := netsim.New(env, nodes, np)
	var ms []*amoeba.Machine
	for i := 0; i < nodes; i++ {
		ms = append(ms, amoeba.NewMachine(env, nw, i, amoeba.DefaultCosts()))
	}
	reg := rts.NewRegistry()
	reg.Register(counterType())
	cfg := rts.DefaultP2PConfig()
	cfg.Protocol = proto
	cfg.Placement = placement
	r := rts.NewRouter(reg, rts.DefaultCosts(), ms, rts.RouterConfig{P2P: &cfg})

	var id rts.ObjID
	var start, end sim.Time
	doneCount := 0
	ms[0].SpawnThread("driver", func(p *sim.Proc) {
		w := rts.NewWorker(p, ms[0])
		id = r.Create(w, "counter")
		start = p.Now()
		for n := 1; n < nodes; n++ {
			n := n
			ms[n].SpawnThread(fmt.Sprintf("w%d", n), func(p *sim.Proc) {
				w := rts.NewWorker(p, ms[n])
				// Reads and writes interleave continuously: every
				// node cycles through readsPerWrite reads; the
				// round's designated writer inserts a run of
				// writeRun consecutive writes, then reads on. A
				// little compute between operations keeps the nodes
				// drifting like real workers.
				for round := 0; round < rounds; round++ {
					if n == 1+(round%(nodes-1)) {
						for k := 0; k < writeRun; k++ {
							r.Invoke(w, id, "inc")
							w.Charge(200 * sim.Microsecond)
						}
					}
					for k := 0; k < readsPerWrite; k++ {
						r.Invoke(w, id, "get")
						w.Charge(sim.Time(100+n*37) * sim.Microsecond)
					}
				}
				w.Flush()
				doneCount++
				if doneCount == nodes-1 {
					end = p.Now()
				}
			})
		}
	})
	env.RunUntil(600 * sim.Second)
	env.Stop()
	stats := nw.Stats()
	env.Shutdown()
	return end - start, stats.Messages, r.P2P().Counters()
}

// counterType is a small int object for the protocol workloads.
func counterType() *rts.ObjectType {
	type cState struct{ v int }
	return &rts.ObjectType{
		Name:   "counter",
		New:    func([]any) rts.State { return &cState{} },
		Clone:  func(s rts.State) rts.State { c := *s.(*cState); return &c },
		SizeOf: func(rts.State) int { return 8 },
		Ops: map[string]*rts.OpDef{
			"get": {Name: "get", Kind: rts.Read,
				Apply: func(s rts.State, _ []any) []any { return []any{s.(*cState).v} }},
			"inc": {Name: "inc", Kind: rts.Write,
				Apply: func(s rts.State, _ []any) []any { s.(*cState).v++; return nil }},
		},
	}
}

// RTSCompareExperiment reproduces §3.2.2's update-vs-invalidation
// comparison across workloads: "Comparisons of update and invalidation
// did not show a clear winner. Which one is better depends on the
// problem being solved."
func RTSCompareExperiment(w io.Writer, scale Scale) {
	type cfg struct {
		name          string
		readsPerWrite int
		writeRun      int
	}
	cfgs := []cfg{
		{"read-heavy (32 reads/write)", 32, 1},
		{"mixed (8 reads/write)", 8, 1},
		{"write-runs (3 writes, 4 reads)", 4, 3},
		{"write-heavy (1 read, 6-write runs)", 1, 6},
	}
	nodes, rounds := 6, 12
	if scale == Quick {
		nodes, rounds = 3, 4
		cfgs = cfgs[:2]
	}
	fmt.Fprintln(w, "== RTSCMP: update vs invalidation protocols, point-to-point RTS (§3.2.2) ==")
	var rows [][]string
	for _, c := range cfgs {
		upT, upM, _ := P2PWorkload(rts.Update, rts.DynamicPlacement, nodes, c.readsPerWrite, c.writeRun, rounds)
		inT, inM, _ := P2PWorkload(rts.Invalidation, rts.DynamicPlacement, nodes, c.readsPerWrite, c.writeRun, rounds)
		winner := "update"
		if inT < upT {
			winner = "invalidate"
		}
		rows = append(rows, []string{
			c.name,
			fmtTime(upT), fmt.Sprint(upM),
			fmtTime(inT), fmt.Sprint(inM),
			winner,
		})
	}
	Table(w, []string{"workload", "update time", "update msgs", "inval time", "inval msgs", "winner"}, rows)
	fmt.Fprintln(w, "Paper: no clear winner; updating is better more often than")
	fmt.Fprintln(w, "invalidation, but which is better depends on the problem.")
	fmt.Fprintln(w)
}

// DynReplExperiment shows the dynamic replication policy (§3.2.2):
// read/write-ratio thresholds drive per-machine copy placement, against
// the static single-copy and full-replication baselines.
func DynReplExperiment(w io.Writer, scale Scale) {
	nodes, rounds := 6, 12
	readsPerWrite := 24
	if scale == Quick {
		nodes, rounds = 3, 4
	}
	fmt.Fprintln(w, "== DYNREPL: dynamic replication from read/write statistics (§3.2.2) ==")
	var rows [][]string
	for _, pl := range []rts.Placement{rts.SingleCopy, rts.FullReplication, rts.DynamicPlacement} {
		t, m, st := P2PWorkload(rts.Update, pl, nodes, readsPerWrite, 1, rounds)
		rows = append(rows, []string{
			pl.String(), fmtTime(t), fmt.Sprint(m),
			fmt.Sprint(st.LocalReads), fmt.Sprint(st.RemoteReads),
			fmt.Sprint(st.Fetches), fmt.Sprint(st.Discards),
		})
	}
	Table(w, []string{"placement", "time", "msgs", "local reads", "remote reads", "fetches", "discards"}, rows)
	fmt.Fprintln(w, "Paper: initially one copy; a machine fetches a copy when its")
	fmt.Fprintln(w, "read/write ratio exceeds a threshold and discards it when the ratio")
	fmt.Fprintln(w, "falls below another threshold.")
	fmt.Fprintln(w)
}

// MicroExperiment reports kernel-level microbenchmarks: null RPC and
// totally-ordered broadcast latency/throughput versus group size.
func MicroExperiment(w io.Writer, scale Scale) {
	fmt.Fprintln(w, "== MICRO: kernel communication primitives ==")
	// Null RPC.
	{
		env := sim.New(3)
		nw := netsim.New(env, 2, netsim.DefaultParams())
		m0 := amoeba.NewMachine(env, nw, 0, amoeba.DefaultCosts())
		m1 := amoeba.NewMachine(env, nw, 1, amoeba.DefaultCosts())
		srv := amoeba.NewServer(m1, "null")
		m1.SpawnThread("server", func(p *sim.Proc) {
			for {
				r, ok := srv.GetRequest(p)
				if !ok {
					return
				}
				srv.PutReply(p, r, nil, 0)
			}
		})
		cl := amoeba.NewClient(m0, amoeba.DefaultRPCPolicy())
		var rtt sim.Time
		m0.SpawnThread("client", func(p *sim.Proc) {
			const n = 100
			start := p.Now()
			for i := 0; i < n; i++ {
				if _, err := cl.Trans(p, 1, "null", "nop", nil, 0); err != nil {
					panic(err)
				}
			}
			rtt = (p.Now() - start) / n
		})
		env.RunUntil(60 * sim.Second)
		env.Stop()
		env.Shutdown()
		fmt.Fprintf(w, "  null RPC round trip: %v (Amoeba reported ~1.2ms on this class)\n", rtt)
	}
	// Broadcast latency and throughput vs group size.
	sizes := []int{2, 4, 8, 16}
	if scale == Quick {
		sizes = []int{2, 4}
	}
	var rows [][]string
	for _, n := range sizes {
		// Latency: one broadcast at a time, measured from send to the
		// last member's delivery.
		c := newProtoCluster(5, n, nil)
		const msgs = 20
		delivered := 0
		var sentAt sim.Time
		var latSum sim.Time
		ready := sim.NewCond(c.env)
		for i := 0; i < n; i++ {
			i := i
			c.ms[i].SpawnThread("consume", func(p *sim.Proc) {
				for {
					if _, ok := c.gs[i].Deliveries().Get(p); !ok {
						return
					}
					delivered++
					if delivered%n == 0 {
						latSum += p.Now() - sentAt
						ready.Broadcast()
					}
				}
			})
		}
		c.ms[n-1].SpawnThread("send", func(p *sim.Proc) {
			for k := 0; k < msgs; k++ {
				sentAt = p.Now()
				c.gs[n-1].Broadcast(p, "m", k, 128)
				for delivered < (k+1)*n {
					ready.Wait(p)
				}
			}
		})
		c.env.RunUntil(60 * sim.Second)
		c.env.Stop()
		c.env.Shutdown()
		latency := latSum / msgs

		// Throughput: a blast of back-to-back broadcasts.
		c2 := newProtoCluster(6, n, nil)
		const blast = 200
		got := 0
		var doneAt sim.Time
		for i := 0; i < n; i++ {
			i := i
			c2.ms[i].SpawnThread("consume", func(p *sim.Proc) {
				for {
					if _, ok := c2.gs[i].Deliveries().Get(p); !ok {
						return
					}
					got++
					if got == blast*n {
						doneAt = p.Now()
					}
				}
			})
		}
		c2.ms[n-1].SpawnThread("send", func(p *sim.Proc) {
			for k := 0; k < blast; k++ {
				c2.gs[n-1].Broadcast(p, "m", k, 128)
			}
		})
		c2.env.RunUntil(120 * sim.Second)
		c2.env.Stop()
		c2.env.Shutdown()
		rows = append(rows, []string{
			fmt.Sprint(n), fmtTime(latency),
			fmt.Sprintf("%.0f", float64(blast)/doneAt.Seconds()),
		})
	}
	Table(w, []string{"group size", "latency/broadcast", "broadcasts/sec (blast)"}, rows)
	fmt.Fprintln(w)
}
