package main

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// metric is one named figure with its unit. n is the sample count
// behind a percentile (0 when not a percentile); note is printed beside
// it in the report.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// clock splits one repeat's host time into set-up (everything before
// the first timed operation, and between a ladder's steps) and timed
// work.
type clock struct {
	mark         time.Time
	timing       bool
	setup, timed time.Duration
}

func (c *clock) reset() { *c = clock{mark: time.Now()} }

// startTimed ends set-up; repeated calls while timing are no-ops, so
// every process may call it before its first operation.
func (c *clock) startTimed() {
	if c.timing {
		return
	}
	now := time.Now()
	c.setup += now.Sub(c.mark)
	c.mark, c.timing = now, true
}

func (c *clock) stopTimed() {
	if !c.timing {
		return
	}
	now := time.Now()
	c.timed += now.Sub(c.mark)
	c.mark, c.timing = now, false
}

// span is one traced call: host nanoseconds since the repeat began, and
// the virtual interval it covered.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
}

var classSpan = [numClasses]string{"orca.read", "orca.write", "orca.fenced"}

// tracer records spans around the benchmark's calls into the stack.
// A nil or disabled tracer records nothing and reads no clock.
type tracer struct {
	on        bool
	t0        time.Time
	spans     []span
	nextNS    int64 // host time inside workload.Gen.Next
	nextCalls int64
}

// now returns host nanoseconds since the repeat began (0 when off).
func (t *tracer) now() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.t0))
}

// open starts a span that encloses others (a whole simulated run) and
// returns its id, -1 when tracing is off.
func (t *tracer) open(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, HostStart: t.now()})
	return len(t.spans) - 1
}

// close ends span id, which covered virtual time [0, v1].
func (t *tracer) close(id int, v1 sim.Time) {
	if id < 0 {
		return
	}
	t.spans[id].HostEnd, t.spans[id].VirtEnd = t.now(), int64(v1)
}

// span records a call that began at host time h0 and ends now.
func (t *tracer) span(name string, parent int, h0 int64, v0, v1 sim.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		HostStart: h0, HostEnd: t.now(), VirtStart: int64(v0), VirtEnd: int64(v1)})
}

// countNext charges one generator call begun at h0.
func (t *tracer) countNext(h0 int64) {
	if !t.on {
		return
	}
	t.nextNS += t.now() - h0
	t.nextCalls++
}

// e2eVirtual returns the end-to-end metrics that are a function of the
// seed (virtual time and failure counts), including those that apply to
// this workload only.
func e2eVirtual(o outcome) []metric {
	var elapsed sim.Time
	for _, r := range o.runs {
		elapsed += r.rep.Elapsed
	}
	ms := []metric{
		{name: "virtual_s", unit: "s", value: elapsed.Seconds(), note: "modelled makespan"},
		{name: "virtual_ops_per_s", unit: "1/s", value: float64(o.ops) / o.opsSpan.Seconds(),
			note: strconv.FormatInt(o.ops, 10) + " ops completed"},
	}
	if len(o.e2eLat) > 0 {
		n := len(o.e2eLat)
		ms = append(ms,
			metric{name: "virtual_p50_us", unit: "us", value: micros(percentile(o.e2eLat, 0.5)), n: n},
			metric{name: "virtual_p999_us", unit: "us", value: micros(percentile(o.e2eLat, 0.999)), n: n})
	}
	return append(ms, o.extra...)
}

// layerCounters returns the per-layer figures that are a function of
// the seed: counters and virtual-time ratios read from each layer's
// public statistics after the run.
func layerCounters(o outcome, gobSizings int64) []metric {
	var (
		events, frames, wireBytes, drops, faultDrops, interrupts int64
		busBusy, elapsed, machineTime, kernelBusy                sim.Time
		cpuMax, cpuSum                                           float64
		machines                                                 int
		grpWire, elections                                       int64
		recoveryUS                                               float64
	)
	var g struct{ sent, delivered, pb, bb, retx int64 }
	var st struct {
		localReads, remoteReads, p2pWrites, bcastWrites, batchedOps, batchFrames,
		forwarded, fencedOps, opsRetried, rehomed, guardWaits int64
	}
	for _, r := range o.runs {
		rep := r.rep
		events += r.events
		frames += rep.Net.Frames
		wireBytes += rep.Net.WireBytes
		drops += rep.Net.Drops
		faultDrops += rep.Net.FaultDrops
		for _, n := range rep.Net.Interrupts {
			interrupts += n
		}
		for kind, n := range rep.Net.CountsByKind {
			if strings.HasPrefix(kind, "grp-") {
				grpWire += n
			}
		}
		busBusy += rep.Net.BusBusy
		elapsed += rep.Elapsed
		for i, busy := range rep.CPUBusy {
			f := float64(busy) / float64(rep.Elapsed)
			cpuMax = max(cpuMax, f)
			cpuSum += f
			machines++
			kernelBusy += busy - rep.AppBusy[i]
			machineTime += rep.Elapsed
		}
		g.sent += r.group.Sent
		g.delivered += r.group.Delivered
		g.pb += r.group.PBSends
		g.bb += r.group.BBSends
		g.retx += r.group.Retransmits
		s := rep.RTS
		elections += s.Elections + s.Takeovers
		recoveryUS += s.RecoveryVirtualUS
		st.localReads += s.LocalReads
		st.remoteReads += s.RemoteReads
		st.p2pWrites += s.P2PWrites
		st.bcastWrites += s.BcastWrites
		st.batchedOps += s.BatchedOps
		st.batchFrames += s.Frames
		st.forwarded += s.Forwarded
		st.fencedOps += s.FencedOps
		st.opsRetried += s.OpsRetried
		st.rehomed += s.Rehomed
		st.guardWaits += s.GuardWaits
	}
	count := func(name string, v int64) metric { return metric{name: name, unit: "count", value: float64(v)} }
	ratio := func(name string, num, den float64) metric {
		m := metric{name: name, unit: "ratio"}
		if den != 0 {
			m.value = num / den
		}
		return m
	}
	ms := []metric{
		count("sim.events", events),
		count("netsim.frames", frames),
		{name: "netsim.wire_bytes", unit: "bytes", value: float64(wireBytes)},
		ratio("netsim.frames_per_op", float64(frames), float64(o.ops)),
		ratio("netsim.bus_busy_frac", float64(busBusy), float64(elapsed)),
		count("netsim.drops", drops),
		count("netsim.fault_drops", faultDrops),
		{name: "amoeba.cpu_busy_frac.max", unit: "ratio", value: cpuMax},
		ratio("amoeba.cpu_busy_frac.mean", cpuSum, float64(machines)),
		ratio("amoeba.kernel_busy_frac", float64(kernelBusy), float64(machineTime)),
		count("amoeba.interrupts", interrupts),
		count("group.sent", g.sent),
		count("group.delivered", g.delivered),
		count("group.pb_sends", g.pb),
		count("group.bb_sends", g.bb),
		count("group.retransmits", g.retx),
		ratio("group.retransmit_ratio", float64(g.retx), float64(g.sent)),
		count("group.wire_msgs", grpWire),
		ratio("group.ops_per_batch", float64(st.batchedOps), float64(st.batchFrames)),
		count("group.elections", elections),
		{name: "group.recovery_us", unit: "us", value: recoveryUS},
		count("rts.local_reads", st.localReads),
		count("rts.remote_reads", st.remoteReads),
		count("rts.p2p_writes", st.p2pWrites),
		count("rts.bcast_writes", st.bcastWrites),
		count("rts.batched_ops", st.batchedOps),
		count("rts.batch_frames", st.batchFrames),
		count("rts.forwarded", st.forwarded),
		count("rts.fenced_ops", st.fencedOps),
		count("rts.ops_retried", st.opsRetried),
		count("rts.rehomed", st.rehomed),
		count("rts.guard_waits", st.guardWaits),
		count("rts.gob_sizings", gobSizings),
	}
	for c, l := range o.lat {
		for _, q := range []struct {
			tag string
			q   float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			ms = append(ms, metric{name: "orca.op_virtual_us." + classNames[c] + "." + q.tag,
				unit: "us", value: micros(percentile(l, q.q)), n: len(l)})
		}
	}
	ms = append(ms,
		count("tsp.nodes", o.tspNodes),
		ratio("tsp.search_overhead", float64(o.tspNodes), float64(o.tspSeqNodes)),
		metric{name: "workload.issue_lag_us.p99", unit: "us",
			value: micros(percentile(o.issueLag, 0.99)), n: len(o.issueLag)},
	)
	return ms
}

// selfLayers are the layers whose profiled self time the ledger
// reports, in stack order.
var selfLayers = []string{"sim", "goruntime", "netsim", "amoeba", "group", "rts", "orca", "apps", "workload", "bench", "other"}

// hostLedger returns the per-layer figures measured in host time:
// profiled self time per layer (summed over the traced repeats), the
// per-op span percentiles (median over traced repeats), and the cost of
// tracing itself.
func hostLedger(layers []metric, untracedHostS float64, plain, traced []repeat) []metric {
	events := 1.0
	for _, m := range layers {
		if m.name == "sim.events" && m.value > 0 {
			events = m.value
		}
	}
	ms := []metric{{name: "sim.host_ns_per_event", unit: "ns", value: untracedHostS * 1e9 / events}}
	self := map[string]int64{}
	var total, nextNS, nextCalls int64
	for _, r := range traced {
		for l, ns := range r.self {
			self[l] += ns
			total += ns
		}
		nextNS += r.nextNS
		nextCalls += r.nextCalls
	}
	for _, l := range selfLayers {
		m := metric{name: l + ".self_frac", unit: "ratio"}
		if total > 0 {
			m.value = float64(self[l]) / float64(total)
		}
		ms = append(ms, m)
	}
	ms = append(ms, metric{name: "go.alloc_mb", unit: "MB", value: medianOf(plain, func(r repeat) float64 { return r.allocMB })})
	for c := range classNames {
		for q, tag := range []string{"p50", "p99"} {
			ms = append(ms, metric{name: "orca.op_host_ns." + classNames[c] + "." + tag, unit: "ns",
				value: medianOf(traced, func(r repeat) float64 { return r.opHost[c][q] }),
				n:     traced[len(traced)-1].opCount[c]})
		}
	}
	next := metric{name: "workload.next_host_ns", unit: "ns", n: int(nextCalls)}
	if nextCalls > 0 {
		next.value = float64(nextNS) / float64(nextCalls)
	}
	tracedHostS := medianOf(traced, func(r repeat) float64 { return r.host.Seconds() })
	return append(ms, next,
		metric{name: "trace.overhead_frac", unit: "ratio", value: tracedHostS/untracedHostS - 1})
}
