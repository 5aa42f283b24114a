// Command perfbench is the repository's benchmark. It runs one of four
// workloads over the whole simulated stack (sim, netsim, amoeba, group,
// rts, orca, apps) through public APIs only, checks the outputs, and
// prints its metrics; the last line of standard output is one JSON
// object.
//
//	perfbench --workload <tsp|kv-zipf|shard-stream|kv-crash> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it repeats the workload, untraced, for --seconds and
// reports the end-to-end metrics: host time as the median over repeats,
// virtual (modelled-system) figures once, after checking that every
// repeat produced them bit for bit. With --trace 1 it alternates
// untraced and traced repeats (spans around its own calls and a CPU
// profile) and reports the per-layer ledger. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/rts"
)

// gated lists the end-to-end metrics the JSON result carries: those
// that apply to every workload and are never zero. The others are
// printed in the report above it.
var gated = []string{"setup_s", "host_s", "host_peak_mb", "virtual_s", "virtual_ops_per_s"}

// Minimum repeats per run, whatever --seconds says.
const (
	minRepeats       = 3
	minTracedRepeats = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// repeat is one execution of a workload, reduced to what the report
// needs, so that no repeat's data stays live on the heap while later
// repeats are measured.
type repeat struct {
	fingerprint       string
	virt, layers      []metric // seed-determined figures (see fingerprint)
	attempted, failed int64
	violations        []string
	setup, host       time.Duration
	peakMB, allocMB   float64
	// Traced repeats only: profiled CPU time by layer, each op class's
	// host-time p50 and p99 with its span count, generator cost, and
	// any error from profiling or writing the trace.
	self              map[string]int64
	opHost            [numClasses][2]float64
	opCount           [numClasses]int
	nextNS, nextCalls int64
	traceErr          error
}

// runRepeat runs the workload once. A traced repeat also records spans
// and a CPU profile, and writes both to traceBase+".spans.jsonl" and
// traceBase+".cpu.pprof" (the last traced repeat's stay on disk).
func runRepeat(w workloadDef, seed int64, traced bool, traceBase string) repeat {
	runtime.GC()
	var r repeat
	var prof bytes.Buffer
	if traced {
		if r.traceErr = pprof.StartCPUProfile(&prof); r.traceErr != nil {
			traced = false
		}
	}
	tr := &tracer{on: traced, t0: time.Now()}
	hs := startHeapSampler()
	alloc0, gob0 := allocatedBytes(), rts.GobSizings()
	var clk clock
	clk.reset()
	out := w.run(seed, &clk, tr)
	clk.stopTimed()
	r.peakMB = hs.finish()
	r.allocMB = float64(allocatedBytes()-alloc0) / 1e6
	gobSizings := rts.GobSizings() - gob0
	if traced {
		pprof.StopCPUProfile()
	}
	r.setup, r.host = clk.setup, clk.timed
	r.attempted, r.failed, r.violations = out.attempted, out.failed, out.violations
	r.virt, r.layers = e2eVirtual(out), layerCounters(out, gobSizings)
	r.fingerprint = fingerprint(r)
	if traced {
		r.summarizeTrace(tr, prof.Bytes(), traceBase)
	}
	return r
}

// summarizeTrace folds a traced repeat's profile and spans into the
// repeat and writes them out.
func (r *repeat) summarizeTrace(tr *tracer, profile []byte, traceBase string) {
	samples, err := parseProfile(profile)
	if err != nil {
		r.traceErr = err
		return
	}
	r.self = map[string]int64{}
	foldSelf(samples, r.self)
	var byClass [numClasses][]float64
	for _, s := range tr.spans {
		for c := range classSpan {
			if s.Name == classSpan[c] {
				byClass[c] = append(byClass[c], float64(s.HostEnd-s.HostStart))
			}
		}
	}
	for c, d := range byClass {
		if len(d) == 0 {
			continue
		}
		sort.Float64s(d)
		r.opHost[c] = [2]float64{d[len(d)/2], d[min(len(d)-1, len(d)*99/100)]}
		r.opCount[c] = len(d)
	}
	r.nextNS, r.nextCalls = tr.nextNS, tr.nextCalls
	r.traceErr = writeTrace(traceBase, tr.spans, profile)
}

// fingerprint renders every seed-determined figure of a repeat; two
// repeats of one workload and seed must produce the same string.
func fingerprint(r repeat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempted=%d failed=%d violations=%q\n", r.attempted, r.failed, r.violations)
	for _, m := range append(append([]metric(nil), r.virt...), r.layers...) {
		fmt.Fprintf(&b, "%s=%s n=%d\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.n)
	}
	return b.String()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tsp, kv-zipf, shard-stream or kv-crash")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long to keep repeating the workload")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer ledger")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w workloadDef
	for _, d := range workloads {
		if d.name == *name {
			w = d
		}
	}
	if w.run == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of tsp, kv-zipf, shard-stream, kv-crash), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	traced := *trace == 1
	traceBase := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d", w.name, *seed))
	if traced {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	// A warm-up repeat first: its outputs are checked like every other
	// repeat's, its host times are not used. A traced run alternates
	// untraced and traced repeats.
	warm := runRepeat(w, *seed, false, traceBase)
	var plain, withTrace []repeat
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for len(plain) < minRepeats || (traced && len(withTrace) < minTracedRepeats) || time.Now().Before(deadline) {
		if traced && len(withTrace) < len(plain) {
			withTrace = append(withTrace, runRepeat(w, *seed, true, traceBase))
		} else {
			plain = append(plain, runRepeat(w, *seed, false, traceBase))
		}
	}

	var attempted, failed int64
	var violations []string
	for _, r := range append(append([]repeat{warm}, plain...), withTrace...) {
		attempted += r.attempted
		failed += r.failed
		if r.fingerprint != warm.fingerprint && violations == nil {
			violations = append(violations, "nondeterminism: a repeat's virtual metrics or layer counters differ from the first repeat's:\n"+
				diffLines(warm.fingerprint, r.fingerprint))
		}
		if r.traceErr != nil {
			violations = append(violations, "trace: "+r.traceErr.Error())
		}
	}
	violations = append(violations, warm.violations...)

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d trace=%d go=%s GOMAXPROCS=%d repeats=%d untraced, %d traced, 1 warm-up\n",
		w.name, *seed, *trace, runtime.Version(), runtime.GOMAXPROCS(0), len(plain), len(withTrace))

	hostS := medianOf(plain, func(r repeat) float64 { return r.host.Seconds() })
	var metrics []metric
	if !traced {
		e2e := []metric{
			{name: "setup_s", unit: "s", value: medianOf(plain, func(r repeat) float64 { return r.setup.Seconds() }),
				n: len(plain), note: "median over repeats " + spread(plain, func(r repeat) float64 { return r.setup.Seconds() })},
			{name: "host_s", unit: "s", value: hostS,
				n: len(plain), note: "median over repeats " + spread(plain, func(r repeat) float64 { return r.host.Seconds() })},
			{name: "host_peak_mb", unit: "MB", value: medianOf(plain, func(r repeat) float64 { return r.peakMB }),
				n: len(plain), note: "median over repeats " + spread(plain, func(r repeat) float64 { return r.peakMB })},
		}
		e2e = append(e2e, warm.virt...)
		e2e = append(e2e, metric{name: "fail_frac", unit: "ratio", value: float64(failed) / float64(max(attempted, 1)),
			note: fmt.Sprintf("%d failed of %d attempted", failed, attempted)})
		printMetrics(out, "end-to-end", e2e)
		metrics = pick(e2e, gated)
	} else {
		metrics = append(warm.layers, hostLedger(warm.layers, hostS, plain, withTrace)...)
		printMetrics(out, "per-layer ledger", metrics)
	}

	correct := len(violations) == 0
	for _, v := range violations {
		fmt.Fprintf(out, "VIOLATION %s\n", v)
	}
	res := map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": jsonMetrics(metrics)}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !correct || failed > 0 {
		return 1
	}
	return 0
}

// spread renders the range of a per-repeat figure.
func spread(rs []repeat, f func(repeat) float64) string {
	lo, hi := f(rs[0]), f(rs[0])
	for _, r := range rs[1:] {
		lo, hi = min(lo, f(r)), max(hi, f(r))
	}
	return fmt.Sprintf("[%.4g .. %.4g]", lo, hi)
}

// pick returns the named metrics, in the order given.
func pick(ms []metric, names []string) []metric {
	var out []metric
	for _, n := range names {
		for _, m := range ms {
			if m.name == n {
				out = append(out, m)
			}
		}
	}
	return out
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, m := range ms {
		extra := m.note
		if m.n > 0 {
			extra = strings.TrimSpace(fmt.Sprintf("n=%d %s", m.n, m.note))
		}
		fmt.Fprintf(w, "%-32s %16s %-6s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit, extra)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func jsonMetrics(ms []metric) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		out[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out
}

// diffLines returns the lines of b that differ from a's.
func diffLines(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var d []string
	for i := range bl {
		if i >= len(al) || al[i] != bl[i] {
			d = append(d, "  "+bl[i])
		}
	}
	return strings.Join(d, "\n")
}

// writeTrace writes a traced repeat's spans (JSON lines) and CPU
// profile next to base.
func writeTrace(base string, spans []span, profile []byte) error {
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", profile, 0o644)
}
