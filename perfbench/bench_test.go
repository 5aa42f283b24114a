package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/apps/tsp"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/rts"
	"repro/internal/sim"
)

// TestClientLoopMatchesKVRun is the client-loop fidelity check: on one trace
// the benchmark's own client loop and kv.Run must complete the same
// operations with the same virtual latencies, so the spans time the
// store as shipped.
func TestClientLoopMatchesKVRun(t *testing.T) {
	crash := &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 15, At: 150 * sim.Millisecond}}}
	cases := []struct {
		name    string
		cfg     orca.Config
		policy  kv.Policy
		clients int
	}{
		{"mixed", orca.Config{Processors: 16, RTS: orca.Broadcast, Mixed: true, Seed: 7}, kv.PolicyMixed, 0},
		{"crash", orca.Config{Processors: 16, RTS: orca.Broadcast, Seed: 8, Sequencer: 15, Faults: crash},
			kv.PolicyReplicated, 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traffic := kvTraffic(tc.cfg.Seed, kvNominal, 300*sim.Millisecond)
			ours := serveKV(kvSpec{cfg: tc.cfg, policy: tc.policy, clients: tc.clients, traffic: traffic},
				new(clock), new(tracer))
			ref := kv.Run(tc.cfg, kv.Params{Policy: tc.policy, Clients: tc.clients, Workload: traffic})

			if ours.gets != ref.Gets || ours.puts != ref.Puts || ours.updates != ref.Updates {
				t.Errorf("ops: benchmark gets/puts/updates %d/%d/%d, kv.Run %d/%d/%d",
					ours.gets, ours.puts, ours.updates, ref.Gets, ref.Puts, ref.Updates)
			}
			if ours.scheduled != ours.completed || ours.lostAcked != 0 || ref.LostAcked != 0 {
				t.Errorf("scheduled %d completed %d lost %d (kv.Run lost %d)",
					ours.scheduled, ours.completed, ours.lostAcked, ref.LostAcked)
			}
			if ours.rep.Elapsed != ref.Report.Elapsed {
				t.Errorf("virtual makespan: benchmark %v, kv.Run %v", ours.rep.Elapsed, ref.Report.Elapsed)
			}
			var spans rts.LatencyHist
			for _, d := range ours.lat {
				spans.Record(d)
			}
			want := ref.Report.Latency["kv.all"]
			for _, q := range []float64{0.5, 0.99} {
				if got, w := spans.Percentile(q), want.Percentile(q); got != w {
					t.Errorf("virtual p%v: benchmark spans %v, kv.Run %v", q*100, got, w)
				}
			}
			if tc.cfg.Faults != nil && len(ours.rep.Crashes) != 1 {
				t.Errorf("crash plan executed %d crashes, want 1", len(ours.rep.Crashes))
			}
		})
	}
}

// TestRelabelKeepsOptimum: relabelling cities changes the search, not
// the answer.
func TestRelabelKeepsOptimum(t *testing.T) {
	base := tsp.Generate(10, tspInstanceSeed)
	want, _ := tsp.SolveSeq(base)
	for seed := int64(1); seed <= 5; seed++ {
		if got, _ := tsp.SolveSeq(relabel(base, seed)); got != want {
			t.Errorf("seed %d: optimum %d, want %d", seed, got, want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   *bool                 `json:"correct"`
	Attempted *int64                `json:"attempted"`
	Failed    *int64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// TestOutputMatchesBenchmarkFile runs the shortest workload in both
// modes and checks the result line carries exactly the metrics
// BENCHMARK.json declares, with their units, and that every repeat
// passed the output and determinism checks.
func TestOutputMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "kv-crash", "--seed", "3", "--seconds", "0.01",
			"--trace", mode.trace, "--trace-dir", t.TempDir()}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s\n%s", mode.trace, code, stdout.String(), stderr.String())
		}
		var res result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line: %v", mode.trace, err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 ||
			res.Failed == nil || *res.Failed != 0 {
			t.Errorf("trace %s: result %s", mode.trace, lines[len(lines)-1])
		}
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range mode.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("trace %s: metrics\n got %v\nwant %v", mode.trace, got, want)
		}
	}
}

// TestDeterminismGuardCatchesDrift: a fingerprint must change when any
// virtual figure does.
func TestDeterminismGuardCatchesDrift(t *testing.T) {
	o := smallKVOutcome(t)
	fp := func() string {
		return fingerprint(repeat{virt: e2eVirtual(o), layers: layerCounters(o, 0)})
	}
	a := fp()
	o.runs[0].rep.Net.Frames++
	if a == fp() {
		t.Error("fingerprint ignores netsim frame count")
	}
}

func smallKVOutcome(t *testing.T) outcome {
	t.Helper()
	var o outcome
	o.addKV(serveKV(kvSpec{
		cfg:     orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1},
		policy:  kv.PolicyReplicated,
		traffic: kvTraffic(1, 1000, 50*sim.Millisecond),
	}, new(clock), new(tracer)))
	return o
}

// spin burns CPU in this package so the profile has bench frames.
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileFoldsByLayer decodes a real CPU profile and folds it.
func TestProfileFoldsByLayer(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	self := map[string]int64{}
	foldSelf(samples, self)
	var total int64
	for _, ns := range self {
		total += ns
	}
	if total == 0 || self["bench"] < total/2 {
		t.Errorf("self time by layer %v: want most of it in bench", self)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.gopark":                                  "goruntime",
		"internal/runtime/atomic.(*Uint32).Load":          "goruntime",
		"repro/internal/sim.(*Env).Run":                   "sim",
		"repro/internal/rts/scheck.Check":                 "rts",
		"repro/internal/orca/std.Counter.Value":           "orca",
		"repro/internal/orca.DefRead1x2[...].func1":       "orca",
		"repro/internal/apps/kv.Shard.Get":                "apps",
		"repro/internal/workload.(*Gen).Next":             "workload",
		"repro/perfbench.serveKV.func1.2":                 "bench",
		"main.runShardStream.func2":                       "bench",
		"sort.Slice":                                      "",
		"encoding/gob.(*Encoder).Encode":                  "",
		"repro/internal/group.(*Member).BroadcastBatch.1": "group",
	} {
		got, ok := layerOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}
