package group

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// batchCfg turns batching on with the given parameters.
func batchCfg(maxOps, maxBytes int, linger sim.Time) func(*Config) {
	return func(c *Config) {
		c.Batch = BatchConfig{MaxOps: maxOps, MaxBytes: maxBytes, Linger: linger}
	}
}

// burst submits n same-instant ops of the given size from node i.
func burst(h *harness, i, n, size int) {
	h.ms[i].SpawnThread("burst", func(p *sim.Proc) {
		for k := 0; k < n; k++ {
			h.gs[i].Broadcast(p, "msg", fmt.Sprintf("n%d-%d", i, k), size)
		}
	})
}

// TestBatchFlushMaxOps: a same-instant burst splits into MaxOps-sized
// frames — both on the sender (request frames) and at the sequencer
// (sequenced data frames) — and delivers exactly once, in order,
// everywhere.
func TestBatchFlushMaxOps(t *testing.T) {
	h := newHarness(7, 3, nil, batchCfg(4, 1<<20, sim.Millisecond))
	burst(h, 1, 8, 100)
	h.env.RunUntil(2 * sim.Second)
	h.checkAgreement(t, 8, nil)
	st := h.net.Stats()
	if got := st.CountsByKind["grp-breq"]; got != 2 {
		t.Errorf("packed request frames = %d, want 2 (8 ops / MaxOps 4)", got)
	}
	if got := st.CountsByKind["grp-bdata"]; got != 2 {
		t.Errorf("packed data frames = %d, want 2 (8 ops / MaxOps 4)", got)
	}
	if got := st.CountsByKind["grp-req"] + st.CountsByKind["grp-data"]; got != 0 {
		t.Errorf("unbatched frames = %d, want 0", got)
	}
	// Delivery order inside the batch is submission order.
	for k := 0; k < 8; k++ {
		if want := fmt.Sprintf("n1-%d", k); h.logs[0][k].Body.(string) != want {
			t.Fatalf("delivery %d = %v, want %s", k, h.logs[0][k].Body, want)
		}
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestBatchSharesSequencedRecords: a packed data frame carries the
// sequencer's own records, so every member's delivered cache holds the
// same pointer for a sequence number instead of a per-member copy.
func TestBatchSharesSequencedRecords(t *testing.T) {
	h := newHarness(7, 3, nil, batchCfg(4, 1<<20, sim.Millisecond))
	burst(h, 1, 8, 100)
	h.env.RunUntil(2 * sim.Second)
	h.checkAgreement(t, 8, nil)
	if got := h.net.Stats().CountsByKind["grp-bdata"]; got != 2 {
		t.Fatalf("packed data frames = %d, want 2", got)
	}
	shared := 0
	for slot, d := range h.gs[0].cache {
		if d == nil {
			continue
		}
		for i, g := range h.gs[1:] {
			if g.cache[slot] != d {
				t.Fatalf("seq %d: member %d caches %p, member 0 caches %p", d.Seq, i+1, g.cache[slot], d)
			}
		}
		shared++
	}
	if shared != 8 {
		t.Fatalf("cached records = %d, want 8", shared)
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestBatchFlushMaxBytes: the byte cap flushes before the op cap.
func TestBatchFlushMaxBytes(t *testing.T) {
	h := newHarness(7, 3, nil, batchCfg(64, 300, sim.Millisecond))
	// 100-byte payloads (+12 framing) cross the 300-byte cap every
	// third op: 9 ops -> 3 request frames.
	burst(h, 1, 9, 100)
	h.env.RunUntil(2 * sim.Second)
	h.checkAgreement(t, 9, nil)
	st := h.net.Stats()
	if got := st.CountsByKind["grp-breq"]; got != 3 {
		t.Errorf("packed request frames = %d, want 3 (byte cap)", got)
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestBatchLinger: ops submitted in different instants (so sender-side
// same-instant packing cannot merge them) still share one sequenced
// frame when they reach the sequencer within the linger window, and a
// lone op is not delayed beyond the linger.
func TestBatchLinger(t *testing.T) {
	h := newHarness(7, 3, nil, batchCfg(16, 1<<20, 2*sim.Millisecond))
	var deliveredAt sim.Time
	h.ms[0].SpawnThread("watch", func(p *sim.Proc) {
		for len(h.logs[0]) < 2 {
			p.Sleep(100 * sim.Microsecond)
		}
		deliveredAt = p.Now()
	})
	h.ms[1].SpawnThread("trickle", func(p *sim.Proc) {
		h.gs[1].Broadcast(p, "msg", "a", 50)
		p.Sleep(300 * sim.Microsecond)
		h.gs[1].Broadcast(p, "msg", "b", 50)
	})
	h.env.RunUntil(time500())
	h.checkAgreement(t, 2, nil)
	st := h.net.Stats()
	if got := st.CountsByKind["grp-bdata"]; got != 1 {
		t.Errorf("packed data frames = %d, want 1 (both ops inside one linger window)", got)
	}
	if deliveredAt == 0 || deliveredAt > 10*sim.Millisecond {
		t.Errorf("delivery at %v, want within a few linger windows", deliveredAt)
	}
	h.env.Stop()
	h.env.Shutdown()
}

func time500() sim.Time { return 500 * sim.Millisecond }

// TestBatchTotalOrderUnderLoss: batched streams under 15% fragment
// loss still deliver exactly once, in one agreed order, under both
// methods. This exercises retransmission of lost batch frames: the
// gap machinery recovers mid-batch ops individually from the history
// ring, and senders re-send only still-unacknowledged items.
func TestBatchTotalOrderUnderLoss(t *testing.T) {
	for _, method := range []Method{ForcePB, ForceBB} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			h := newHarness(23, 4, func(p *netsim.Params) { p.DropProb = 0.15 },
				func(c *Config) {
					c.Method = method
					c.SenderTimeout = 60 * sim.Millisecond
					c.GapTimeout = 30 * sim.Millisecond
					c.Heartbeat = 100 * sim.Millisecond
					batchCfg(4, 1<<20, sim.Millisecond)(c)
				})
			const bursts, per = 5, 4
			for i := range h.ms {
				i := i
				h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
					for k := 0; k < bursts; k++ {
						for j := 0; j < per; j++ {
							h.gs[i].Broadcast(p, "msg", fmt.Sprintf("n%d-%d-%d", i, k, j), 150)
						}
						p.Sleep(sim.Time(3+i) * sim.Millisecond)
					}
				})
			}
			h.env.RunUntil(120 * sim.Second)
			h.checkAgreement(t, 4*bursts*per, nil)
			h.checkFrameAgreement(t, nil)
			seen := map[int64]bool{}
			for _, uid := range h.uidLogs[0] {
				if seen[uid] {
					t.Fatalf("uid %d delivered twice", uid)
				}
				seen[uid] = true
			}
			h.env.Stop()
			h.env.Shutdown()
		})
	}
}

// TestBatchSequencerCrash: the sequencer dies with batches in its
// packer and in flight; the survivors elect a new sequencer, senders
// re-submit their unacknowledged items, and every survivor delivers
// the same duplicate-free stream.
func TestBatchSequencerCrash(t *testing.T) {
	h := newHarness(31, 4, nil, func(c *Config) {
		c.SenderTimeout = 50 * sim.Millisecond
		c.SenderRetries = 2
		c.ElectionWait = 80 * sim.Millisecond
		c.Heartbeat = 100 * sim.Millisecond
		batchCfg(4, 1<<20, sim.Millisecond)(c)
	})
	for i := 1; i < 4; i++ {
		i := i
		h.ms[i].SpawnThread("producer", func(p *sim.Proc) {
			send := func(tag string, k int) {
				for j := 0; j < 3; j++ {
					h.gs[i].Broadcast(p, "msg", fmt.Sprintf("n%d-%s%d-%d", i, tag, k, j), 100)
				}
			}
			for k := 0; k < 4; k++ {
				send("pre", k)
				p.Sleep(2 * sim.Millisecond)
			}
			if i == 1 {
				// Crash the sequencer right after a burst: some items
				// sit in its packer, some are sequenced but not yet
				// everywhere.
				h.ms[0].Crash()
			}
			for k := 0; k < 4; k++ {
				send("post", k)
				p.Sleep(2 * sim.Millisecond)
			}
		})
	}
	h.env.RunUntil(30 * sim.Second)
	skip := map[int]bool{0: true}
	h.checkAgreement(t, 3*8*3, skip)
	h.checkFrameAgreement(t, skip)
	seen := map[int64]bool{}
	for _, uid := range h.uidLogs[1] {
		if seen[uid] {
			t.Fatalf("uid %d delivered twice after re-sequencing", uid)
		}
		seen[uid] = true
	}
	if h.gs[1].Sequencer() == 0 {
		t.Fatal("sequencer still node 0 after crash")
	}
	h.env.Stop()
	h.env.Shutdown()
}

// TestBatchOffUnchangedWire: with the zero BatchConfig every op
// travels alone in the paper's frames. Each case submits two
// same-instant ops and pins the exact frame count per kind and every
// member's PBSends/BBSends: a sequencer's own op is one grp-data
// frame, a relayed PB op a grp-req and a grp-data frame, a BB op a
// grp-bb-data and a grp-accept frame, and a consensus leader's own op
// one proposal with its acks and commit. PBSends counts each PB op
// once, at its originator.
func TestBatchOffUnchangedWire(t *testing.T) {
	kinds := []string{"grp-req", "grp-data", "grp-bb-data", "grp-accept", "grp-prop", "grp-pacc", "grp-pcmt",
		"grp-breq", "grp-bdata", "grp-bb-bdata", "grp-baccept", "grp-retx", "grp-retx-req"}
	cases := []struct {
		name      string
		consensus bool
		node      int // the submitting member; node 0 sequences
		size      int
		frames    map[string]int64 // exact count of each kind above; absent means 0
		pb, bb    [3]int64
	}{
		{"sequencer-own-op", false, 0, 100,
			map[string]int64{"grp-data": 2}, [3]int64{2, 0, 0}, [3]int64{}},
		{"relayed-pb-op", false, 1, 100,
			map[string]int64{"grp-req": 2, "grp-data": 2}, [3]int64{0, 2, 0}, [3]int64{}},
		{"bb-op", false, 1, 2000,
			map[string]int64{"grp-bb-data": 2, "grp-accept": 2}, [3]int64{}, [3]int64{0, 2, 0}},
		{"consensus-leader-own-op", true, 0, 100,
			map[string]int64{"grp-prop": 2, "grp-pacc": 4, "grp-pcmt": 2}, [3]int64{2, 0, 0}, [3]int64{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(11, 3, nil, func(c *Config) {
				if tc.consensus {
					c.Protocol = Consensus
				}
			})
			h.ms[tc.node].SpawnThread("producer", func(p *sim.Proc) {
				for j := 0; j < 2; j++ {
					h.gs[tc.node].Broadcast(p, "msg", j, tc.size)
				}
			})
			h.env.RunUntil(2 * sim.Second)
			h.checkAgreement(t, 2, nil)
			st := h.net.Stats()
			for _, kind := range kinds {
				if got := st.CountsByKind[kind]; got != tc.frames[kind] {
					t.Errorf("%s frames = %d, want %d", kind, got, tc.frames[kind])
				}
			}
			for i, g := range h.gs {
				gs := g.Stats()
				if gs.PBSends != tc.pb[i] || gs.BBSends != tc.bb[i] {
					t.Errorf("node %d: PBSends=%d BBSends=%d, want %d and %d", i, gs.PBSends, gs.BBSends, tc.pb[i], tc.bb[i])
				}
			}
			h.env.Stop()
			h.env.Shutdown()
		})
	}
}

// TestBatchedPBSendsCountOriginator: under batching, a sequencer frame
// that carries only other members' ops adds no PBSends at the
// sequencer. Each op counts once, at the member whose request frame
// carried it.
func TestBatchedPBSendsCountOriginator(t *testing.T) {
	h := newHarness(13, 3, nil, batchCfg(4, 1<<20, sim.Millisecond))
	burst(h, 1, 4, 100)
	h.env.RunUntil(2 * sim.Second)
	h.checkAgreement(t, 4, nil)
	st := h.net.Stats()
	if got := st.CountsByKind["grp-breq"]; got != 1 {
		t.Errorf("packed request frames = %d, want 1", got)
	}
	if got := st.CountsByKind["grp-bdata"]; got != 1 {
		t.Errorf("packed data frames = %d, want 1", got)
	}
	for i, want := range []int64{0, 1, 0} {
		if got := h.gs[i].Stats().PBSends; got != want {
			t.Errorf("node %d: PBSends = %d, want %d", i, got, want)
		}
	}
	h.env.Stop()
	h.env.Shutdown()
}
