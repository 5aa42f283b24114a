package group

import (
	"repro/internal/amoeba"
	"repro/internal/sim"
)

// handle is the kernel port handler: it demultiplexes every group
// protocol packet. It runs on the machine's interrupt thread, after
// interrupt/protocol CPU costs have been charged.
func (g *Member) handle(p *sim.Proc, from int, pkt amoeba.Packet) {
	switch b := pkt.Body.(type) {
	case reqMsg:
		g.onRequest(p, op(b))
	case *reqBatchMsg:
		for _, o := range b.Items {
			g.onRequest(p, o)
		}
	case *dataMsg:
		// Sequenced data travels by pointer: every receiver (and the
		// sequencer's own history) shares one record, which is never
		// mutated after sequencing.
		g.processData(p, b)
	case dataMsg:
		// Retransmissions are restamped copies and travel by value.
		g.processData(p, &b)
	case *dataBatchMsg:
		for _, d := range b.Items {
			g.processData(p, d)
		}
	case *bbDataMsg:
		g.onBBData(p, (*op)(b))
	case *bbBatchMsg:
		for i := range b.Items {
			g.onBBData(p, &b.Items[i])
		}
	case acceptMsg:
		g.onAccept(p, b)
	case *acceptBatchMsg:
		// Each (Seq+i, UIDs[i]) pair runs the single-accept logic.
		for i, uid := range b.UIDs {
			g.onAccept(p, acceptMsg{Seq: b.Seq + int64(i), UID: uid, Epoch: b.Epoch, More: i < len(b.UIDs)-1})
		}
	case retxReq:
		g.onRetxReq(p, b)
	case statusMsg:
		g.onStatus(b)
	case electMsg:
		g.onElect(p, b)
	case coordMsg:
		g.onCoord(p, b)
	case coordAck:
		g.onCoordAck(p, b)
	case coordNack:
		g.onCoordNack(p, b)
	case hbMsg:
		g.onHeartbeat(b)
	case *propMsg:
		g.onPropose(p, from, b)
	case paccMsg:
		g.onPAcc(p, b)
	case pcmtMsg:
		g.onPcmt(p, from, b)
	case pnackMsg:
		g.onPNack(p, b)
	case prepMsg:
		g.onPrep(p, from, b)
	case *promMsg:
		g.onProm(p, b)
	case joinReadMsg:
		g.onJoinRead(p, from, b)
	case joinInfoMsg:
		g.onJoinInfo(b)
	}
}

// onHeartbeat learns the sequencer's progress; if this member is
// behind, gap recovery kicks in.
func (g *Member) onHeartbeat(h hbMsg) {
	if h.Epoch < g.epoch || g.electing {
		return
	}
	g.seqNode = h.Node
	if h.HighSeq > g.maxSeen {
		g.maxSeen = h.HighSeq
	}
	if g.cfg.Protocol == Consensus {
		g.leaderSeen = g.m.Env().Now()
		if h.HighSeq > g.committed {
			// The heartbeat announces the leader's commit watermark:
			// everything up to it is chosen and safe to fetch.
			g.committed = h.HighSeq
		}
	}
	if g.nextSeq <= g.maxSeen {
		g.armGapTimer()
	}
}

// onRequest handles one op of PB's RequestForBroadcast at the
// sequencer: it dedups and joins the pack buffer.
func (g *Member) onRequest(p *sim.Proc, o op) {
	if !g.isSeq || !g.installed {
		return // stale or uninstalled view; the sender will retry
	}
	if seq, dup := g.seenSeq(o.Src, o.SrcSeq); dup {
		// Retransmitted request: rebroadcast the sequenced message so
		// the sender (and anyone else who missed it) sees it. Under
		// consensus only chosen slots may travel as direct data — an
		// uncommitted slot is covered by the re-propose timer.
		if d := g.history.get(seq); d != nil && (g.cfg.Protocol != Consensus || seq <= g.committed) {
			g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-data", Body: d, Size: d.Size + hdrData})
		}
		return
	}
	g.enqueuePack(p, o)
}

// onBBData handles one op of BB's data broadcast at every member.
func (g *Member) onBBData(p *sim.Proc, b *op) {
	if g.isSeq && g.installed {
		if seq, dup := g.seenSeq(b.Src, b.SrcSeq); dup {
			// Retransmission: the accept may have been lost. Recover
			// the frame-boundary flag from the sequenced record so the
			// receiver reconstructs the boundary every replica saw.
			more := false
			if d := g.history.get(seq); d != nil {
				more = d.More
			}
			g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-accept",
				Body: acceptMsg{Seq: seq, UID: b.UID, Epoch: g.epoch, More: more}, Size: hdrAccept})
			return
		}
		g.enqueueAccept(p, *b)
		return
	}
	if g.isSeq {
		// Not installed yet: stash the data; the sender will retry.
		g.pendingBB[b.UID] = b
		return
	}
	if acc, accepted := g.acceptedUID(b.UID); accepted {
		// Accept arrived before the data: complete it now.
		g.processData(p, &dataMsg{Seq: acc.seq, op: *b, Epoch: g.epoch, More: acc.more})
		return
	}
	g.pendingBB[b.UID] = b
}

// acceptedRec is an accept matched back to its data by uid.
type acceptedRec struct {
	seq  int64
	more bool
}

// acceptedUID reports whether an accept for uid is waiting for data.
func (g *Member) acceptedUID(uid int64) (acceptedRec, bool) {
	for seq, a := range g.acceptedBB {
		if a.uid == uid {
			delete(g.acceptedBB, seq)
			return acceptedRec{seq: seq, more: a.more}, true
		}
	}
	return acceptedRec{}, false
}

// onAccept handles BB's Accept at a non-sequencer member.
func (g *Member) onAccept(p *sim.Proc, a acceptMsg) {
	if a.Epoch < g.epoch {
		return // stale sequencer's stream
	}
	if a.Epoch > g.epoch {
		g.epoch = a.Epoch // adopt the newer view's stream
		g.electing = false
	}
	if a.Seq < g.nextSeq {
		delete(g.pendingBB, a.UID) // late duplicate; GC the stashed data
		return
	}
	if bb, ok := g.pendingBB[a.UID]; ok {
		delete(g.pendingBB, a.UID)
		g.processData(p, &dataMsg{Seq: a.Seq, op: *bb, Epoch: g.epoch, More: a.More})
		return
	}
	// Data frame lost: remember the accept and fetch the payload from
	// the sequencer's history via the gap machinery.
	g.acceptedBB[a.Seq] = bbAccept{uid: a.UID, more: a.More}
	if a.Seq > g.maxSeen {
		g.maxSeen = a.Seq
	}
	g.armGapTimer()
}

// onRetxReq serves retransmissions out of the sequencer history.
func (g *Member) onRetxReq(p *sim.Proc, r retxReq) {
	g.noteStatus(r.Node, r.Delivered)
	if !g.isSeq {
		if g.cfg.Protocol == Consensus {
			// Chosen slots are quorum-backed and immutable, so any
			// member that delivered them can serve them from its cache:
			// after a leader death the committed log must not depend on
			// one machine being up and installed.
			to := r.To
			if to > g.committed {
				to = g.committed
			}
			if len(g.cache) == 0 {
				return
			}
			for s := r.From; s <= to; s++ {
				if c := g.cache[int(s)%len(g.cache)]; c != nil && c.Seq == s {
					rd := *c
					rd.Epoch = g.epoch
					g.m.Send(p, r.Node, amoeba.Packet{Port: g.port, Kind: "grp-retx", Body: rd, Size: rd.Size + hdrData})
				}
			}
		}
		return
	}
	to := r.To
	if to > g.maxSeen {
		to = g.maxSeen
	}
	if g.cfg.Protocol == Consensus && to > g.committed {
		// Unchosen slots must never travel as direct data: a member
		// would deliver them without quorum backing.
		to = g.committed
	}
	for s := r.From; s <= to; s++ {
		if d := g.history.get(s); d != nil {
			// Restamp with the current epoch: history may hold
			// messages sequenced under a previous view that are still
			// part of the (unchanged) prefix this view vouches for.
			rd := *d
			rd.Epoch = g.epoch
			g.m.Send(p, r.Node, amoeba.Packet{Port: g.port, Kind: "grp-retx", Body: rd, Size: d.Size + hdrData})
		}
	}
}

// onStatus records a member's delivery progress.
func (g *Member) onStatus(s statusMsg) {
	g.noteStatus(s.Node, s.Delivered)
}

// processData runs the ordered-delivery core: acknowledge own sends,
// buffer out-of-order messages, deliver in strict sequence order, and
// arm gap recovery when holes remain.
func (g *Member) processData(p *sim.Proc, d *dataMsg) {
	if d.Epoch < g.epoch {
		return // stale sequencer's stream
	}
	if d.Epoch > g.epoch {
		g.epoch = d.Epoch // adopt the newer view's stream
		g.electing = false
	}
	if st, mine := g.outstanding[d.UID]; mine {
		delete(g.outstanding, d.UID)
		delete(g.pendingBB, d.UID)
		if st.timer != nil && !st.live(g) {
			st.timer.Cancel()
		}
	}
	if d.Seq > g.maxSeen {
		g.maxSeen = d.Seq
	}
	if d.Seq < g.nextSeq {
		return // duplicate
	}
	g.buffered.set(d.Seq, d)
	for {
		nd := g.buffered.get(g.nextSeq)
		if nd == nil {
			break
		}
		g.buffered.del(g.nextSeq)
		g.deliver(p, nd)
		g.nextSeq++
		g.buffered.advanceTo(g.nextSeq)
	}
	if g.nextSeq <= g.maxSeen {
		g.armGapTimer()
	} else if g.gapTimer != nil {
		g.gapTimer.Cancel()
		g.gapTimer = nil
	}
}

// deliver hands one sequenced message to the application stream and
// maintains the delivered cache, per-source dedup windows, and status
// reporting. Everything here is O(1) per delivery.
func (g *Member) deliver(p *sim.Proc, d *dataMsg) {
	g.seqAlive = p.Now()
	delete(g.acceptedBB, d.Seq)
	delete(g.pendingBB, d.UID)
	if len(g.cache) > 0 {
		g.cache[int(d.Seq)%len(g.cache)] = d
	}
	if g.recoveryStart != 0 {
		g.stats.RecoveryTime += p.Now() - g.recoveryStart
		g.recoveryStart = 0
	}
	if d.Src < 0 {
		// Consensus noop filler: it occupies its slot so the log stays
		// dense, but carries nothing for the application.
		return
	}
	if g.dupDelivery(d.Src, d.SrcSeq) {
		// Re-sequenced duplicate after an election. Under batching the
		// consumer still needs the frame boundary this sequence slot
		// occupies (a frame whose tail is a suppressed duplicate would
		// otherwise never close its per-frame sweep), so a Dup-marked
		// record travels in its place; the payload is never re-applied.
		if g.cfg.Batch.Enabled() {
			g.outQ.Put(Delivery{Seq: d.Seq, UID: d.UID, Src: d.Src, Kind: d.Kind, Size: d.Size, More: d.More, Dup: true})
		}
		return
	}
	g.noteDelivered(d.Src, d.SrcSeq, d.Seq)
	g.stats.Delivered++
	g.outQ.Put(Delivery{Seq: d.Seq, UID: d.UID, Src: d.Src, Kind: d.Kind, Body: d.Body, Size: d.Size, More: d.More})
	if !g.isSeq && g.cfg.StatusEvery > 0 && g.stats.Delivered%int64(g.cfg.StatusEvery) == 0 {
		g.m.Send(p, g.seqNode, amoeba.Packet{Port: g.port, Kind: "grp-status",
			Body: statusMsg{Node: g.m.ID(), Delivered: g.nextSeq}, Size: hdrSmall})
	}
}

// armGapTimer starts periodic retransmission requests while sequence
// holes exist. Repeated stalls without progress make the member
// suspect the sequencer and call an election.
func (g *Member) armGapTimer() {
	if g.gapTimer != nil {
		return
	}
	if g.cfg.Protocol == Consensus && g.isSeq {
		// The leader's assigned-but-unchosen slots are not gaps: they
		// deliver when a quorum accepts them (see armPropTimer).
		return
	}
	lastNext := g.nextSeq
	lastEpoch := g.epoch
	stalls := 0
	var arm func()
	arm = func() {
		g.gapTimer = g.m.After(g.cfg.GapTimeout, func(p *sim.Proc) {
			g.gapTimer = nil
			if g.nextSeq > g.maxSeen {
				return // caught up
			}
			if g.epoch != lastEpoch {
				// A new view installed since the last round: give its
				// sequencer a full suspicion window to start serving.
				// Stalls carried across the view change count the
				// election itself against the new sequencer and tear it
				// down before its first retransmission arrives.
				lastEpoch, stalls = g.epoch, 0
			}
			if g.nextSeq == lastNext {
				stalls++
			} else {
				lastNext, stalls = g.nextSeq, 0
			}
			if stalls > g.cfg.SenderRetries {
				g.suspectSequencer(p)
				stalls = 0
			}
			g.stats.GapRequests++
			to := g.nextSeq + 31
			if to > g.maxSeen {
				to = g.maxSeen
			}
			g.m.Send(p, g.seqNode, amoeba.Packet{Port: g.port, Kind: "grp-retx-req",
				Body: retxReq{From: g.nextSeq, To: to, Node: g.m.ID(), Delivered: g.nextSeq - 1},
				Size: hdrSmall})
			arm()
		})
	}
	arm()
}
