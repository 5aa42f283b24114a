package group

// The submission path: every broadcast leaves a member through the
// packers below, and Config.Batch decides how many ops share a frame.
//
// With batching off (Batch.MaxOps 1, the zero BatchConfig) every
// packer flushes at enqueue, so each op leaves at once in the frame of
// the paper's protocols (§3.1), with no timer and no extra event: a
// sequencer's own op as one sequenced grp-data frame, a PB op as one
// grp-req frame that the sequencer answers with one grp-data frame,
// and a BB op as one grp-bb-data frame that the sequencer answers with
// one short grp-accept frame.
//
// With batching on (MaxOps > 1) the same packers amortize the ordering
// protocol over many operations per frame:
//
//   - The sequencer's frame packer queues incoming requests (and its
//     own submissions) and flushes them into ONE sequenced multi-op
//     frame: each op keeps its own sequence number, the batch
//     occupies consecutive numbers, and the frame is broadcast once.
//     Flush triggers: MaxOps ops queued, MaxBytes of payload queued,
//     or Linger elapsed since the first queued op.
//   - A sender packs ops submitted in the same virtual instant into
//     one request frame (the cross-instant combining lives above, in
//     the RTS write buffer).
//   - The BB variant packs accepts: senders broadcast (possibly
//     packed) data frames as usual, and the sequencer assigns a batch
//     of consecutive sequence numbers in one short accept frame.
//
// Retransmission stays per-op: the history ring records each op of a
// batch under its own sequence number, so a member that lost a batch
// frame recovers exactly the ops it is missing through the ordinary
// gap machinery, and a sender re-sends only its still-unacknowledged
// ops. Batch framing is deliberately NOT load-bearing for correctness
// — it only changes how many ops share a frame. The More flag each op
// carries (assigned at sequencing time, stable across retransmission)
// tells consumers where frames end, which the RTS uses to run one
// guard-retry sweep per frame.

import (
	"repro/internal/amoeba"
	"repro/internal/sim"
)

// op is one submitted operation: the record request frames, BB data
// frames and every packer carry until the sequencer turns it into a
// sequenced *dataMsg.
type op struct {
	UID    int64
	Src    int
	SrcSeq int64
	Kind   string
	Body   any
	Size   int
}

// opsMsg is a packed frame of one member's ops.
type opsMsg struct {
	Items []op
	Size  int
}

// Wire bodies that carry ops (all on the group's port). The named
// types share op's and opsMsg's fields; they exist so handle can tell
// the frames apart.
type (
	// reqMsg is PB's RequestForBroadcast, unicast to the sequencer (by
	// value).
	reqMsg op
	// bbDataMsg is BB's unsequenced data broadcast from the sender.
	// Every receiver shares the sender's record, which nobody mutates.
	bbDataMsg op
	// reqBatchMsg packs several PB requests from one member.
	reqBatchMsg opsMsg
	// bbBatchMsg packs several BB data ops from one member.
	bbBatchMsg opsMsg
	// dataBatchMsg is the sequencer's packed sequenced frame: the
	// records sequenceBatch built, consecutive in sequence order.
	// Every receiver shares them, as with a lone *dataMsg.
	dataBatchMsg struct {
		Items []*dataMsg
		Size  int
	}
	// acceptBatchMsg assigns consecutive sequence numbers to several
	// BB ops in one short frame: UIDs[i] gets Seq+i.
	acceptBatchMsg struct {
		Seq   int64
		UIDs  []int64
		Epoch int
	}
)

// packedSize is the payload of a packed frame carrying ops.
func packedSize(ops []op) int {
	size := 0
	for i := range ops {
		size += ops[i].Size + hdrItem
	}
	return size
}

// ---------------------------------------------------------------------
// Sequencer-side packer (PB data frames).

// enqueuePack queues one op for the next sequenced frame, flushing on
// MaxOps/MaxBytes and arming the Linger deadline otherwise. The op is
// pre-marked in the dedup window (seq -1 = "queued, not yet
// sequenced") so a retransmitted copy arriving before the flush cannot
// be sequenced twice.
func (g *Member) enqueuePack(p *sim.Proc, o op) {
	g.noteSeen(o.Src, o.SrcSeq, -1)
	g.packQ = append(g.packQ, o)
	g.packBytes += o.Size + hdrItem
	b := g.cfg.Batch
	if len(g.packQ) >= b.MaxOps || (b.MaxBytes > 0 && g.packBytes >= b.MaxBytes) {
		g.flushPack(p)
		return
	}
	if g.packTimer == nil {
		g.packTimer = g.m.After(b.Linger, func(tp *sim.Proc) {
			g.packTimer = nil
			g.flushPack(tp)
		})
	}
}

// detachPack cancels a packer's timer and empties its queue, returning
// the queued ops. The returned slice shares the queue's buffer, which
// the next enqueue reuses, so the caller reads it in full before its
// first send. When this member no longer sequences (it lost an
// election with ops still queued), its own ops re-enter the sender
// path — other members' requests are re-sent by their own
// retransmission timers — and nil is returned.
func (g *Member) detachPack(p *sim.Proc, q *[]op, timer **sim.Event) []op {
	if *timer != nil {
		(*timer).Cancel()
		*timer = nil
	}
	items := *q
	if len(items) == 0 {
		return nil
	}
	if !g.isSeq || !g.installed {
		*q = nil
		for _, o := range items {
			if o.Src == g.m.ID() {
				g.enqueueSend(p, o)
			}
		}
		return nil
	}
	*q = items[:0]
	return items
}

// sequence assigns o the next sequence number and records it in the
// history ring.
func (g *Member) sequence(o op, more bool) *dataMsg {
	d := &dataMsg{Seq: g.nextSeqNum(), op: o, Epoch: g.epoch, More: more}
	g.recordHistory(d)
	return d
}

// sequenceBatch sequences items at consecutive numbers; every op but
// the last carries the More (mid-frame) flag.
func (g *Member) sequenceBatch(items []op) []*dataMsg {
	ds := make([]*dataMsg, len(items))
	for i := range items {
		ds[i] = g.sequence(items[i], i < len(items)-1)
	}
	return ds
}

// flushPack sequences and broadcasts the queued ops as one frame. The
// frame counts as a PB send only when it carries an op this member
// submitted (see Stats.PBSends).
func (g *Member) flushPack(p *sim.Proc) {
	items := g.detachPack(p, &g.packQ, &g.packTimer)
	g.packBytes = 0
	if items == nil {
		return
	}
	for i := range items {
		if items[i].Src == g.m.ID() {
			g.stats.PBSends++
			break
		}
	}
	g.castOps(p, items)
}

// castOps sequences items at consecutive numbers and sends them in one
// frame: a grp-data frame for a lone op, a packed grp-bdata frame
// otherwise, or one multi-slot proposal under consensus. The sequencer
// delivers them itself at once (under consensus, once a quorum
// accepts). items may share a packer's buffer: it is read in full
// before the first send.
func (g *Member) castOps(p *sim.Proc, items []op) {
	if len(items) > 1 {
		g.stats.Batches++
		g.stats.BatchedOps += int64(len(items))
	}
	if g.cfg.Protocol == Consensus {
		// The packed frame becomes one multi-slot proposal: the whole
		// batch is accepted atomically per member, which is what keeps
		// More boundaries stable across a re-proposal.
		g.propose(p, g.sequenceBatch(items))
		return
	}
	if len(items) == 1 {
		d := g.sequence(items[0], false)
		g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-data", Body: d, Size: d.Size + hdrData})
		g.processData(p, d)
		return
	}
	size := packedSize(items)
	ds := g.sequenceBatch(items)
	g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-bdata",
		Body: &dataBatchMsg{Items: ds, Size: size}, Size: size + hdrData})
	for _, d := range ds {
		g.processData(p, d)
	}
}

// ---------------------------------------------------------------------
// Sequencer-side packer, BB variant (accepts).

// enqueueAccept queues a BB op (whose data the members already hold)
// for the next accept frame.
func (g *Member) enqueueAccept(p *sim.Proc, o op) {
	g.noteSeen(o.Src, o.SrcSeq, -1)
	g.accQ = append(g.accQ, o)
	if len(g.accQ) >= g.cfg.Batch.MaxOps {
		g.flushAccepts(p)
		return
	}
	if g.accTimer == nil {
		g.accTimer = g.m.After(g.cfg.Batch.Linger, func(tp *sim.Proc) {
			g.accTimer = nil
			g.flushAccepts(tp)
		})
	}
}

// flushAccepts sequences the queued BB ops and broadcasts one short
// accept frame assigning their consecutive sequence numbers (the
// members already hold the data).
func (g *Member) flushAccepts(p *sim.Proc) {
	items := g.detachPack(p, &g.accQ, &g.accTimer)
	if items == nil {
		return
	}
	if len(items) == 1 {
		d := g.sequence(items[0], false)
		g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-accept",
			Body: acceptMsg{Seq: d.Seq, UID: d.UID, Epoch: g.epoch}, Size: hdrAccept})
		g.processData(p, d)
		return
	}
	ds := g.sequenceBatch(items)
	uids := make([]int64, len(ds))
	for i, d := range ds {
		uids[i] = d.UID
	}
	g.stats.Batches++
	g.stats.BatchedOps += int64(len(ds))
	g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-baccept",
		Body: &acceptBatchMsg{Seq: ds[0].Seq, UIDs: uids, Epoch: g.epoch}, Size: hdrAccept + 8*len(uids)})
	for _, d := range ds {
		g.processData(p, d)
	}
}

// ---------------------------------------------------------------------
// Sender-side packer.

// enqueueSend queues one op for the next request frame and arms a
// same-instant flush: every op submitted in the current virtual
// instant leaves in one frame (cross-instant combining is the RTS
// write buffer's job). MaxOps/MaxBytes flush early so one frame never
// carries more than a configured batch.
func (g *Member) enqueueSend(p *sim.Proc, o op) {
	g.sendQ = append(g.sendQ, o)
	g.sendBytes += o.Size + hdrItem
	b := g.cfg.Batch
	if len(g.sendQ) >= b.MaxOps || (b.MaxBytes > 0 && g.sendBytes >= b.MaxBytes) {
		g.flushSend(p)
		return
	}
	if !g.sendArmed {
		g.sendArmed = true
		g.m.After(0, func(tp *sim.Proc) {
			g.sendArmed = false
			g.flushSend(tp)
		})
	}
}

// flushSend transmits the queued ops as one outstanding send.
func (g *Member) flushSend(p *sim.Proc) {
	items := g.sendQ
	if len(items) == 0 {
		return
	}
	g.sendBytes = 0
	if g.isSeq && g.installed {
		// Became the sequencer while ops were queued: sequence them
		// directly.
		g.sendQ = nil
		for _, o := range items {
			g.enqueuePack(p, o)
		}
		return
	}
	if len(items) == 1 {
		// The lone op is copied into its send state, so the queue keeps
		// its buffer.
		g.sendQ = items[:0]
		g.startSend(p, loneSend(items[0], g.resolveMethod(items[0].Size)))
		return
	}
	g.sendQ = nil
	g.stats.Batches++
	g.stats.BatchedOps += int64(len(items))
	g.startSend(p, &sendState{items: items, method: g.resolveMethod(packedSize(items))})
}

// startSend registers st's ops as outstanding, transmits them, and
// arms the retransmission timer.
func (g *Member) startSend(p *sim.Proc, st *sendState) {
	for i := range st.items {
		g.outstanding[st.items[i].UID] = st
	}
	g.transmit(p, st)
	g.armSenderTimer(st)
}

// transmit performs one send attempt for an outstanding send. A lone
// op travels in the paper's grp-req or grp-bb-data frame. A packed
// send carries only its still-outstanding ops, so a retransmission
// after a partial acknowledgment shrinks the frame.
func (g *Member) transmit(p *sim.Proc, st *sendState) {
	live := st.items
	if st.packed() {
		live = make([]op, 0, len(st.items))
		for i := range st.items {
			if g.outstanding[st.items[i].UID] == st {
				live = append(live, st.items[i])
			}
		}
		if len(live) == 0 {
			return
		}
	}
	switch st.method {
	case ForcePB:
		g.stats.PBSends++
		if st.packed() {
			size := packedSize(live)
			g.m.Send(p, g.seqNode, amoeba.Packet{Port: g.port, Kind: "grp-breq",
				Body: &reqBatchMsg{Items: live, Size: size}, Size: size + hdrData})
		} else {
			g.m.Send(p, g.seqNode, amoeba.Packet{Port: g.port, Kind: "grp-req",
				Body: reqMsg(live[0]), Size: live[0].Size + hdrData})
		}
	case ForceBB:
		g.stats.BBSends++
		// The sender keeps the records it broadcasts; it will not hear
		// its own frame, and nobody mutates them.
		for i := range live {
			g.pendingBB[live[i].UID] = &live[i]
		}
		if st.packed() {
			size := packedSize(live)
			g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-bb-bdata",
				Body: &bbBatchMsg{Items: live, Size: size}, Size: size + hdrData})
		} else {
			g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-bb-data",
				Body: (*bbDataMsg)(&live[0]), Size: live[0].Size + hdrData})
		}
	}
}
