package group

// Frame packing (Config.Batch): amortizing the ordering protocol over
// many operations per network frame.
//
// The unbatched protocol pays one request frame and one sequenced
// data frame per broadcast, so the sequencer's frame rate is the
// throughput ceiling. With batching enabled:
//
//   - The sequencer runs a frame packer: incoming requests (and its
//     own submissions) queue in a pack buffer that flushes into ONE
//     sequenced multi-op frame — each op keeps its own sequence
//     number, the batch occupies consecutive numbers, and the frame
//     is broadcast once. Flush triggers: MaxOps ops queued, MaxBytes
//     of payload queued, or Linger elapsed since the first queued op.
//   - A sender packs ops submitted in the same virtual instant into
//     one request frame (the cross-instant combining lives above, in
//     the RTS write buffer, which hands whole batches down).
//   - The BB variant packs accepts: senders broadcast (possibly
//     batched) data frames as usual, and the sequencer assigns a
//     batch of consecutive sequence numbers in one short accept
//     frame.
//
// Retransmission stays per-op: the history ring records each op of a
// batch under its own sequence number, so a member that lost a batch
// frame recovers exactly the ops it is missing through the ordinary
// gap machinery, and a sender re-sends only its still-unacknowledged
// items. Batch framing is deliberately NOT load-bearing for
// correctness — it only changes how many ops share a frame. The More
// flag each op carries (assigned at sequencing time, stable across
// retransmission) tells consumers where frames end, which the RTS
// uses to run one guard-retry sweep per frame.

import (
	"repro/internal/amoeba"
	"repro/internal/sim"
)

// batchItem is one operation inside a packed frame.
type batchItem struct {
	UID    int64
	Src    int
	SrcSeq int64
	Kind   string
	Body   any
	Size   int
}

// Batched wire bodies (all on the "grp" port, by pointer).
type (
	// reqBatchMsg is sender-side packing of PB requests: several ops
	// from one member, unicast to the sequencer in one frame.
	reqBatchMsg struct {
		Items []batchItem
		Size  int
	}
	// dataBatchMsg is the sequencer's packed sequenced frame: the
	// records sequenceBatch built, consecutive in sequence order.
	// Every receiver shares them, as with a lone *dataMsg.
	dataBatchMsg struct {
		Items []*dataMsg
		Size  int
	}
	// bbBatchMsg is BB sender-side packing: unsequenced multi-op
	// data, broadcast by the sender.
	bbBatchMsg struct {
		Items []batchItem
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

// BatchOp is one application operation submitted through
// BroadcastBatch for sender-side packing.
type BatchOp struct {
	Kind string
	Body any
	Size int
}

// BroadcastBatch submits several ops in one call, appending their
// uids to dst and returning it. With batching enabled the ops leave
// this member packed into as few frames as the configuration allows;
// otherwise each op broadcasts individually, exactly like Broadcast.
// Op order is preserved within the batch.
func (g *Member) BroadcastBatch(p *sim.Proc, ops []BatchOp, dst []int64) []int64 {
	for _, op := range ops {
		dst = append(dst, g.Broadcast(p, op.Kind, op.Body, op.Size))
	}
	return dst
}

// submitOp is Broadcast with batching enabled: the op joins the
// sequencer's pack buffer directly (when this member sequences) or
// the sender-side pack buffer.
func (g *Member) submitOp(p *sim.Proc, kind string, body any, size int) int64 {
	uid := g.m.ServiceID()
	g.sendSeq++
	g.stats.Sent++
	it := batchItem{UID: uid, Src: g.m.ID(), SrcSeq: g.sendSeq, Kind: kind, Body: body, Size: size}
	if g.isSeq && g.installed {
		g.enqueuePack(p, it)
	} else {
		g.enqueueSend(p, it)
	}
	return uid
}

// ---------------------------------------------------------------------
// Sequencer-side packer (PB data frames).

// enqueuePack queues one op for the next packed sequenced frame,
// flushing on MaxOps/MaxBytes and arming the Linger deadline
// otherwise. The op is pre-marked in the dedup window (seq -1 =
// "queued, not yet sequenced") so a retransmitted copy arriving
// before the flush cannot be sequenced twice.
func (g *Member) enqueuePack(p *sim.Proc, it batchItem) {
	g.noteSeen(it.Src, it.SrcSeq, -1)
	g.packQ = append(g.packQ, it)
	g.packBytes += it.Size + hdrItem
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

// detachPack cancels a packer's timer and detaches its queue. When
// this member no longer sequences (it lost an election with ops still
// queued), its own items re-enter the sender path — other members'
// requests are re-sent by their own retransmission timers — and nil
// is returned.
func (g *Member) detachPack(p *sim.Proc, q *[]batchItem, timer **sim.Event) []batchItem {
	if *timer != nil {
		(*timer).Cancel()
		*timer = nil
	}
	items := *q
	if len(items) == 0 {
		return nil
	}
	*q = nil
	if !g.isSeq || !g.installed {
		for _, it := range items {
			if it.Src == g.m.ID() {
				g.enqueueSend(p, it)
			}
		}
		return nil
	}
	return items
}

// sequenceBatch assigns consecutive sequence numbers to items and
// records each op in the history ring; every op but the last carries
// the More (mid-frame) flag.
func (g *Member) sequenceBatch(items []batchItem) []*dataMsg {
	ds := make([]*dataMsg, len(items))
	for i, it := range items {
		d := &dataMsg{Seq: g.nextSeqNum(), UID: it.UID, Src: it.Src, SrcSeq: it.SrcSeq, Kind: it.Kind,
			Body: it.Body, Size: it.Size, Epoch: g.epoch, More: i < len(items)-1}
		g.recordHistory(d)
		ds[i] = d
	}
	return ds
}

// flushPack sequences and broadcasts the queued ops as one frame.
func (g *Member) flushPack(p *sim.Proc) {
	items := g.detachPack(p, &g.packQ, &g.packTimer)
	g.packBytes = 0
	if items == nil {
		return
	}
	ds := g.sequenceBatch(items)
	if g.cfg.Protocol == Consensus {
		// The packed frame becomes one multi-slot proposal: the whole
		// batch is accepted atomically per member, which is what keeps
		// More boundaries stable across a re-proposal.
		if len(items) > 1 {
			g.stats.Batches++
			g.stats.BatchedOps += int64(len(items))
		}
		g.propose(p, ds)
		return
	}
	g.stats.PBSends++
	if len(items) == 1 {
		g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-data", Body: ds[0], Size: ds[0].Size + hdrData})
	} else {
		size := 0
		for _, it := range items {
			size += it.Size + hdrItem
		}
		g.stats.Batches++
		g.stats.BatchedOps += int64(len(items))
		g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-bdata",
			Body: &dataBatchMsg{Items: ds, Size: size}, Size: size + hdrData})
	}
	for _, d := range ds {
		g.processData(p, d)
	}
}

// onDataBatch unpacks a sequenced multi-op frame at a member. Each op
// runs through the ordinary ordered-delivery core under its own
// sequence number.
func (g *Member) onDataBatch(p *sim.Proc, b *dataBatchMsg) {
	for _, d := range b.Items {
		g.processData(p, d)
	}
}

// ---------------------------------------------------------------------
// Sequencer-side packer, BB variant (packed accepts).

// enqueueAccept queues a BB op (whose data the members already hold)
// for the next packed accept frame.
func (g *Member) enqueueAccept(p *sim.Proc, it batchItem) {
	g.noteSeen(it.Src, it.SrcSeq, -1)
	g.accQ = append(g.accQ, it)
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
	ds := g.sequenceBatch(items)
	if len(items) == 1 {
		g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-accept",
			Body: acceptMsg{Seq: ds[0].Seq, UID: ds[0].UID, Epoch: g.epoch}, Size: hdrAccept})
	} else {
		uids := make([]int64, len(items))
		for i := range items {
			uids[i] = items[i].UID
		}
		g.stats.Batches++
		g.stats.BatchedOps += int64(len(items))
		g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-baccept",
			Body: &acceptBatchMsg{Seq: ds[0].Seq, UIDs: uids, Epoch: g.epoch}, Size: hdrAccept + 8*len(uids)})
	}
	for _, d := range ds {
		g.processData(p, d)
	}
}

// onAcceptBatch handles a packed accept at a non-sequencer member:
// each (Seq+i, UIDs[i]) pair runs the single-accept logic.
func (g *Member) onAcceptBatch(p *sim.Proc, a *acceptBatchMsg) {
	if a.Epoch < g.epoch {
		return // stale sequencer's stream
	}
	if a.Epoch > g.epoch {
		g.epoch = a.Epoch // adopt the newer view's stream
		g.electing = false
	}
	for i, uid := range a.UIDs {
		seq := a.Seq + int64(i)
		if seq < g.nextSeq {
			delete(g.pendingBB, uid) // late duplicate; GC the stashed data
			continue
		}
		if bb, ok := g.pendingBB[uid]; ok {
			delete(g.pendingBB, uid)
			g.processData(p, &dataMsg{Seq: seq, UID: uid, Src: bb.Src, SrcSeq: bb.SrcSeq, Kind: bb.Kind,
				Body: bb.Body, Size: bb.Size, Epoch: g.epoch, More: i < len(a.UIDs)-1})
			continue
		}
		// Data frame lost: remember the accept and fetch the payload
		// from the sequencer's history via the gap machinery.
		g.acceptedBB[seq] = bbAccept{uid: uid, more: i < len(a.UIDs)-1}
		if seq > g.maxSeen {
			g.maxSeen = seq
		}
		g.armGapTimer()
	}
}

// ---------------------------------------------------------------------
// Sender-side packer.

// enqueueSend queues one op for the next request frame and arms a
// same-instant flush: every op submitted in the current virtual
// instant leaves in one frame (cross-instant combining is the RTS
// write buffer's job). MaxOps/MaxBytes flush early so one frame never
// carries more than a configured batch.
func (g *Member) enqueueSend(p *sim.Proc, it batchItem) {
	g.sendQ = append(g.sendQ, it)
	g.sendBytes += it.Size + hdrItem
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
	g.sendQ = nil
	g.sendBytes = 0
	if g.isSeq && g.installed {
		// Became the sequencer while ops were queued: sequence them
		// directly.
		for _, it := range items {
			g.enqueuePack(p, it)
		}
		return
	}
	if len(items) == 1 {
		it := items[0]
		st := &sendState{uid: it.UID, srcSeq: it.SrcSeq, kind: it.Kind, body: it.Body, size: it.Size, method: g.resolveMethod(it.Size)}
		g.outstanding[it.UID] = st
		g.transmit(p, st)
		g.armSenderTimer(st)
		return
	}
	size := 0
	for _, it := range items {
		size += it.Size + hdrItem
	}
	st := &sendState{items: items, size: size, method: g.resolveMethod(size)}
	for i := range items {
		g.outstanding[items[i].UID] = st
	}
	g.stats.Batches++
	g.stats.BatchedOps += int64(len(items))
	g.transmit(p, st)
	g.armSenderTimer(st)
}

// transmitBatch performs one send attempt for a batched send. Only
// the still-outstanding items travel; a retransmission after a
// partial acknowledgment shrinks the frame.
func (g *Member) transmitBatch(p *sim.Proc, st *sendState) {
	live := make([]batchItem, 0, len(st.items))
	size := 0
	for i := range st.items {
		if g.outstanding[st.items[i].UID] == st {
			live = append(live, st.items[i])
			size += st.items[i].Size + hdrItem
		}
	}
	if len(live) == 0 {
		return
	}
	switch st.method {
	case ForcePB:
		g.stats.PBSends++
		g.m.Send(p, g.seqNode, amoeba.Packet{Port: g.port, Kind: "grp-breq",
			Body: &reqBatchMsg{Items: live, Size: size}, Size: size + hdrData})
	case ForceBB:
		g.stats.BBSends++
		for i := range live {
			it := live[i]
			g.pendingBB[it.UID] = &bbDataMsg{UID: it.UID, Src: it.Src, SrcSeq: it.SrcSeq, Kind: it.Kind, Body: it.Body, Size: it.Size}
		}
		g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-bb-bdata",
			Body: &bbBatchMsg{Items: live, Size: size}, Size: size + hdrData})
	}
}

// onReqBatch handles a packed request frame at the sequencer: each
// item dedups individually and joins the pack buffer.
func (g *Member) onReqBatch(p *sim.Proc, b *reqBatchMsg) {
	if !g.isSeq || !g.installed {
		return // stale or uninstalled view; the sender will retry
	}
	for i := range b.Items {
		it := b.Items[i]
		if seq, dup := g.seenSeq(it.Src, it.SrcSeq); dup {
			if d := g.history.get(seq); d != nil && (g.cfg.Protocol != Consensus || seq <= g.committed) {
				g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-data", Body: d, Size: d.Size + hdrData})
			}
			continue
		}
		g.enqueuePack(p, it)
	}
}

// onBBBatch unpacks a batched BB data frame: each item runs the
// single-item BB logic (accept-packing at the sequencer, stashing or
// completion at a member).
func (g *Member) onBBBatch(p *sim.Proc, b *bbBatchMsg) {
	for i := range b.Items {
		it := b.Items[i]
		g.onBBData(p, &bbDataMsg{UID: it.UID, Src: it.Src, SrcSeq: it.SrcSeq, Kind: it.Kind, Body: it.Body, Size: it.Size})
	}
}
