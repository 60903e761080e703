package sip

import (
	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Wire ids of the SIP message types (block 32..63, see internal/wire).
// The master/worker/server protocols send exactly these payloads, so
// registering them here is what makes the SIP runnable over a
// serializing transport.
const (
	wireIDGetMsg = 32 + iota
	wireIDPutMsg
	wireIDFlushMsg
	wireIDShutdownMsg
	wireIDChunkMsg
	wireIDChunkReply
	wireIDDoneMsg
	_ // retired id: blocks_to_list files embed the next one, so it keeps its number
	wireIDCkptData
	wireIDGatherMsg
	wireIDAckMsg
	wireIDSyncMsg
	wireIDSyncReply
	wireIDRereplicateMsg
	wireIDRereplicateAck
	wireIDReplPutMsg
	wireIDReplAckMsg
	wireIDObsReport
	_ // retired id: on-disk snapshot manifests embed the next one, so it keeps its number
	wireIDCkptManifest
)

// WireSizeHint implements wire.SizeHinter for the messages whose size
// varies: the transport sizes its pooled encoder from the hint, so a
// block put/prepare encodes without buffer regrowth, and the mpi.bytes.*
// metrics count it (mpiStats.OnSend).
func (m putMsg) WireSizeHint() int {
	n := 48
	if m.b != nil {
		n += m.b.WireSizeHint()
	}
	return n
}

func (m replPutMsg) WireSizeHint() int {
	n := 48
	if m.b != nil {
		n += m.b.WireSizeHint()
	}
	return n
}

// A gather or a blocks_to_list file encodes into one buffer of its hint.
func (m gatherMsg) WireSizeHint() int {
	n := 32
	for _, blocks := range m.arrays {
		n += 16 + arrayBlocksBytes(blocks)
	}
	if m.obs != nil {
		n += m.obs.WireSizeHint()
	}
	return n
}

func (m ckptData) WireSizeHint() int { return 32 + arrayBlocksBytes(m.blocks) }
func (m chunkMsg) WireSizeHint() int { return 24 + 8*len(m.delta) }
func (m doneMsg) WireSizeHint() int  { return 32 + len(m.err) + len(m.failReason) }

func (m syncMsg) WireSizeHint() int {
	return 32 + 8*len(m.vals) + workerStateBytes(m.state) + arrayBlocksBytes(m.blocks)
}

func (m syncReply) WireSizeHint() int {
	return 48 + 32*len(m.spans) + 8*len(m.vals) + arrayBlocksBytes(m.blocks) +
		len(m.err) + workerStateBytes(m.state)
}

// arrayBlocksBytes estimates the wire size of gathered or checkpointed
// blocks: an ordinal and a length around each float64 payload.
func arrayBlocksBytes(blocks []ArrayBlock) int {
	n := 0
	for _, ab := range blocks {
		n += 16 + 8*len(ab.Data)
	}
	return n
}

// workerStateBytes estimates the wire size of an attached resume state.
func workerStateBytes(st *workerState) int {
	if st == nil {
		return 0
	}
	return 16 + 8*(len(st.scalars)+len(st.idxVal)+len(st.pardoGen)) +
		len(st.idxBound) + 32*len(st.frames)
}

// encodeWorkerState/decodeWorkerState carry a snapshot resume base,
// both inside sync messages and inside the on-disk manifest (which
// reuses the wire codec so the fuzz corpus and hostile-length guards
// cover restart files too).
func encodeWorkerState(e *wire.Encoder, st *workerState) {
	e.Bool(st != nil)
	if st == nil {
		return
	}
	e.Int(st.resumePC)
	e.Int(st.syncRound)
	e.Float64s(st.scalars)
	e.Ints(st.idxVal)
	e.Uvarint(uint64(len(st.idxBound)))
	for _, b := range st.idxBound {
		e.Bool(b)
	}
	e.Ints(st.pardoGen)
	e.Uvarint(uint64(len(st.frames)))
	for _, f := range st.frames {
		e.Int(f.kind)
		e.Int(f.idx)
		e.Int(f.cur)
		e.Int(f.hi)
		e.Int(f.startPC)
		e.Int(f.exitPC)
		e.Int(f.retPC)
		e.Int(f.procID)
	}
}

func decodeWorkerState(d *wire.Decoder) *workerState {
	if !d.Bool() {
		return nil
	}
	st := &workerState{resumePC: d.Int(), syncRound: d.Int(),
		scalars: d.Float64s(), idxVal: d.Ints()}
	n := d.Uvarint()
	if !checkCount(d, n, "bound flags") {
		return st
	}
	if n > 0 {
		st.idxBound = make([]bool, n)
		for i := range st.idxBound {
			st.idxBound[i] = d.Bool()
		}
	}
	st.pardoGen = d.Ints()
	n = d.Uvarint()
	if !checkCount(d, n, "frames") {
		return st
	}
	if n > 0 {
		st.frames = make([]frameState, n)
		for i := range st.frames {
			st.frames[i] = frameState{kind: d.Int(), idx: d.Int(), cur: d.Int(),
				hi: d.Int(), startPC: d.Int(), exitPC: d.Int(),
				retPC: d.Int(), procID: d.Int()}
		}
	}
	return st
}

func encodeKey(e *wire.Encoder, k blockKey) {
	e.Int(k.job)
	e.Int(k.arr)
	e.Int(k.ord)
}

func decodeKey(d *wire.Decoder) blockKey {
	return blockKey{job: d.Int(), arr: d.Int(), ord: d.Int()}
}

func encodeArrayBlocks(e *wire.Encoder, blocks []ArrayBlock) {
	e.Uvarint(uint64(len(blocks)))
	for _, ab := range blocks {
		e.Int(ab.Ord)
		e.Float64s(ab.Data)
	}
}

func decodeArrayBlocks(d *wire.Decoder) []ArrayBlock {
	n := d.Uvarint()
	if !checkCount(d, n, "gathered blocks") || n == 0 {
		return nil
	}
	blocks := make([]ArrayBlock, n)
	for i := range blocks {
		blocks[i] = ArrayBlock{Ord: d.Int(), Data: d.Float64s()}
	}
	return blocks
}

func encodeSnapshot(e *wire.Encoder, s *obs.Snapshot) {
	e.Bool(s != nil)
	if s == nil {
		return
	}
	e.Uvarint(uint64(len(s.Counters)))
	for name, v := range s.Counters {
		e.String(name)
		e.Int(int(v))
	}
	e.Uvarint(uint64(len(s.Gauges)))
	for name, g := range s.Gauges {
		e.String(name)
		e.Int(int(g.Value))
		e.Int(int(g.Max))
	}
	e.Uvarint(uint64(len(s.Hists)))
	for name, h := range s.Hists {
		e.String(name)
		e.Int(int(h.Count))
		e.Int(int(h.Sum))
		e.Int(int(h.P50))
		e.Int(int(h.P90))
		e.Int(int(h.P99))
		e.Uvarint(uint64(len(h.Buckets)))
		for _, b := range h.Buckets {
			e.Int(int(b))
		}
	}
}

// encodeSpan/decodeSpan carry one chunk; encodeSpans/decodeSpans a
// replay order or a snapshot overlay.
func encodeSpan(e *wire.Encoder, s span) {
	e.Int(s.lo)
	e.Int(s.hi)
	e.Int(s.n)
}

func decodeSpan(d *wire.Decoder) span { return span{lo: d.Int(), hi: d.Int(), n: d.Int()} }

func encodeSpans(e *wire.Encoder, spans []span) {
	e.Uvarint(uint64(len(spans)))
	for _, s := range spans {
		encodeSpan(e, s)
	}
}

func decodeSpans(d *wire.Decoder) []span {
	n := d.Uvarint()
	if !checkCount(d, n, "spans") || n == 0 {
		return nil
	}
	spans := make([]span, n)
	for i := range spans {
		spans[i] = decodeSpan(d)
	}
	return spans
}

// checkCount guards a decoded element count against the remaining
// bytes, so a corrupt frame fails instead of allocating wildly.
func checkCount(d *wire.Decoder, n uint64, what string) bool {
	if d.Err() != nil {
		return false
	}
	if n > uint64(d.Remaining()) {
		d.Fail("sip: %d %s exceed remaining %d bytes", n, what, d.Remaining())
		return false
	}
	return true
}

func decodeSnapshot(d *wire.Decoder) *obs.Snapshot {
	if !d.Bool() {
		return nil
	}
	s := &obs.Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]obs.GaugeValue{},
		Hists:    map[string]obs.HistValue{},
	}
	n := d.Uvarint()
	if !checkCount(d, n, "counters") {
		return s
	}
	for i := uint64(0); i < n; i++ {
		name := d.String()
		s.Counters[name] = int64(d.Int())
	}
	n = d.Uvarint()
	if !checkCount(d, n, "gauges") {
		return s
	}
	for i := uint64(0); i < n; i++ {
		name := d.String()
		s.Gauges[name] = obs.GaugeValue{Value: int64(d.Int()), Max: int64(d.Int())}
	}
	n = d.Uvarint()
	if !checkCount(d, n, "histograms") {
		return s
	}
	for i := uint64(0); i < n; i++ {
		name := d.String()
		h := obs.HistValue{Count: int64(d.Int()), Sum: int64(d.Int()),
			P50: int64(d.Int()), P90: int64(d.Int()), P99: int64(d.Int())}
		nb := d.Uvarint()
		if !checkCount(d, nb, "histogram buckets") {
			return s
		}
		if nb > 0 {
			h.Buckets = make([]int64, nb)
			for j := range h.Buckets {
				h.Buckets[j] = int64(d.Int())
			}
		}
		s.Hists[name] = h
	}
	return s
}

func encodeSegments(e *wire.Encoder, segs []obs.TrackSegment) {
	e.Uvarint(uint64(len(segs)))
	for _, t := range segs {
		e.Int(t.Rank)
		e.Int(t.Tid)
		e.String(t.Proc)
		e.String(t.Name)
		e.Int(t.Dropped)
		e.Uvarint(uint64(len(t.Events)))
		for _, ev := range t.Events {
			e.String(ev.Name)
			e.String(ev.Cat)
			e.Int(int(ev.TS))
			e.Int(int(ev.Dur))
			e.Uvarint(ev.Flow)
			e.Byte(ev.FlowDir)
			e.Byte(byte(ev.NArg))
			for i := 0; i < ev.NArg; i++ {
				e.String(ev.Args[i].Key)
				e.String(ev.Args[i].Val)
			}
		}
	}
}

func decodeSegments(d *wire.Decoder) []obs.TrackSegment {
	n := d.Uvarint()
	if n == 0 || !checkCount(d, n, "track segments") {
		return nil
	}
	segs := make([]obs.TrackSegment, 0, n)
	for i := uint64(0); i < n; i++ {
		t := obs.TrackSegment{Rank: d.Int(), Tid: d.Int(),
			Proc: d.String(), Name: d.String(), Dropped: d.Int()}
		ne := d.Uvarint()
		if !checkCount(d, ne, "trace events") {
			return segs
		}
		t.Events = make([]obs.Event, 0, ne)
		for j := uint64(0); j < ne; j++ {
			ev := obs.Event{Name: d.String(), Cat: d.String(),
				TS: int64(d.Int()), Dur: int64(d.Int()),
				Flow: d.Uvarint(), FlowDir: d.Byte()}
			na := int(d.Byte())
			if na > len(ev.Args) {
				d.Fail("sip: trace event with %d args", na)
				return segs
			}
			ev.NArg = na
			for k := 0; k < na; k++ {
				ev.Args[k] = obs.Arg{Key: d.String(), Val: d.String()}
			}
			if d.Err() != nil {
				return segs
			}
			t.Events = append(t.Events, ev)
		}
		segs = append(segs, t)
	}
	return segs
}

// encodeObsReport/decodeObsReport carry a telemetry report, shipped on
// its own or attached to a gatherMsg.
func encodeObsReport(e *wire.Encoder, m obsReportMsg) {
	e.Int(m.seq)
	e.Int(int(m.wallUs))
	encodeSnapshot(e, m.snap)
	encodeSegments(e, m.tracks)
}

func decodeObsReport(d *wire.Decoder) obsReportMsg {
	return obsReportMsg{seq: d.Int(), wallUs: int64(d.Int()),
		snap: decodeSnapshot(d), tracks: decodeSegments(d)}
}

func init() {
	wire.Register(wireIDObsReport, encodeObsReport, decodeObsReport)
	wire.Register(wireIDGetMsg,
		func(e *wire.Encoder, m getMsg) {
			encodeKey(e, m.key)
			e.Int(m.replyTag)
		},
		func(d *wire.Decoder) getMsg {
			return getMsg{key: decodeKey(d), replyTag: d.Int()}
		})
	wire.Register(wireIDPutMsg,
		func(e *wire.Encoder, m putMsg) {
			encodeKey(e, m.key)
			e.Bool(m.acc)
			e.Uvarint(m.seq)
			e.Bool(m.b != nil)
			if m.b != nil {
				m.b.EncodeWire(e)
			}
		},
		func(d *wire.Decoder) putMsg {
			m := putMsg{key: decodeKey(d), acc: d.Bool(), seq: d.Uvarint()}
			if d.Bool() {
				m.b = block.DecodeWire(d)
			}
			return m
		})
	wire.Register(wireIDFlushMsg,
		func(e *wire.Encoder, m flushMsg) { e.Int(m.job) },
		func(d *wire.Decoder) flushMsg { return flushMsg{job: d.Int()} })
	wire.Register(wireIDShutdownMsg,
		func(e *wire.Encoder, m shutdownMsg) {
			e.Bool(m.gather)
			e.Int(m.job)
		},
		func(d *wire.Decoder) shutdownMsg { return shutdownMsg{gather: d.Bool(), job: d.Int()} })
	wire.Register(wireIDChunkMsg,
		func(e *wire.Encoder, m chunkMsg) {
			e.Int(m.pardo)
			e.Int(m.gen)
			e.Float64s(m.delta)
		},
		func(d *wire.Decoder) chunkMsg {
			return chunkMsg{pardo: d.Int(), gen: d.Int(), delta: d.Float64s()}
		})
	wire.Register(wireIDChunkReply,
		func(e *wire.Encoder, m chunkReply) { encodeSpan(e, m.span) },
		func(d *wire.Decoder) chunkReply { return chunkReply{decodeSpan(d)} })
	wire.Register(wireIDDoneMsg,
		func(e *wire.Encoder, m doneMsg) {
			e.String(m.err)
			e.Int(m.failRank)
			e.String(m.failReason)
		},
		func(d *wire.Decoder) doneMsg {
			return doneMsg{err: d.String(), failRank: d.Int(), failReason: d.String()}
		})
	wire.Register(wireIDCkptData,
		func(e *wire.Encoder, m ckptData) {
			e.Int(m.arr)
			encodeArrayBlocks(e, m.blocks)
		},
		func(d *wire.Decoder) ckptData {
			return ckptData{arr: d.Int(), blocks: decodeArrayBlocks(d)}
		})
	wire.Register(wireIDGatherMsg,
		func(e *wire.Encoder, m gatherMsg) {
			e.Uvarint(uint64(len(m.arrays)))
			for arr, blocks := range m.arrays {
				e.Int(arr)
				encodeArrayBlocks(e, blocks)
			}
			e.Bool(m.obs != nil)
			if m.obs != nil {
				encodeObsReport(e, *m.obs)
			}
		},
		func(d *wire.Decoder) gatherMsg {
			var m gatherMsg
			n := d.Uvarint()
			if !checkCount(d, n, "gathered arrays") {
				return m
			}
			if n > 0 {
				m.arrays = make(map[int][]ArrayBlock, n)
				for i := uint64(0); i < n; i++ {
					arr := d.Int()
					m.arrays[arr] = decodeArrayBlocks(d)
				}
			}
			if d.Bool() {
				r := decodeObsReport(d)
				m.obs = &r
			}
			return m
		})
	wire.Register(wireIDAckMsg,
		func(e *wire.Encoder, m ackMsg) {},
		func(d *wire.Decoder) ackMsg { return ackMsg{} })
	wire.Register(wireIDSyncMsg,
		func(e *wire.Encoder, m syncMsg) {
			e.Int(m.round)
			e.Int(m.kind)
			e.Int(m.id)
			e.Float64s(m.vals)
			encodeWorkerState(e, m.state)
			encodeArrayBlocks(e, m.blocks)
		},
		func(d *wire.Decoder) syncMsg {
			return syncMsg{round: d.Int(), kind: d.Int(), id: d.Int(),
				vals: d.Float64s(), state: decodeWorkerState(d), blocks: decodeArrayBlocks(d)}
		})
	wire.Register(wireIDSyncReply,
		func(e *wire.Encoder, m syncReply) {
			e.Int(m.round)
			e.Bool(m.resume)
			e.Int(m.pardo)
			e.Int(m.gen)
			encodeSpans(e, m.spans)
			e.Float64s(m.vals)
			encodeArrayBlocks(e, m.blocks)
			e.String(m.err)
			encodeWorkerState(e, m.state)
		},
		func(d *wire.Decoder) syncReply {
			return syncReply{round: d.Int(), resume: d.Bool(), pardo: d.Int(),
				gen: d.Int(), spans: decodeSpans(d), vals: d.Float64s(),
				blocks: decodeArrayBlocks(d), err: d.String(),
				state: decodeWorkerState(d)}
		})
	wire.Register(wireIDRereplicateMsg,
		func(e *wire.Encoder, m rereplicateMsg) {
			e.Int(m.round)
			e.Int(m.job)
		},
		func(d *wire.Decoder) rereplicateMsg { return rereplicateMsg{round: d.Int(), job: d.Int()} })
	wire.Register(wireIDRereplicateAck,
		func(e *wire.Encoder, m rereplicateAck) {
			e.Int(m.round)
			e.Int(m.pushed)
		},
		func(d *wire.Decoder) rereplicateAck {
			return rereplicateAck{round: d.Int(), pushed: d.Int()}
		})
	wire.Register(wireIDReplPutMsg,
		func(e *wire.Encoder, m replPutMsg) {
			encodeKey(e, m.key)
			e.Int(m.round)
			e.Bool(m.b != nil)
			if m.b != nil {
				m.b.EncodeWire(e)
			}
		},
		func(d *wire.Decoder) replPutMsg {
			m := replPutMsg{key: decodeKey(d), round: d.Int()}
			if d.Bool() {
				m.b = block.DecodeWire(d)
			}
			return m
		})
	wire.Register(wireIDReplAckMsg,
		func(e *wire.Encoder, m replAckMsg) { e.Int(m.round) },
		func(d *wire.Decoder) replAckMsg { return replAckMsg{round: d.Int()} })
	wire.Register(wireIDCkptManifest,
		func(e *wire.Encoder, m ckptManifest) {
			e.Int(m.epoch)
			e.String(m.name)
			e.Uvarint(uint64(m.fingerprint))
			encodeWorkerState(e, m.base)
			e.Float64s(m.sums)
			e.Uvarint(uint64(len(m.overlays)))
			for _, ov := range m.overlays {
				e.Int(ov.pardo)
				e.Int(ov.gen)
				encodeSpans(e, ov.spans)
			}
			e.Uvarint(uint64(len(m.blocks)))
			for _, b := range m.blocks {
				e.Int(b.arr)
				e.Int(b.ord)
				e.String(b.rel)
				e.Uvarint(uint64(b.crc))
				e.Int(int(b.bytes))
			}
		},
		func(d *wire.Decoder) ckptManifest {
			m := ckptManifest{epoch: d.Int(), name: d.String(),
				fingerprint: uint32(d.Uvarint()), base: decodeWorkerState(d),
				sums: d.Float64s()}
			n := d.Uvarint()
			if !checkCount(d, n, "overlays") {
				return m
			}
			for i := uint64(0); i < n; i++ {
				m.overlays = append(m.overlays, ckptOverlay{
					pardo: d.Int(), gen: d.Int(), spans: decodeSpans(d)})
			}
			n = d.Uvarint()
			if !checkCount(d, n, "manifest blocks") {
				return m
			}
			for i := uint64(0); i < n; i++ {
				m.blocks = append(m.blocks, ckptBlockEntry{
					arr: d.Int(), ord: d.Int(), rel: d.String(),
					crc: uint32(d.Uvarint()), bytes: int64(d.Int())})
			}
			return m
		})

	// Fuzz seed corpus: one encoded example per type registered above,
	// so every SIP codec's happy path seeds FuzzDecode.
	k := blockKey{job: 1, arr: 2, ord: 3}
	b := block.FromData([]float64{1, 2, 3, 4}, 2, 2)
	abs := []ArrayBlock{{Ord: 1, Data: []float64{0.5, -0.5}}}
	wire.Sample(getMsg{key: k, replyTag: 70})
	wire.Sample(putMsg{key: k, acc: true, seq: 9, b: b})
	wire.Sample(flushMsg{job: 2})
	wire.Sample(shutdownMsg{gather: true, job: 2})
	wire.Sample(chunkMsg{pardo: 1, gen: 2, delta: []float64{0.25}})
	wire.Sample(chunkReply{span{lo: 4, hi: 9, n: 3}})
	wire.Sample(doneMsg{err: "boom", failRank: -1})
	wire.Sample(ckptData{arr: 2, blocks: abs})
	wire.Sample(gatherMsg{arrays: map[int][]ArrayBlock{0: abs}})
	wire.Sample(gatherMsg{obs: &obsReportMsg{seq: 3}})
	wire.Sample(ackMsg{})
	st := &workerState{resumePC: 7, syncRound: 2, scalars: []float64{1, 2},
		idxVal: []int{0, 3}, idxBound: []bool{true, false}, pardoGen: []int{1},
		frames: []frameState{{kind: 1, idx: 0, cur: 2, hi: 4, startPC: 5, exitPC: 9, retPC: -1, procID: -1}}}
	wire.Sample(syncMsg{round: 2, kind: 3, id: 0, vals: []float64{1.5}, state: st})
	wire.Sample(syncMsg{kind: 1, id: -1}) // the stateless form: most reports carry no snapshot base
	wire.Sample(syncMsg{round: 4, kind: syncSave, id: 2, blocks: abs})
	wire.Sample(syncReply{round: 2, resume: true, pardo: 1, gen: 1, spans: []span{{0, 2, 1}, {7, 8, 1}}, vals: []float64{2}, state: st})
	wire.Sample(syncReply{round: 4, blocks: abs, err: "sip: ckpt_j0_D.ckpt: checksum mismatch"})
	wire.Sample(ckptManifest{epoch: 3, name: "job7", fingerprint: 0xdeadbeef, base: st,
		sums:     []float64{2, 4},
		overlays: []ckptOverlay{{pardo: 0, gen: 1, spans: []span{{0, 5, 4}, {9, 12, 3}}}},
		blocks:   []ckptBlockEntry{{arr: 1, ord: 2, rel: "a1_b2.blk", crc: 0xcafe, bytes: 32}}})
	wire.Sample(rereplicateMsg{round: 1, job: 2})
	wire.Sample(rereplicateAck{round: 1, pushed: 3})
	wire.Sample(replPutMsg{key: k, round: 1, b: b})
	wire.Sample(replAckMsg{round: 1})
	ev := obs.Event{Name: "serve_get", Cat: "get", TS: 10, Dur: 5, Flow: 1, FlowDir: 's', NArg: 1}
	ev.Args[0] = obs.Arg{Key: "block", Val: "b:0:1"}
	wire.Sample(obsReportMsg{seq: 1, wallUs: 123,
		snap: &obs.Snapshot{
			Counters: map[string]int64{"net.frames_out.peer1": 4},
			Gauges:   map[string]obs.GaugeValue{"mailbox.depth": {Value: 1, Max: 3}},
			Hists:    map[string]obs.HistValue{"get.wait_us": {Count: 2, Sum: 10, P50: 4, P90: 6, P99: 6, Buckets: []int64{1, 1}}},
		},
		tracks: []obs.TrackSegment{{Rank: 2, Tid: 1, Proc: "worker 2", Name: "service", Events: []obs.Event{ev}}}})
}
