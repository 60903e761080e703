package sip

import (
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/wire"
)

// sipRoundTrip encodes and decodes one message through the wire
// registry, as the TCP transport does for every frame.
func sipRoundTrip(t *testing.T, v any) any {
	t.Helper()
	got, err := wire.Decode(wire.Encode(v))
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return got
}

func TestMessageWireRoundTrips(t *testing.T) {
	b := block.New(2, 3)
	for i := range b.Data() {
		b.Data()[i] = float64(i) + 0.5
	}
	msgs := []any{
		getMsg{key: blockKey{arr: 3, ord: 17}, replyTag: 1 << 16},
		flushMsg{job: 4},
		shutdownMsg{gather: true},
		shutdownMsg{},
		chunkMsg{pardo: 2, gen: 5},
		chunkReply{span{lo: 3, hi: 4100, n: 4096}},
		chunkReply{},
		doneMsg{failRank: -1},
		doneMsg{err: "worker exploded", failRank: -1},
		doneMsg{err: "aborted", failRank: 0, failReason: "no heartbeat"},
		doneMsg{err: "aborted", failRank: 3, failReason: "no traffic for 1s"},
		syncMsg{round: 9, kind: syncEnd, id: -1, vals: []float64{1.5, -2}},
		syncMsg{round: 5, kind: syncSave, id: 7,
			blocks: []ArrayBlock{{Ord: 0, Data: []float64{1, 2}}, {Ord: 9, Data: []float64{3}}}},
		syncReply{round: 5, blocks: []ArrayBlock{{Ord: 9, Data: []float64{3}}}, err: "disk full"},
		syncReply{round: 6, resume: true, pardo: 1, gen: 2, spans: []span{{0, 4, 3}, {9, 10, 1}}},
		ckptData{arr: 7, blocks: []ArrayBlock{{Ord: 1, Data: []float64{4}}}},
		ackMsg{},
		rereplicateMsg{round: 3},
		rereplicateAck{round: 3, pushed: 17},
		replAckMsg{round: 3},
	}
	for _, want := range msgs {
		got := sipRoundTrip(t, want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %T:\n got %#v\nwant %#v", want, got, want)
		}
	}
}

// TestWireSizeHintsBound: every fuzz-corpus sample of a message that
// reports a size hint encodes into no more than the hint, so the
// transport's pooled encoder never regrows for it.
func TestWireSizeHintsBound(t *testing.T) {
	hinted := map[string]bool{}
	for _, buf := range wire.Corpus() {
		v, err := wire.Decode(buf)
		if err != nil {
			t.Fatalf("corpus sample: %v", err)
		}
		h, ok := v.(wire.SizeHinter)
		if !ok {
			continue
		}
		hinted[reflect.TypeOf(v).String()] = true
		if n := h.WireSizeHint(); len(buf) > n {
			t.Errorf("%T encodes to %d bytes, hint %d", v, len(buf), n)
		}
	}
	for _, name := range []string{"sip.putMsg", "sip.replPutMsg", "sip.gatherMsg", "sip.ckptData", "sip.obsReportMsg",
		"sip.chunkMsg", "sip.doneMsg", "sip.syncMsg", "sip.syncReply"} {
		if !hinted[name] {
			t.Errorf("no corpus sample of %s reports a size hint", name)
		}
	}
}

func TestPutMsgWireRoundTrip(t *testing.T) {
	b := block.New(2, 2)
	copy(b.Data(), []float64{1, 2, 3, 4})
	want := putMsg{key: blockKey{arr: 1, ord: 2}, b: b, acc: true, seq: 9}
	got := sipRoundTrip(t, want).(putMsg)
	if got.key != want.key || got.acc != want.acc || got.seq != want.seq {
		t.Fatalf("header mismatch: %#v", got)
	}
	if !reflect.DeepEqual(got.b.Dims(), b.Dims()) || !reflect.DeepEqual(got.b.Data(), b.Data()) {
		t.Fatalf("block mismatch: %v %v", got.b.Dims(), got.b.Data())
	}
	// A nil block (allocate-on-demand put) survives too.
	nilPut := sipRoundTrip(t, putMsg{key: blockKey{arr: 1, ord: 3}}).(putMsg)
	if nilPut.b != nil {
		t.Fatalf("nil block decoded as %v", nilPut.b)
	}
}

func TestReplPutMsgWireRoundTrip(t *testing.T) {
	b := block.New(2, 2)
	copy(b.Data(), []float64{1, 2, 3, 4})
	want := replPutMsg{key: blockKey{arr: 2, ord: 7}, b: b, round: 4}
	got := sipRoundTrip(t, want).(replPutMsg)
	if got.key != want.key || got.round != want.round {
		t.Fatalf("header mismatch: %#v", got)
	}
	if !reflect.DeepEqual(got.b.Dims(), b.Dims()) || !reflect.DeepEqual(got.b.Data(), b.Data()) {
		t.Fatalf("block mismatch: %v %v", got.b.Dims(), got.b.Data())
	}
	nilPush := sipRoundTrip(t, replPutMsg{key: blockKey{arr: 2, ord: 8}, round: 1}).(replPutMsg)
	if nilPush.b != nil {
		t.Fatalf("nil block decoded as %v", nilPush.b)
	}
}

func TestGatherMsgWireRoundTrip(t *testing.T) {
	want := gatherMsg{arrays: map[int][]ArrayBlock{
		2: {{Ord: 0, Data: []float64{1, 2, 3}}},
		5: {{Ord: 1, Data: []float64{4}}, {Ord: 2, Data: []float64{5, 6}}},
	}}
	got := sipRoundTrip(t, want).(gatherMsg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gather round trip:\n got %#v\nwant %#v", got, want)
	}
	empty := sipRoundTrip(t, gatherMsg{}).(gatherMsg)
	if empty.arrays != nil || empty.obs != nil {
		t.Fatalf("empty gather round trip: %#v", empty)
	}
}
