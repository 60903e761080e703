package mpi

import (
	"testing"
	"time"
)

// receiver is one way to receive, reduced to the arguments of
// mailbox.take it can express: ranged ones take [lo, hi], the others tag.
// Besides the exported receives it names the call forms the runtime
// uses: a deadline alone (RecvTimeout), an exact tag with a deadline and
// a cancel predicate (RecvUntil), and a posted request completed by a
// receive on its Source and Tag, as a worker completes a block fetch
// (Request.Wait, and bounded, Request.WaitTimeout and Request.WaitUntil).
type receiver struct {
	name                          string
	ranged, try, deadline, cancel bool
	recv                          func(c *Comm, src, tag, lo, hi int, d time.Duration, cancel func() bool) (Message, bool)
}

var receivers = []receiver{
	{name: "Recv", recv: func(c *Comm, src, tag, _, _ int, _ time.Duration, _ func() bool) (Message, bool) {
		return c.Recv(src, tag), true
	}},
	{name: "RecvTimeout", deadline: true, recv: func(c *Comm, src, tag, _, _ int, d time.Duration, _ func() bool) (Message, bool) {
		lo, hi := tagRange(tag)
		return c.RecvRangeUntil(src, lo, hi, d, nil)
	}},
	{name: "RecvUntil", deadline: true, cancel: true, recv: func(c *Comm, src, tag, _, _ int, d time.Duration, cancel func() bool) (Message, bool) {
		lo, hi := tagRange(tag)
		return c.RecvRangeUntil(src, lo, hi, d, cancel)
	}},
	{name: "RecvRange", ranged: true, recv: func(c *Comm, src, _, lo, hi int, _ time.Duration, _ func() bool) (Message, bool) {
		return c.RecvRange(src, lo, hi), true
	}},
	{name: "RecvRangeUntil", ranged: true, deadline: true, cancel: true, recv: func(c *Comm, src, _, lo, hi int, d time.Duration, cancel func() bool) (Message, bool) {
		return c.RecvRangeUntil(src, lo, hi, d, cancel)
	}},
	{name: "TryRecv", try: true, recv: func(c *Comm, src, tag, _, _ int, _ time.Duration, _ func() bool) (Message, bool) {
		return c.TryRecv(src, tag)
	}},
	{name: "Request.Test", try: true, recv: func(c *Comm, src, tag, _, _ int, _ time.Duration, _ func() bool) (Message, bool) {
		r := c.Irecv(src, tag)
		return r.Test()
	}},
	{name: "Request.Wait", recv: func(c *Comm, src, tag, _, _ int, _ time.Duration, _ func() bool) (Message, bool) {
		r := c.Irecv(src, tag)
		return c.Recv(r.Source(), r.Tag()), true
	}},
	{name: "Request.WaitTimeout", deadline: true, recv: func(c *Comm, src, tag, _, _ int, d time.Duration, _ func() bool) (Message, bool) {
		r := c.Irecv(src, tag)
		lo, hi := tagRange(r.Tag())
		return c.RecvRangeUntil(r.Source(), lo, hi, d, nil)
	}},
	{name: "Request.WaitUntil", deadline: true, cancel: true, recv: func(c *Comm, src, tag, _, _ int, d time.Duration, cancel func() bool) (Message, bool) {
		r := c.Irecv(src, tag)
		lo, hi := tagRange(r.Tag())
		return c.RecvRangeUntil(r.Source(), lo, hi, d, cancel)
	}},
}

// TestOneMailboxLoop runs every matching and wake-up rule of mailbox.take
// through each exported receive that can express it — at least two per
// row — so the wrappers provably share the one loop.
func TestOneMailboxLoop(t *testing.T) {
	const me = 3
	type send struct {
		src, tag int
		data     string
	}
	rows := []struct {
		name   string
		sends  []send
		src    int
		tag    int  // exact tag or AnyTag, unless ranged
		ranged bool // match [lo, hi] instead of tag
		lo, hi int
		try    bool          // do not block
		d      time.Duration // deadline of a bounded receive
		evict  bool          // cancel on a membership change, which the wait itself sets off
		abort  bool          // abort the world once the sends are queued
		want   []string      // data of the successive receives
		end    string        // the receive after those: "" (not made), "miss" or "abort"
	}{
		{name: "exact tag skips other tags", sends: []send{{0, 1, "a"}, {0, 2, "b"}}, src: AnySource, tag: 2, want: []string{"b"}},
		{name: "exact tag, non-blocking", sends: []send{{0, 1, "a"}, {0, 2, "b"}}, src: AnySource, tag: 2, try: true, want: []string{"b"}, end: "miss"},
		{name: "AnyTag takes the oldest, negative tags too", sends: []send{{1, -7, "a"}, {0, 2, "b"}}, src: AnySource, tag: AnyTag, want: []string{"a", "b"}},
		{name: "tag range", sends: []send{{0, 9, "below"}, {0, 20, "above"}, {1, 12, "in"}, {0, 10, "edge"}},
			src: AnySource, ranged: true, lo: 10, hi: 19, want: []string{"in", "edge"}},
		{name: "source filter", sends: []send{{0, 5, "from0"}, {1, 5, "from1"}}, src: 1, tag: 5, want: []string{"from1"}},
		{name: "AnySource", sends: []send{{2, 5, "x"}, {1, 5, "y"}}, src: AnySource, tag: 5, want: []string{"x", "y"}},
		{name: "per-sender FIFO", sends: []send{{0, 5, "1"}, {1, 5, "other"}, {0, 6, "skip"}, {0, 5, "2"}, {0, 5, "3"}},
			src: 0, tag: 5, want: []string{"1", "2", "3"}},
		{name: "deadline expiry", sends: []send{{0, 1, "a"}}, src: 0, tag: 2, d: 5 * time.Millisecond, end: "miss"},
		{name: "cancel on the Evict wake", sends: []send{{0, 1, "a"}}, src: 0, tag: 2, evict: true, end: "miss"},
		{name: "queued match beats cancel", sends: []send{{0, 2, "a"}}, src: 0, tag: 2, evict: true, want: []string{"a"}, end: "miss"},
		{name: "non-blocking miss", sends: []send{{0, 1, "a"}}, src: 1, tag: 1, try: true, end: "miss"},
		{name: "drain then ErrAborted", sends: []send{{0, 2, "a"}, {0, 3, "b"}}, src: 0, tag: 2, abort: true, want: []string{"a"}, end: "abort"},
		{name: "drain then ErrAborted, non-blocking", sends: []send{{0, 2, "a"}}, src: 0, tag: 2, try: true, abort: true, want: []string{"a"}, end: "abort"},
		{name: "drain then ErrAborted, ranged", sends: []send{{0, 2, "a"}}, src: 0, ranged: true, lo: 0, hi: 4, abort: true, want: []string{"a"}, end: "abort"},
	}
	for _, row := range rows {
		ran := 0
		for _, rc := range receivers {
			if rc.try != row.try || (row.ranged && !rc.ranged) || (row.d > 0 && !rc.deadline) || (row.evict && !rc.cancel) ||
				(row.end == "miss" && !rc.try && !rc.deadline && !rc.cancel) {
				continue
			}
			ran++
			t.Run(row.name+"/"+rc.name, func(t *testing.T) {
				w := NewWorld(me + 1)
				w.SetRecover(me)
				for _, s := range row.sends {
					w.Comm(s.src).Send(me, s.tag, s.data)
				}
				if row.abort {
					w.Abort()
				}
				lo, hi := row.lo, row.hi
				if !row.ranged {
					lo, hi = tagRange(row.tag)
				}
				var cancel func() bool
				if row.evict {
					// The first evaluation runs inside the wait, under the
					// mailbox lock, so the eviction's wake cannot be missed.
					stamp, kicked := w.EvictStamp(), false
					cancel = func() bool {
						if !kicked {
							kicked = true
							go w.Evict(1, "test")
						}
						return w.EvictStamp() != stamp
					}
				}
				recv := func() (m Message, ok, aborted bool) {
					defer func() {
						if r := recover(); r != nil {
							if r != ErrAborted {
								panic(r)
							}
							aborted = true
						}
					}()
					m, ok = rc.recv(w.Comm(me), row.src, row.tag, lo, hi, row.d, cancel)
					return m, ok, false
				}
				for i, want := range row.want {
					m, ok, aborted := recv()
					if !ok || aborted || m.Data != want {
						t.Fatalf("receive %d = %v (ok %v, aborted %v), want %q", i, m.Data, ok, aborted, want)
					}
				}
				switch row.end {
				case "miss":
					if m, ok, aborted := recv(); ok || aborted {
						t.Fatalf("receive past the matches = %v (ok %v, aborted %v), want a miss", m.Data, ok, aborted)
					}
				case "abort":
					if m, ok, aborted := recv(); !aborted {
						t.Fatalf("receive on the drained, aborted world = %v (ok %v), want ErrAborted", m.Data, ok)
					}
				}
			})
		}
		if ran < 2 {
			t.Errorf("row %q ran through %d exported receives, want at least two", row.name, ran)
		}
	}
}
