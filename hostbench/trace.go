package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one host-time interval around a call the benchmark makes into
// a layer of the program. Its name is "<layer>.<call>"; the layer "bench"
// marks the benchmark's own op and job spans, whose self time is the
// benchmark's overhead (input generation and output checks).
type span struct {
	id, parent, op int64
	name           string
	start, end     time.Duration // since the tracer's t0
	n              int64         // work done in the call: instructions, pages, bytes or epochs
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so a span's children can name it as their
// parent before it has ended.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since converts a wall-clock instant to the tracer's time base.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.t0) }

// byName returns the spans with the given name.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of it that the span's children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.layer()] += s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace_event JSON (loadable in
// Perfetto or chrome://tracing): one complete event per span, one track
// per op, with the span's ids and work count in args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := event{Name: s.name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.op,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op, "n": s.n}}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opTimer times the calls of one op. Every call is timed, because the
// end-to-end metrics are built from those times; when tr is non-nil the
// call is also kept as a span under the innermost call still open. An
// op's calls run on one goroutine.
type opTimer struct {
	tr   *tracer
	op   int64
	cur  int64 // id of the innermost open span; 0 outside any
	root int64
	t0   time.Time
}

// startOp opens op number op; tr is nil for an untraced op.
func startOp(tr *tracer, op int64) *opTimer {
	o := &opTimer{tr: tr, op: op, t0: time.Now()}
	if tr != nil {
		o.root = tr.newID()
		o.cur = o.root
	}
	return o
}

// end closes the op and returns its latency.
func (o *opTimer) end(name string) time.Duration {
	d := time.Since(o.t0)
	if o.tr != nil {
		o.tr.add(span{id: o.root, op: o.op, name: name,
			start: o.tr.since(o.t0), end: o.tr.since(o.t0) + d, n: 1})
	}
	return d
}

// call runs fn, which returns the work it did, and times it as span name.
func (o *opTimer) call(name string, fn func() (int64, error)) (time.Duration, error) {
	var id, parent int64
	if o.tr != nil {
		id, parent = o.tr.newID(), o.cur
		o.cur = id
	}
	start := time.Now()
	n, err := fn()
	d := time.Since(start)
	if o.tr != nil {
		o.cur = parent
		o.tr.add(span{id: id, parent: parent, op: o.op, name: name,
			start: o.tr.since(start), end: o.tr.since(start) + d, n: n})
	}
	return d, err
}

// tracedReaderAt times every ReadAt on a stored recording as a
// store.read span, nested under whichever call is reading.
type tracedReaderAt struct {
	o  *opTimer
	ra io.ReaderAt
}

func (r tracedReaderAt) ReadAt(p []byte, off int64) (n int, err error) {
	_, _ = r.o.call("store.read", func() (int64, error) {
		n, err = r.ra.ReadAt(p, off)
		return int64(n), nil
	})
	return n, err
}
