package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// traceDir holds the span files of traced operations while they are
// read back; it lies inside the checkout the benchmark runs from.
const traceDir = ".bench_build/trace"

var traceSeq atomic.Int64

// tracer is one traced operation's recorder: the program's own span
// recorder, writing to a scratch file that collect reads and removes.
type tracer struct {
	rec  *chaos.Recorder
	path string
}

func newTracer() (*tracer, error) {
	path := filepath.Join(traceDir, fmt.Sprintf("%d-%d.jsonl", os.Getpid(), traceSeq.Add(1)))
	rec, err := chaos.OpenRecorder(path)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	return &tracer{rec: rec, path: path}, nil
}

// discard closes the recorder of an operation that already failed and
// removes its trace unread.
func (t *tracer) discard() {
	t.rec.Close()
	os.Remove(t.path)
}

// spans is what one traced operation recorded: the program's timeline
// plus every completed span's duration by kind.
type spans struct {
	tl   *obs.Timeline
	durs map[string][]float64
}

// collect closes the recorder, reads the trace back and removes it. A
// trace with unbalanced spans fails the operation.
func (t *tracer) collect() (*spans, error) {
	defer os.Remove(t.path)
	if err := t.rec.Close(); err != nil {
		return nil, fmt.Errorf("close trace: %w", err)
	}
	events, err := chaos.ReadFile(t.path)
	if err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	tl := obs.BuildTimeline(events)
	if tl.Unmatched != 0 {
		return nil, fmt.Errorf("trace has %d unmatched spans", tl.Unmatched)
	}
	return &spans{tl: tl, durs: spanDurations(events)}, nil
}

// spanDurations pairs span begin/end events by (rank, span id).
func spanDurations(events []chaos.Event) map[string][]float64 {
	type key struct {
		rank int
		sid  int64
	}
	open := map[key]chaos.Event{}
	out := map[string][]float64{}
	for _, e := range events {
		switch e.Ev {
		case chaos.EvSpanBegin:
			open[key{e.Rank, e.Sid}] = e
		case chaos.EvSpanEnd:
			k := key{e.Rank, e.Sid}
			if b, ok := open[k]; ok {
				delete(open, k)
				out[b.Span] = append(out[b.Span], e.T-b.T)
			}
		}
	}
	return out
}

// share is the fraction of procs×makespan that spans of one kind cover.
func (s *spans) share(kind string, procs int, makespan float64) float64 {
	if makespan <= 0 {
		return 0
	}
	return s.tl.SpanTotal(kind) / (float64(procs) * makespan)
}
