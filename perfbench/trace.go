package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one traced interval: a call the benchmark made into a layer, or
// a phase the layer reported in its result type (Derived), laid out in the
// order the layer runs its phases.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at the root
	Frame   int    `json:"frame"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (tr *tracer) begin(name string, parent, frame int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Start: int64(time.Since(tr.t0)), Parent: parent, Frame: frame})
	return len(tr.spans) - 1
}

// end closes span id.
func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	tr.spans[id].End = int64(time.Since(tr.t0))
}

// phases appends derived child spans under parent, back to back from the
// parent's start, one per named phase duration.
func (tr *tracer) phases(parent, frame int, names []string, durs []time.Duration) {
	if tr == nil || parent < 0 {
		return
	}
	at := tr.spans[parent].Start
	for i, d := range durs {
		tr.spans = append(tr.spans, span{Name: names[i], Start: at, End: at + int64(d), Parent: parent, Frame: frame, Derived: true})
		at += int64(d)
	}
}

// selfByLayer returns each layer's self time (span duration minus its
// children's), summed over all spans; a layer is the span name up to its
// first dot.
func (tr *tracer) selfByLayer() map[string]time.Duration {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range tr.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (tr *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}
