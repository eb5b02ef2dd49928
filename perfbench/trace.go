package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries "<request id>.<parent span id>" from the benchmark's
// client and shard RoundTripper to its handler wrappers.
const reqHeader = "X-Bench-Request"

// A span is one timed call at a layer boundary. Parent 0 means the caller
// is outside the trace; attributed marks a parent found by path and time
// containment because the ID could not cross code the benchmark does not
// own (coordinator to shard call).
type span struct {
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent"`
	Req        int64  `json:"req"`
	Name       string `json:"name"`
	Path       string `json:"path,omitempty"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Attributed bool   `json:"attributed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// tracer records nothing, and a traced run switches recording on only for
// its traced phase.
type tracer struct {
	on    atomic.Bool // spans are recorded only while on
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseReqHeader(v string) (req, parent int64) {
	a, b, ok := strings.Cut(v, ".")
	if !ok {
		return 0, 0
	}
	req, _ = strconv.ParseInt(a, 10, 64)
	parent, _ = strconv.ParseInt(b, 10, 64)
	return req, parent
}

// spanName maps a request path to the operation it names.
func spanName(prefix, path string) string {
	switch {
	case strings.HasSuffix(path, "/add"):
		return prefix + ".add"
	case strings.HasSuffix(path, "/query"):
		return prefix + ".query"
	case strings.HasSuffix(path, "/snapshot"):
		return prefix + ".snapshot"
	}
	return prefix + ".other"
}

// traceHandler records a span named prefix.<op> around every request,
// linked to the caller's span through reqHeader.
func traceHandler(t *tracer, prefix string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, parent := parseReqHeader(r.Header.Get(reqHeader))
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{ID: t.newID(), Parent: parent, Req: req, Name: spanName(prefix, r.URL.Path),
			Path: r.URL.Path, Start: start, End: t.now()})
	})
}

// shardTransport is the RoundTripper on the coordinator's shard client. It
// times every shard call and gives the shard's handler wrapper a fresh
// request ID, so shard spans link to the call by ID; the call itself links
// to the coordinator handler span by containment (attribute).
type shardTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (s *shardTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !s.t.on.Load() {
		return s.base.RoundTrip(r)
	}
	id := s.t.newID()
	r2 := r.Clone(r.Context())
	r2.Header.Set(reqHeader, fmt.Sprintf("%d.%d", id, id))
	start := s.t.now()
	resp, err := s.base.RoundTrip(r2)
	if err == nil {
		// The span ends when the body is read, as the gather sees it.
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			s.t.add(span{ID: id, Req: id, Name: "cluster.shard_call", Path: r.URL.Path, Start: start, End: s.t.now()})
		}}
		return resp, nil
	}
	s.t.add(span{ID: id, Req: id, Name: "cluster.shard_call", Path: r.URL.Path, Start: start, End: s.t.now()})
	return resp, err
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// sketchOf returns the sketch name in a /v1[/t/{tenant}]/sketch/{name}/op path.
func sketchOf(path string) string {
	_, rest, ok := strings.Cut(path, "/sketch/")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(rest, "/")
	return name
}

// attribute gives each parentless shard call the coordinator handler span
// for the same sketch and operation (a shard /add serves a coordinator add,
// a shard /snapshot a coordinator query) whose interval contains it. Where several contain it,
// the latest-starting one wins: it is the innermost candidate in time.
func attribute(spans []span) {
	var coord []int
	for i, s := range spans {
		if strings.HasPrefix(s.Name, "cluster.handler.") {
			coord = append(coord, i)
		}
	}
	slices.SortFunc(coord, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
	for i := range spans {
		s := &spans[i]
		if s.Name != "cluster.shard_call" || s.Parent != 0 {
			continue
		}
		name, want := sketchOf(s.Path), "cluster.handler.query"
		if strings.HasSuffix(s.Path, "/add") {
			want = "cluster.handler.add"
		}
		best := -1
		for _, c := range coord {
			cs := spans[c]
			if cs.Start > s.Start {
				break
			}
			if cs.End >= s.End && cs.Name == want && sketchOf(cs.Path) == name {
				best = c
			}
		}
		if best >= 0 {
			s.Parent, s.Req, s.Attributed = spans[best].ID, spans[best].Req, true
		}
	}
}

// spanStats aggregates spans by name: count, mean duration and mean self
// time in nanoseconds, and per-parent child lists.
type spanStats struct {
	count    map[string]int
	durSum   map[string]int64
	selfSum  map[string]int64
	children map[int64][]span
	byName   map[string][]span
}

func aggregate(spans []span) spanStats {
	st := spanStats{count: map[string]int{}, durSum: map[string]int64{}, selfSum: map[string]int64{},
		children: map[int64][]span{}, byName: map[string][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			st.children[s.Parent] = append(st.children[s.Parent], s)
		}
	}
	for _, s := range spans {
		var kids []interval
		for _, c := range st.children[s.ID] {
			kids = append(kids, interval{c.Start, c.End})
		}
		st.count[s.Name]++
		st.durSum[s.Name] += s.dur()
		st.selfSum[s.Name] += selfTime(interval{s.Start, s.End}, kids)
		st.byName[s.Name] = append(st.byName[s.Name], s)
	}
	return st
}

// meanUS returns the mean duration (self=false) or self time of a span
// name, in microseconds, and whether any such span was recorded.
func (st spanStats) meanUS(name string, self bool) (float64, bool) {
	n := st.count[name]
	if n == 0 {
		return 0, false
	}
	sum := st.durSum[name]
	if self {
		sum = st.selfSum[name]
	}
	return float64(sum) / float64(n) / 1e3, true
}
