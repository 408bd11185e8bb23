// Package obs is the request-scoped observability layer of the predict
// path: lightweight tracing (no external dependencies), tail-based
// sampling into a bounded ring buffer, decision provenance records, the
// debug/profiling HTTP surface, and the Prometheus text codec that
// writes and reads every /metrics page (prom.go).
//
// The span API is deliberately nil-safe end to end: a nil *Tracer, nil
// *Trace or nil *Span accepts every call and does nothing, so the serve
// and core hot paths are instrumented unconditionally and tracing is
// turned off by simply not installing a tracer. Trace context rides the
// standard context.Context, which the serving pipeline already threads
// through every stage for deadlines — the same propagation carries
// spans across goroutines, such as a router's hedged forwards.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	mrand "math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Flag marks a trace as interesting for tail-based sampling: a flagged
// trace is always retained, an unflagged one is kept with probability
// Options.SampleRate. Flags accumulate over the trace's lifetime — the
// "tail" part: the decision is made at Finish, when the outcome is known.
type Flag uint32

const (
	// FlagError marks a trace that carried any error.
	FlagError Flag = 1 << iota
	// Flag5xx marks a trace answered with a server-side failure.
	Flag5xx
	// FlagDeadline marks a trace whose deadline expired in the pipeline.
	FlagDeadline
	// FlagHedgeWin marks a trace answered by the hedge target.
	FlagHedgeWin
	// FlagFallback marks a trace whose predictor chain degraded.
	FlagFallback
	// FlagBreaker marks a trace routed by an open circuit breaker.
	FlagBreaker
	// FlagCanaryReject marks a reload trace whose candidate was rejected.
	FlagCanaryReject
	// FlagShed marks a trace shed at admission (queue full).
	FlagShed
	// FlagFailover marks a trace the router answered from a failover
	// rung rather than its primary replica.
	FlagFailover
	// FlagPeerBreaker marks a trace that touched a peer whose circuit
	// breaker was open (the peer was skipped or the forward refused).
	FlagPeerBreaker
)

// Cross-node propagation headers. The router stamps these on every
// forward (primary, hedge, failover) so peers join the caller's trace
// instead of minting their own; serve echoes TraceHeader on responses
// so clients can correlate.
const (
	// TraceHeader carries the trace id across process boundaries.
	TraceHeader = "X-Heteromap-Trace"
	// ParentSpanHeader carries the numeric id of the caller's hop span,
	// so a stitched timeline can parent the peer's root under it.
	ParentSpanHeader = "X-Heteromap-Parent-Span"
	// HopHeader counts forwarding hops; peers reject loops past MaxHops.
	HopHeader = "X-Heteromap-Hop"
	// MaxHops bounds HopHeader: an inbound request deeper than this is
	// served with a fresh trace rather than extending a forwarding loop.
	MaxHops = 8
)

// flagNames renders the set bits for the JSON trace record.
func (f Flag) names() []string {
	var out []string
	for _, fn := range []struct {
		bit  Flag
		name string
	}{
		{FlagError, "error"},
		{Flag5xx, "5xx"},
		{FlagDeadline, "deadline"},
		{FlagHedgeWin, "hedge-win"},
		{FlagFallback, "fallback"},
		{FlagBreaker, "breaker"},
		{FlagCanaryReject, "canary-reject"},
		{FlagShed, "shed"},
		{FlagFailover, "failover"},
		{FlagPeerBreaker, "peer-breaker"},
	} {
		if f&fn.bit != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// Options size the tracer; zero values select the defaults in
// parentheses.
type Options struct {
	// RingSize bounds the retained completed traces (512).
	RingSize int
	// SampleRate is the probability an unflagged trace survives
	// tail-based sampling (0.1). Flagged traces are always kept.
	// Negative disables sampling of unflagged traces entirely.
	SampleRate float64
	// ProvSize bounds the retained provenance records (4096).
	ProvSize int
	// Seed fixes the sampling RNG (1), making retention deterministic
	// for tests.
	Seed int64
	// Logger is the structured log sink for Log (slog.Default()).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.RingSize <= 0 {
		o.RingSize = 512
	}
	if o.SampleRate == 0 {
		o.SampleRate = 0.1
	}
	if o.SampleRate < 0 {
		o.SampleRate = 0
	}
	if o.ProvSize <= 0 {
		o.ProvSize = 4096
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Tracer creates traces, decides retention and owns the ring buffer and
// provenance store. Methods on a nil Tracer are no-ops, so callers
// instrument unconditionally.
type Tracer struct {
	opts Options
	ring *Ring
	prov *ProvStore

	// idPrefix makes trace ids unique across processes; idSeq across
	// traces within one.
	idPrefix string
	idSeq    atomic.Uint64

	mu  sync.Mutex // guards rng
	rng *mrand.Rand
}

// NewTracer builds a tracer.
func NewTracer(o Options) *Tracer {
	o = o.withDefaults()
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; ids merely
		// lose cross-process uniqueness, which tracing can live with.
		copy(b[:], []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x00})
	}
	return &Tracer{
		opts:     o,
		ring:     NewRing(o.RingSize),
		prov:     NewProvStore(o.ProvSize),
		idPrefix: hex.EncodeToString(b[:]),
		rng:      mrand.New(mrand.NewSource(o.Seed)),
	}
}

// Ring returns the completed-trace ring buffer (nil for a nil tracer).
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// Prov returns the provenance store (nil for a nil tracer).
func (t *Tracer) Prov() *ProvStore {
	if t == nil {
		return nil
	}
	return t.prov
}

// Attr is one key=value span or trace annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed pipeline stage within a trace. Spans are created
// through StartSpan/NewSpan/AddSpan and mutated only via their methods;
// all mutation is serialized on the owning trace's lock so spans may be
// started, annotated and ended from different goroutines (hedged
// dispatch does exactly that).
type Span struct {
	tr      *Trace
	id      int
	parent  int
	name    string
	start   time.Time
	dur     time.Duration
	outcome string // "" until ended; then ok, error, cancelled, shed, ...
	attrs   []Attr
}

// Trace is one request's span tree from ingress to response.
type Trace struct {
	tracer *Tracer
	id     string
	name   string
	start  time.Time

	mu       sync.Mutex
	spans    []*Span
	nextID   int
	flags    Flag
	attrs    []Attr
	finished bool
	root     *Span
}

type ctxKey struct{}

// StartTrace opens a trace named name with a root span of the same name
// and returns a context carrying it. A nil tracer returns the context
// unchanged and a nil trace.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	return t.StartTraceID(ctx, name, "")
}

// StartTraceID opens a trace that adopts the caller-provided id — the
// cross-node propagation entry point: a peer receiving a forwarded
// request joins the router's trace instead of minting a fresh id, so
// /v1/trace/{id} can later stitch both processes' span sets into one
// timeline. An empty id mints one, exactly like StartTrace.
func (t *Tracer) StartTraceID(ctx context.Context, name, id string) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	if id == "" || !ValidTraceID(id) {
		id = t.idPrefix + "-" + hexUint(t.idSeq.Add(1))
	}
	tr := &Trace{
		tracer: t,
		id:     id,
		name:   name,
		start:  time.Now(),
	}
	root := &Span{tr: tr, id: 0, parent: -1, name: name, start: tr.start}
	tr.spans = append(tr.spans, root)
	tr.nextID = 1
	tr.root = root
	return context.WithValue(ctx, ctxKey{}, root), tr
}

// StartRequestTrace opens the trace for one inbound HTTP request,
// adopting a propagated TraceHeader id so /v1/trace/{id} can stitch
// this process's spans into the caller's timeline. The forwarded
// ParentSpanHeader and HopHeader are recorded as the parent_span and
// hop trace attributes; a hop count that does not parse, or is at or
// past MaxHops, refuses adoption so a forwarding loop cannot extend one
// trace forever. A nil tracer returns the request context and a nil
// trace.
func (t *Tracer) StartRequestTrace(r *http.Request, name string) (context.Context, *Trace) {
	if t == nil {
		return r.Context(), nil
	}
	inbound := r.Header.Get(TraceHeader)
	hop := r.Header.Get(HopHeader)
	if hop != "" {
		if n, err := strconv.Atoi(hop); err != nil || n < 0 || n >= MaxHops {
			inbound = ""
		}
	}
	ctx, tr := t.StartTraceID(r.Context(), name, inbound)
	if inbound != "" && tr.ID() == inbound {
		if ps := r.Header.Get(ParentSpanHeader); ps != "" {
			tr.SetAttr("parent_span", ps)
		}
		if hop != "" {
			tr.SetAttr("hop", hop)
		}
	}
	return ctx, tr
}

// ValidTraceID reports whether id is safe to adopt from the wire:
// non-empty, bounded, and limited to the hex-and-dash alphabet our own
// minting uses. Anything else is rejected so a hostile header cannot
// smuggle arbitrary bytes into logs, rings and stitched timelines.
func ValidTraceID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c == '-':
		default:
			return false
		}
	}
	return true
}

// hexUint renders n as lowercase hex without allocation-heavy fmt.
func hexUint(n uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	i := len(b)
	for {
		i--
		b[i] = digits[n&0xf]
		n >>= 4
		if n == 0 {
			break
		}
	}
	return string(b[i:])
}

// ID returns the trace id ("" for nil).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// SetAttr annotates the trace (filterable in /debug/traces).
func (tr *Trace) SetAttr(key, value string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.attrs {
		if tr.attrs[i].Key == key {
			tr.attrs[i].Value = value
			return
		}
	}
	tr.attrs = append(tr.attrs, Attr{key, value})
}

// Attr returns a trace attribute ("" when unset or nil).
func (tr *Trace) Attr(key string) string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.attrs {
		if tr.attrs[i].Key == key {
			return tr.attrs[i].Value
		}
	}
	return ""
}

// Keep flags the trace for unconditional retention at Finish.
func (tr *Trace) Keep(f Flag) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.flags |= f
	tr.mu.Unlock()
}

// Flags returns the accumulated retention flags.
func (tr *Trace) Flags() Flag {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.flags
}

// Finish ends the root span, applies the tail-based sampling decision
// and, when the trace is retained, snapshots it into the ring buffer.
// The decision comes first, so a dropped trace never pays for its
// snapshot. Finish is idempotent; spans ended after Finish are dropped
// silently (a hedge loser's goroutine may outlive the request).
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	t := tr.tracer
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	if tr.root.outcome == "" {
		tr.root.dur = time.Since(tr.root.start)
		tr.root.outcome = "ok"
	}
	flags := tr.flags
	keep := flags != 0 || t.sample()
	var rec TraceRecord
	if keep {
		rec = tr.recordLocked()
	}
	tr.mu.Unlock()

	t.ring.observe(flags != 0)
	if keep {
		t.ring.add(rec)
	}
}

// sample draws one probabilistic retention decision.
func (t *Tracer) sample() bool {
	if t.opts.SampleRate >= 1 {
		return true
	}
	if t.opts.SampleRate <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64() < t.opts.SampleRate
}

// recordLocked snapshots the trace; the caller holds tr.mu.
func (tr *Trace) recordLocked() TraceRecord {
	rec := TraceRecord{
		ID:         tr.id,
		Name:       tr.name,
		Start:      tr.start,
		DurationUS: float64(tr.root.dur.Nanoseconds()) / 1e3,
		Flags:      tr.flags.names(),
		Attrs:      attrMap(tr.attrs),
		Spans:      make([]SpanRecord, 0, len(tr.spans)),
	}
	for _, s := range tr.spans {
		outcome := s.outcome
		dur := s.dur
		if outcome == "" {
			outcome = "unfinished"
			dur = time.Since(s.start)
		}
		rec.Spans = append(rec.Spans, SpanRecord{
			ID:         s.id,
			Parent:     s.parent,
			Name:       s.name,
			OffsetUS:   float64(s.start.Sub(tr.start).Nanoseconds()) / 1e3,
			DurationUS: float64(dur.Nanoseconds()) / 1e3,
			Outcome:    outcome,
			Attrs:      attrMap(s.attrs),
		})
	}
	return rec
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TraceFromContext returns the trace carried by ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	if s, ok := ctx.Value(ctxKey{}).(*Span); ok {
		return s.tr
	}
	return nil
}

// TraceID returns the id of the trace carried by ctx ("" when untraced).
func TraceID(ctx context.Context) string {
	return TraceFromContext(ctx).ID()
}

// KeepTrace flags the trace carried by ctx, if any.
func KeepTrace(ctx context.Context, f Flag) {
	TraceFromContext(ctx).Keep(f)
}

// StartSpan opens a child span under the span carried by ctx and
// returns a context carrying the new span. Untraced contexts pass
// through unchanged with a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := NewSpan(ctx, name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// NewSpan opens a child span without deriving a context — for stages
// that open no spans of their own (a node's decode and resolve), which
// StartSpan would charge a context allocation for nothing, and stages
// whose end is observed by a different goroutine than continues the
// request (a router's forward, which a hedge may abandon).
func NewSpan(ctx context.Context, name string) *Span {
	return newSpanAt(ctx, name, time.Now())
}

func newSpanAt(ctx context.Context, name string, start time.Time) *Span {
	if ctx == nil {
		return nil
	}
	parent, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok || parent == nil {
		return nil
	}
	tr := parent.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.finished {
		return nil
	}
	sp := &Span{tr: tr, id: tr.nextID, parent: parent.id, name: name, start: start}
	tr.nextID++
	tr.spans = append(tr.spans, sp)
	return sp
}

// AddSpan records an already-completed stage (start + duration) under
// the span carried by ctx — how the router marks instant events such as
// a skipped hedge.
func AddSpan(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...Attr) {
	sp := newSpanAt(ctx, name, start)
	if sp == nil {
		return
	}
	tr := sp.tr
	tr.mu.Lock()
	sp.dur = d
	sp.outcome = "ok"
	sp.attrs = append(sp.attrs, attrs...)
	tr.mu.Unlock()
}

// ID returns the span's id within its trace (-1 for nil) — the value a
// forwarding layer puts in ParentSpanHeader so the peer's span set can
// be re-parented under this hop when timelines are stitched.
func (s *Span) ID() int {
	if s == nil {
		return -1
	}
	return s.id
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, value})
	s.tr.mu.Unlock()
}

// End closes the span with outcome "ok" (first close wins).
func (s *Span) End() { s.end("ok") }

// EndErr closes the span with outcome "error" and the error recorded.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetAttr("error", err.Error())
	}
	s.tr.Keep(FlagError)
	s.end("error")
}

// Cancel closes the span with outcome "cancelled" — the hedge race's
// loser.
func (s *Span) Cancel() { s.end("cancelled") }

// EndOutcome closes the span with a caller-chosen outcome ("shed").
func (s *Span) EndOutcome(outcome string) { s.end(outcome) }

func (s *Span) end(outcome string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.outcome == "" {
		s.outcome = outcome
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// Log emits one structured log line with the ctx's trace id attached as
// "trace_id", so logs, metrics and traces correlate on one key. A nil
// tracer drops the line.
func (t *Tracer) Log(ctx context.Context, level slog.Level, msg string, args ...any) {
	if t == nil {
		return
	}
	args = append(args, "trace_id", TraceID(ctx))
	t.opts.Logger.Log(ctx, level, msg, args...)
}
