package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// The traced run measures each module from outside: the wrappers below
// time calls into the packages' public interfaces and keep the spans in
// memory until the run ends. No code inside internal/ changes.

// span is one timed call observed by a wrapper.
type span struct {
	kind       string
	id         int
	start, end time.Time
}

func (s span) secs() float64 { return s.end.Sub(s.start).Seconds() }

// recorder collects spans from concurrent wrappers.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(kind string, id int, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{kind: kind, id: id, start: start, end: end})
	r.mu.Unlock()
}

// take returns the spans recorded so far and clears the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// durations returns the durations of the spans of one kind.
func durations(spans []span, kind string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.kind == kind {
			out = append(out, s.secs())
		}
	}
	return out
}

// programInterfaces lists every interface the program type-asserts on the
// values the benchmark wraps. A wrapper must implement exactly the subset
// its wrapped value implements, or the program takes a different path
// when traced.
var programInterfaces = []reflect.Type{
	reflect.TypeOf((*fl.Participant)(nil)).Elem(),
	reflect.TypeOf((*fl.FallibleParticipant)(nil)).Elem(),
	reflect.TypeOf((*core.ReportClient)(nil)).Elem(),
	reflect.TypeOf((*core.FallibleReportClient)(nil)).Elem(),
	reflect.TypeOf((*core.AccuracyReporter)(nil)).Elem(),
	reflect.TypeOf((*core.FallibleAccuracyReporter)(nil)).Elem(),
	reflect.TypeOf((*core.ActivationReporter)(nil)).Elem(),
	reflect.TypeOf((*core.ScopedEvaluator)(nil)).Elem(),
	reflect.TypeOf((*fl.Aggregator)(nil)).Elem(),
	reflect.TypeOf((*fl.WeightedAggregator)(nil)).Elem(),
	reflect.TypeOf((*fl.StreamingAggregator)(nil)).Elem(),
	reflect.TypeOf((*fl.Fold)(nil)).Elem(),
	reflect.TypeOf((*http.Handler)(nil)).Elem(),
	reflect.TypeOf((*http.RoundTripper)(nil)).Elem(),
}

// sameInterfaces reports the first program interface that exactly one of
// wrapped and wrapper implements.
func sameInterfaces(wrapped, wrapper any) error {
	a, b := reflect.TypeOf(wrapped), reflect.TypeOf(wrapper)
	for _, it := range programInterfaces {
		if a.Implements(it) != b.Implements(it) {
			return fmt.Errorf("wrapper %v of %v differs on %v", b, a, it)
		}
	}
	return nil
}

func mustWrap[T any](wrapped, wrapper T) T {
	if err := sameInterfaces(wrapped, wrapper); err != nil {
		panic(err)
	}
	return wrapper
}

// localClient is the interface set of an in-process client (fl.Client,
// fl.Attacker).
type localClient interface {
	fl.Participant
	core.ReportClient
	core.AccuracyReporter
	core.ActivationReporter
}

// remoteClient is the interface set of transport.RemoteClient.
type remoteClient interface {
	fl.FallibleParticipant
	core.FallibleReportClient
	core.FallibleAccuracyReporter
}

type tracedLocal struct {
	localClient
	rec *recorder
}

func (c *tracedLocal) LocalUpdate(global []float64, round int) []float64 {
	defer c.rec.add("fl.local_update", c.ID(), time.Now())
	return c.localClient.LocalUpdate(global, round)
}

func (c *tracedLocal) RankReport(m *nn.Sequential, layerIdx int) []int {
	defer c.rec.add("core.report", c.ID(), time.Now())
	return c.localClient.RankReport(m, layerIdx)
}

func (c *tracedLocal) VoteReport(m *nn.Sequential, layerIdx int, p float64) []bool {
	defer c.rec.add("core.report", c.ID(), time.Now())
	return c.localClient.VoteReport(m, layerIdx, p)
}

type tracedRemote struct {
	remoteClient
	rec *recorder
}

func (c *tracedRemote) TryLocalUpdate(ctx context.Context, global []float64, round int) ([]float64, error) {
	defer c.rec.add("fl.local_update", c.ID(), time.Now())
	return c.remoteClient.TryLocalUpdate(ctx, global, round)
}

func (c *tracedRemote) TryRankReport(ctx context.Context, m *nn.Sequential, layerIdx int) ([]int, error) {
	defer c.rec.add("core.report", c.ID(), time.Now())
	return c.remoteClient.TryRankReport(ctx, m, layerIdx)
}

func (c *tracedRemote) TryVoteReport(ctx context.Context, m *nn.Sequential, layerIdx int, p float64) ([]bool, error) {
	defer c.rec.add("core.report", c.ID(), time.Now())
	return c.remoteClient.TryVoteReport(ctx, m, layerIdx, p)
}

// traceParticipant wraps a participant so its updates and reports are
// timed.
func traceParticipant(p fl.Participant, rec *recorder) fl.Participant {
	switch v := p.(type) {
	case remoteClient:
		return mustWrap[fl.Participant](p, &tracedRemote{v, rec})
	case localClient:
		return mustWrap[fl.Participant](p, &tracedLocal{v, rec})
	}
	panic(fmt.Sprintf("perfbench: no wrapper for participant %T", p))
}

// tracedEval times every evaluation and attributes it to the mutation
// scope it falls in: "prune" (BeginPrune), "suffix" (BeginSuffix) or
// "full" (no scope). Scope set-up (the cached prefix forward) is timed as
// "metrics.begin", and each scope's whole interval as "core.scope_<s>".
type tracedEval struct {
	inner      core.ScopedEvaluator
	rec        *recorder
	scope      string
	scopeStart time.Time
}

func traceEvaluator(e core.ScopedEvaluator, rec *recorder) core.ScopedEvaluator {
	return mustWrap[core.ScopedEvaluator](e, &tracedEval{inner: e, rec: rec, scope: "full"})
}

func (e *tracedEval) Evaluate(m *nn.Sequential) float64 {
	defer e.rec.add("metrics.eval_"+e.scope, -1, time.Now())
	return e.inner.Evaluate(m)
}

func (e *tracedEval) BeginSuffix(m *nn.Sequential, layerIdx int) {
	e.scope, e.scopeStart = "suffix", time.Now()
	e.inner.BeginSuffix(m, layerIdx)
	e.rec.add("metrics.begin", -1, e.scopeStart)
}

func (e *tracedEval) BeginPrune(m *nn.Sequential, layerIdx int) {
	e.scope, e.scopeStart = "prune", time.Now()
	e.inner.BeginPrune(m, layerIdx)
	e.rec.add("metrics.begin", -1, e.scopeStart)
}

func (e *tracedEval) EndScope() {
	e.inner.EndScope()
	if e.scope != "full" {
		e.rec.add("core.scope_"+e.scope, -1, e.scopeStart)
	}
	e.scope = "full"
}

// streamingAggregator is the interface set of fl.MeanAggregator.
type streamingAggregator interface {
	fl.Aggregator
	fl.StreamingAggregator
}

type tracedAgg struct {
	streamingAggregator
	rec *recorder
}

func traceAggregator(a streamingAggregator, rec *recorder) fl.Aggregator {
	return mustWrap[fl.Aggregator](a, &tracedAgg{a, rec})
}

func (a *tracedAgg) BeginFold(dim, shards int, scratch *tensor.Arena) fl.Fold {
	f := a.streamingAggregator.BeginFold(dim, shards, scratch)
	return mustWrap[fl.Fold](f, &tracedFold{f, a.rec})
}

type tracedFold struct {
	inner fl.Fold
	rec   *recorder
}

func (f *tracedFold) Fold(id int, delta []float64) {
	defer f.rec.add("fl.fold", id, time.Now())
	f.inner.Fold(id, delta)
}

func (f *tracedFold) Finish() []float64 { return f.inner.Finish() }

// endpoint names the protocol endpoint of a request path.
func endpoint(path string) string {
	switch {
	case strings.HasSuffix(path, "/v1/update"):
		return "update"
	case strings.HasSuffix(path, "/v1/ranks"), strings.HasSuffix(path, "/v1/votes"):
		return "report"
	}
	return "other"
}

// tracedHandler times the fleet's handler per request.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer h.rec.add("transport.handler_"+endpoint(r.URL.Path), -1, time.Now())
	h.next.ServeHTTP(w, r)
}

// wireCounts are the bytes and HTTP attempts of one endpoint.
type wireCounts struct {
	attempts, reqBytes, respBytes atomic.Int64
}

// countingTransport counts attempts and body bytes of update and report
// requests on the client side of every remote call.
type countingTransport struct {
	next           http.RoundTripper
	update, report wireCounts
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var c *wireCounts
	switch endpoint(req.URL.Path) {
	case "update":
		c = &t.update
	case "report":
		c = &t.report
	default:
		return t.next.RoundTrip(req)
	}
	c.attempts.Add(1)
	if req.ContentLength > 0 {
		c.reqBytes.Add(req.ContentLength)
	}
	resp, err := t.next.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.respBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
