package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/transport"
)

// fleet-wire: 10k fl.SyntheticClients behind one in-process
// transport.Fleet on loopback, driven by a registry server through
// unmodified RemoteClients. One op is one streaming round over a sampled
// 256-client cohort (versioned update envelopes); every eighth round is
// followed by one int8 report collection over a fixed cohort, RAP and MVP
// in turn. There is no model arithmetic: the work is the gob request
// encode, HTTP, the versioned decode, the streaming fold and registry
// sampling.

const (
	fleetClients = 10000
	fleetCohort  = 256
	// reportUnits is the last-conv width of nn.NewSmallCNN, the length
	// every decoded report must have.
	reportUnits = 16
	// collectEvery is the rounds between report collections: sparse in
	// the measured runs, so the window holds enough rounds for a tail
	// percentile, and dense in the traced run, which times collections.
	collectEvery      = 8
	collectEveryTrace = 2
)

// fleetEnv is one served fleet plus the server side driving it.
type fleetEnv struct {
	fleet  *transport.Fleet
	srv    *http.Server // set when serving a wrapped handler
	client *http.Transport
	server *fl.Server
	// reporters is the fixed report-collection cohort.
	reporters []core.ReportClient
	layer     int
	rounds    int
	// orders keeps every collected prune order, for the trace identity
	// check.
	orders [][]int
}

// newFleetEnv builds and serves the fleet, then the registry server over
// it. handler, when non-nil, wraps the fleet's handler; wrap wraps each
// materialized RemoteClient; rt, when non-nil, wraps the client
// transport. HTTP connections per host are capped at nproc.
func newFleetEnv(p params, handler func(http.Handler) http.Handler,
	wrap func(fl.Participant) fl.Participant, rt func(http.RoundTripper) http.RoundTripper) (*fleetEnv, error) {
	env := &fleetEnv{fleet: transport.NewFleet()}
	env.fleet.SetReportQuant(metrics.ReportInt8)
	env.fleet.SetVersionedUpdates(true)
	for id := 0; id < fleetClients; id++ {
		env.fleet.Add(&fl.SyntheticClient{Id: id, Seed: p.seed, Units: reportUnits})
	}
	var addr string
	if handler == nil {
		a, err := env.fleet.Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr = a
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		// The same server settings Fleet.Serve uses.
		env.srv = &http.Server{Handler: handler(env.fleet.Handler()), ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = env.srv.Serve(ln) }()
		addr = ln.Addr().String()
	}

	env.client = &http.Transport{MaxConnsPerHost: p.nproc, MaxIdleConnsPerHost: p.nproc}
	var tr http.RoundTripper = env.client
	if rt != nil {
		tr = rt(tr)
	}
	reg := fl.NewRegistry(func(id int) fl.Participant {
		return wrap(transport.NewRemoteClient(id, transport.FleetClientAddr(addr, id), transport.WithTransport(tr)))
	})
	reg.RegisterRange(0, fleetClients)
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(p.seed)))
	cfg := fl.Config{
		SelectPerRound: fleetCohort,
		Streaming:      true,
		Shards:         p.nproc,
		StreamWindow:   p.nproc,
	}
	env.server = fl.NewRegistryServer(template, reg, cfg, p.seed+300)
	env.layer = template.LastConvIndex()
	env.reporters = fl.ReportClients(reg.Cohort(fleetCohort, rand.New(rand.NewSource(p.seed+400))))
	return env, nil
}

func (env *fleetEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if env.srv != nil {
		_ = env.srv.Shutdown(ctx)
	} else {
		_ = env.fleet.Shutdown(ctx)
	}
	env.client.CloseIdleConnections()
}

// round runs and checks the next streaming round: every selected update
// arrives and is folded.
func (env *fleetEnv) round() (fl.RoundResult, error) {
	res := env.server.RoundDetail(env.rounds)
	env.rounds++
	if !res.Applied || len(res.Selected) != fleetCohort || len(res.Completed) != fleetCohort || len(res.Dropped) != 0 {
		return res, fmt.Errorf("fleet round %d: applied=%v, %d of %d selected folded, %d dropped",
			res.Round, res.Applied, len(res.Completed), len(res.Selected), len(res.Dropped))
	}
	return res, nil
}

// collect runs and checks one report collection: the whole cohort
// responds and the aggregated order covers every unit.
func (env *fleetEnv) collect(method core.PruneMethod) error {
	cfg := core.DefaultPipelineConfig()
	cfg.Method = method
	res := core.GlobalPruneOrderDetail(env.server.Model, env.reporters, env.layer, cfg)
	env.orders = append(env.orders, res.Order)
	if len(res.Responded) != fleetCohort || len(res.Dropped) != 0 || len(res.Order) != reportUnits {
		return fmt.Errorf("%v collection: %d of %d responded, order of %d units, want %d",
			method, len(res.Responded), fleetCohort, len(res.Order), reportUnits)
	}
	return nil
}

// collectMethod alternates RAP and MVP over an env's collections.
func collectMethod(i int) core.PruneMethod {
	if i%2 == 0 {
		return core.RAP
	}
	return core.MVP
}

func identity(wrapped fl.Participant) fl.Participant { return wrapped }

func runFleet(p params) *outcome {
	o := newOutcome()
	// Set-up builds and serves the fleet and the server, then runs one
	// warm-up round and collection that open the connections and fill the
	// fold scratch.
	var envs []*fleetEnv
	o.metrics["setup_s"] = median(setupTimes(3, func() {
		env, err := newFleetEnv(p, nil, identity, nil)
		if err != nil {
			fatal(err)
		}
		_, err = env.round()
		o.op(err)
		o.op(env.collect(core.RAP))
		envs = append(envs, env)
	}))
	for _, e := range envs[:len(envs)-1] {
		e.close()
	}
	env := envs[len(envs)-1]
	defer env.close()

	ops := newOpSamples(p.nproc)
	var collects []float64
	end := deadline(p.seconds)
	for i := 0; time.Now().Before(end); i++ {
		c, err := timedOp(func() error {
			_, err := env.round()
			return err
		})
		o.op(err)
		ops.add(c)
		if (i+1)%collectEvery == 0 {
			c, err := timedOp(func() error { return env.collect(collectMethod(len(env.orders))) })
			o.op(err)
			collects = append(collects, c.wall)
		}
	}
	// A round whose check held folded the whole cohort.
	o.report(ops, fleetCohort)
	o.infof("report collections %d, median %.3f s", len(collects), median(collects))
	return o
}

// fleetBlock runs one traced-run block — collectEveryTrace rounds, then
// one report collection — and returns the rounds' intervals and results
// and the collection's wall time.
func fleetBlock(o *outcome, env *fleetEnv) (bounds [][2]time.Time, collect float64, results []fl.RoundResult) {
	for i := 0; i < collectEveryTrace; i++ {
		t0 := time.Now()
		var res fl.RoundResult
		_, err := timedOp(func() (err error) {
			res, err = env.round()
			return err
		})
		o.op(err)
		bounds = append(bounds, [2]time.Time{t0, time.Now()})
		results = append(results, res)
	}
	c, err := timedOp(func() error { return env.collect(collectMethod(len(env.orders))) })
	o.op(err)
	return bounds, c.wall, results
}

func wallOf(bounds [][2]time.Time) float64 {
	t := 0.0
	for _, b := range bounds {
		t += b[1].Sub(b[0]).Seconds()
	}
	return t
}

// traceFleet drives two identical fleets in alternation, a block of
// rounds and one report collection at a time: one untraced, one with the
// fleet handler, the client transport, every RemoteClient and the
// aggregator wrapped. It checks both end bit-identical and breaks the
// traced rounds down into calls, handler time, bytes and folds.
func traceFleet(o *outcome, p params) {
	plain, err := newFleetEnv(p, nil, identity, nil)
	if err != nil {
		fatal(err)
	}
	defer plain.close()
	rec := &recorder{}
	var counter *countingTransport
	traced, err := newFleetEnv(p,
		func(h http.Handler) http.Handler { return mustWrap[http.Handler](h, &tracedHandler{next: h, rec: rec}) },
		func(q fl.Participant) fl.Participant { return traceParticipant(q, rec) },
		func(rt http.RoundTripper) http.RoundTripper {
			counter = &countingTransport{next: rt}
			return mustWrap[http.RoundTripper](rt, counter)
		})
	if err != nil {
		fatal(err)
	}
	defer traced.close()
	traced.server.Agg = traceAggregator(fl.MeanAggregator{}, rec)

	var ratios, collects []float64
	var bounds [][2]time.Time
	var results []fl.RoundResult
	end := deadline(p.seconds * 0.7)
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		ratios = append(ratios, pairOp(i,
			func() float64 {
				b, c, _ := fleetBlock(o, plain)
				return wallOf(b) + c
			},
			func() float64 {
				b, c, r := fleetBlock(o, traced)
				bounds, collects, results = append(bounds, b...), append(collects, c), append(results, r...)
				return wallOf(b) + c
			}))
	}
	spans := rec.take()
	o.metrics["obs.trace_overhead_ratio"] = median(ratios)
	if err := sameFleetOutcome(plain, traced); err != nil {
		o.broken = append(o.broken, err.Error())
	}

	calls := durations(spans, "fl.local_update")
	updates := 0
	peak := 0
	for _, r := range results {
		updates += len(r.Completed)
		peak = max(peak, r.PeakInFlight)
	}
	o.metrics["transport.call_s.p50"] = median(calls)
	o.metrics["transport.call_s.p90"] = quantile(calls, 0.9)
	o.metrics["transport.handler_s.p50"] = median(durations(spans, "transport.handler_update"))
	o.metrics["transport.req_bytes_per_update"] = float64(counter.update.reqBytes.Load()) / float64(updates)
	o.metrics["transport.resp_bytes_per_update"] = float64(counter.update.respBytes.Load()) / float64(updates)
	o.metrics["transport.attempts_per_call"] = float64(counter.update.attempts.Load()) / float64(len(calls))
	reports := durations(spans, "core.report")
	o.metrics["transport.report_bytes"] = float64(counter.report.respBytes.Load()) / float64(len(reports))
	o.metrics["transport.report_collect_s.p50"] = median(collects)
	o.metrics["core.report_s.p50"] = median(reports)
	o.metrics["fl.local_update_s.p50"] = median(calls)
	o.metrics["fl.fold_s.p50"] = median(durations(spans, "fl.fold"))
	o.metrics["fl.inflight_peak"] = float64(peak)
	streamBreakdown(o, spans, bounds, p.nproc)
	o.infof("calls %d (update), %d (report); collections %d", len(calls), len(reports), len(collects))

	replayWire(o, traced.server.Model.NumParams(), time.Duration(p.seconds*0.05*float64(time.Second)))
}

// sameFleetOutcome checks the traced phase left the global model and the
// collected prune orders bit-identical to the untraced phase.
func sameFleetOutcome(a, b *fleetEnv) error {
	if digest(a.server.Model.ParamsVector()) != digest(b.server.Model.ParamsVector()) {
		return errors.New("traced fleet rounds' parameters differ from the untraced run's")
	}
	if len(a.orders) != len(b.orders) {
		return errors.New("traced fleet run collected a different number of reports")
	}
	for i := range a.orders {
		if fmt.Sprint(a.orders[i]) != fmt.Sprint(b.orders[i]) {
			return fmt.Errorf("traced report collection %d ordered units differently", i)
		}
	}
	return nil
}

// streamBreakdown splits each traced streaming round into its remote
// calls and the tail after the last call returned (the last fold, the
// shard merge and the apply). The calls run stream-window at a time, so
// their summed time spread over the window plus the tail accounts for
// the round.
func streamBreakdown(o *outcome, spans []span, bounds [][2]time.Time, window int) {
	var tails, busy, accounted []float64
	for _, b := range bounds {
		total := 0.0
		var last time.Time
		for _, s := range spans {
			if s.kind != "fl.local_update" || s.start.Before(b[0]) || s.end.After(b[1]) {
				continue
			}
			total += s.secs()
			if s.end.After(last) {
				last = s.end
			}
		}
		wall := b[1].Sub(b[0]).Seconds()
		tail := b[1].Sub(last).Seconds()
		tails = append(tails, tail)
		busy = append(busy, total/(float64(window)*wall))
		accounted = append(accounted, (total/float64(window)+tail)/wall)
	}
	o.metrics["fl.aggregate_s"] = median(tails)
	o.metrics["fl.client_busy_share"] = median(busy)
	o.metrics["fl.round_accounted_ratio"] = median(accounted)
	o.infof("reconcile fl: calls spread over the %d-slot window + aggregate tail = %.3f of round wall (median over %d rounds)",
		window, median(accounted), len(accounted))
}
