package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// mnist-train: the paper's MNIST 9→2 federation (eval.MNISTScenario: 10
// clients, one model-replacement attacker with γ=6, 3-label non-IID
// shards), trained round after round in process. One op is one federated
// round; after the scenario's 22 rounds a fresh federation of the same
// seed starts over, and must end bit-identical to the first.

// samplesPerRound counts the local SGD samples one round processes: each
// client's epochs over its training set (an attacker trains three times
// the epochs on its poisoned mixture).
func samplesPerRound(t *eval.Trained) float64 {
	epochs := t.Scenario.FL.LocalEpochs
	n := 0
	for _, p := range t.Participants {
		if a, ok := p.(*fl.Attacker); ok {
			n += 3 * epochs * a.PoisonedDataset().Len()
		} else {
			n += epochs * p.Dataset().Len()
		}
	}
	return float64(n)
}

// checkRound is the per-op correctness check: the round applied with
// every client completed.
func checkRound(res fl.RoundResult, clients int) error {
	if !res.Applied || len(res.Completed) != clients || len(res.Selected) != clients || len(res.Dropped) != 0 {
		return fmt.Errorf("round %d: applied=%v completed %d of %d selected, %d dropped",
			res.Round, res.Applied, len(res.Completed), len(res.Selected), len(res.Dropped))
	}
	return nil
}

func runTrain(p params) *outcome {
	o := newOutcome()
	scen := eval.MNISTScenario(9, 2)
	scen.Seed = p.seed
	var fed *eval.Trained
	o.metrics["setup_s"] = median(setupTimes(9, func() { fed = eval.Build(scen) }))

	ops := newOpSamples(p.nproc)
	round, feds := 0, 0
	var firstDigest uint64
	end := deadline(p.seconds)
	for time.Now().Before(end) {
		var res fl.RoundResult
		c, err := timedOp(func() error {
			res = fed.Server.RoundDetail(round)
			return checkRound(res, scen.Clients)
		})
		o.op(err)
		ops.add(c)
		round++
		if round == scen.FL.Rounds {
			d := digest(fed.Server.Model.ParamsVector())
			if feds == 0 {
				firstDigest = d
			} else if d != firstDigest {
				o.broken = append(o.broken, "a repeated federation of the same seed ended with different parameters")
			}
			feds++
			fed, round = eval.Build(scen), 0
		}
	}
	o.report(ops, samplesPerRound(fed))
	o.infof("federations completed %d (%d rounds each)", feds, scen.FL.Rounds)
	return o
}

// traceTrain trains the federation twice from the same seed, round by
// round in alternation — once untraced, once with every participant
// wrapped — checks both end bit-identical, breaks the traced rounds down
// by client, and replays the train step and its tensor kernels. It
// returns the untraced federation, trained.
func traceTrain(o *outcome, p params, scen eval.Scenario) *eval.Trained {
	plain := eval.Build(scen)
	rec := &recorder{}
	traced := eval.Build(scen)
	for i, part := range traced.Server.Participants {
		traced.Server.Participants[i] = traceParticipant(part, rec)
	}
	round := func(fed *eval.Trained, r int) float64 {
		c, err := timedOp(func() error { return checkRound(fed.Server.RoundDetail(r), scen.Clients) })
		o.op(err)
		return c.wall
	}
	var ratios []float64
	var bounds [][2]time.Time
	trainSecs := 0.0
	for r := 0; r < scen.FL.Rounds; r++ {
		ratios = append(ratios, pairOp(r,
			func() float64 { return round(plain, r) },
			func() float64 {
				t0 := time.Now()
				secs := round(traced, r)
				bounds = append(bounds, [2]time.Time{t0, time.Now()})
				trainSecs += secs
				return secs
			}))
	}
	spans := rec.take()

	o.metrics["obs.trace_overhead_ratio"] = median(ratios)
	o.metrics["fl.train_s"] = trainSecs
	if err := sameModel(plain, traced); err != nil {
		o.broken = append(o.broken, err.Error())
	}
	o.metrics["eval.trained_ta_pct"] = traced.TA()
	o.metrics["eval.trained_asr_pct"] = traced.AA()

	roundBreakdown(o, spans, bounds, scen.Clients)

	budget := time.Duration(p.seconds * 0.08 * float64(time.Second))
	shard := traced.Participants[len(traced.Participants)-1].Dataset()
	replayTrainStep(o, traced.Server.Model.Clone(), shard, scen.FL, budget)
	replayKernels(o, scen.FL.BatchSize, true, budget/2)
	return plain
}

// sameModel checks two federations trained from one seed ended with
// bit-identical global parameters.
func sameModel(a, b *eval.Trained) error {
	if digest(a.Server.Model.ParamsVector()) != digest(b.Server.Model.ParamsVector()) {
		return errors.New("traced federation's parameters differ from the untraced run's")
	}
	return nil
}

// roundBreakdown splits each traced batch round into client local
// updates and the aggregation tail, and reconciles them with the round
// wall time. parallel.For hands each worker one contiguous block of the
// cohort (parallel.Partition), so the busiest block's summed updates plus
// the tail after the last client finished should account for the round.
func roundBreakdown(o *outcome, spans []span, bounds [][2]time.Time, clients int) {
	updates := durations(spans, "fl.local_update")
	workers := parallel.Workers()
	blocks := parallel.Partition(clients, workers)
	var agg, busy, accounted []float64
	for _, b := range bounds {
		var in []span
		for _, s := range spans {
			if s.kind == "fl.local_update" && !s.start.Before(b[0]) && !s.end.After(b[1]) {
				in = append(in, s)
			}
		}
		if len(in) != clients {
			continue
		}
		sort.Slice(in, func(i, j int) bool { return in[i].id < in[j].id })
		last := in[0].end
		total, maxBlock := 0.0, 0.0
		for _, blk := range blocks {
			t := 0.0
			for _, s := range in[blk[0]:blk[1]] {
				t += s.secs()
			}
			if t > maxBlock {
				maxBlock = t
			}
		}
		for _, s := range in {
			total += s.secs()
			if s.end.After(last) {
				last = s.end
			}
		}
		wall := b[1].Sub(b[0]).Seconds()
		tail := b[1].Sub(last).Seconds()
		agg = append(agg, tail)
		busy = append(busy, total/(float64(workers)*wall))
		accounted = append(accounted, (maxBlock+tail)/wall)
	}
	o.metrics["fl.local_update_s.p50"] = median(updates)
	o.metrics["fl.aggregate_s"] = median(agg)
	o.metrics["fl.client_busy_share"] = median(busy)
	o.metrics["fl.round_accounted_ratio"] = median(accounted)
	o.infof("reconcile fl: busiest worker block + aggregate tail = %.3f of round wall (median over %d rounds); all clients busy %.3f of %d workers",
		median(accounted), len(accounted), median(busy), workers)
}
