package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// mnist-defend: Algorithm 1 in FP+AW mode (MVP with the default config,
// fine-tuning off) on the paper's MNIST 9→2 federation, trained once in
// set-up with the scenario's own seed so the defended model matches
// EXPERIMENTS.md Table I. One op is one pipeline on a fresh clone of the
// trained model. The benchmark seed permutes the order the clients are
// listed in; the aggregated prune order must not depend on it, which
// every op checks against the order collected in set-up.

// defendConfig is eval's "fp+aw" mode.
func defendConfig() core.PipelineConfig {
	cfg := core.DefaultPipelineConfig()
	cfg.FineTuneRounds = 0
	return cfg
}

// defense is the set-up state every pipeline op shares.
type defense struct {
	tr       *eval.Trained
	cfg      core.PipelineConfig
	layer    int
	refOrder []int
	perm     []int
	// first records the first op's outcome; every later op must match.
	first *pipelineResult
}

type pipelineResult struct {
	digest  uint64
	ta, asr float64
}

// newDefense prepares pipelines on a trained federation, its clients
// listed in the order the seed permutes them to.
func newDefense(tr *eval.Trained, seed int64) *defense {
	d := &defense{tr: tr, cfg: defendConfig(), layer: tr.Server.Model.LastConvIndex()}
	clients := fl.ReportClients(tr.Participants)
	d.refOrder = core.GlobalPruneOrder(tr.Server.Model, clients, d.layer, d.cfg)
	d.perm = rand.New(rand.NewSource(seed)).Perm(len(clients))
	tr.ValidationEvaluator() // built lazily; set-up pays for it, not the first op
	return d
}

// clients returns the report clients in the seed's order, each passed
// through wrap.
func (d *defense) clients(wrap func(fl.Participant) fl.Participant) []core.ReportClient {
	parts := make([]fl.Participant, len(d.perm))
	for i, j := range d.perm {
		parts[i] = wrap(d.tr.Participants[j])
	}
	return fl.ReportClients(parts)
}

// pipeline runs one defense op and checks it.
func (d *defense) pipeline(clients []core.ReportClient, ev core.ScopedEvaluator) (*nn.Sequential, core.Report, error) {
	m := d.tr.Server.Model.Clone()
	rep := core.RunPipeline(m, clients, d.tr.Server, ev, d.cfg)
	return m, rep, d.check(m, rep)
}

// check is the per-op correctness check: a non-empty prune order equal
// to set-up's, finite accuracies, both accuracy guards held, and the same
// defended model as the first op.
func (d *defense) check(m *nn.Sequential, rep core.Report) error {
	if len(rep.Prune.Steps) == 0 {
		return errors.New("pipeline pruned nothing")
	}
	accs := []float64{rep.AccBefore, rep.AccAfterPrune, rep.AccAfterFineTune, rep.AccFinal}
	for i, s := range rep.Prune.Steps {
		if s.Unit != d.refOrder[i] {
			return fmt.Errorf("prune step %d took unit %d, the set-up order has %d", i, s.Unit, d.refOrder[i])
		}
		accs = append(accs, s.Accuracy)
	}
	for _, pt := range rep.AW.Curve {
		accs = append(accs, pt.Accuracy)
	}
	if !allFinite(accs...) {
		return errors.New("pipeline reported a non-finite accuracy")
	}
	if rep.AccAfterPrune < rep.AccBefore-d.cfg.MaxAccuracyDrop {
		return fmt.Errorf("pruning broke its guard: %.4f from %.4f", rep.AccAfterPrune, rep.AccBefore)
	}
	awLayers := len(core.DefaultAWLayers(m, d.layer))
	if guard := rep.AccAfterPrune - float64(awLayers)*d.cfg.AWMaxAccuracyDrop - 1e-12; rep.AccFinal < guard {
		return fmt.Errorf("AW broke its guard: final %.4f below %.4f", rep.AccFinal, guard)
	}
	got := pipelineResult{digest: digest(m.ParamsVector())}
	if d.first == nil {
		got.ta, got.asr = d.tr.ModelTA(m), d.tr.ModelAA(m)
		d.first = &got
		return nil
	}
	if got.digest != d.first.digest {
		return errors.New("pipeline defended model differs from the first op's")
	}
	return nil
}

func runDefend(p params) *outcome {
	o := newOutcome()
	t0 := time.Now()
	d := newDefense(eval.Run(eval.MNISTScenario(9, 2)), p.seed)
	o.metrics["setup_s"] = time.Since(t0).Seconds()
	clients := d.clients(identity)
	ev := d.tr.ValidationEvaluator()
	// One warm-up pipeline fills the evaluator's caches and records the
	// reference outcome.
	_, _, err := d.pipeline(clients, ev)
	o.op(err)

	ops := newOpSamples(p.nproc)
	end := deadline(p.seconds)
	for time.Now().Before(end) {
		c, err := timedOp(func() error {
			_, _, err := d.pipeline(clients, ev)
			return err
		})
		o.op(err)
		ops.add(c)
	}
	o.report(ops, 1)
	return o
}

// traceDefend runs pipelines in alternation untraced and with the report
// clients and the evaluator wrapped, checks the traced ones defend
// bit-identically, breaks each traced pipeline into its phases, and
// replays the eval-mode forward and its tensor kernels.
func traceDefend(o *outcome, p params, d *defense) {
	ev := d.tr.ValidationEvaluator()
	plainClients := d.clients(identity)
	rec := &recorder{}
	tracedClients := d.clients(func(p fl.Participant) fl.Participant { return traceParticipant(p, rec) })
	tev := traceEvaluator(ev, rec)

	var ratios []float64
	var bounds [][2]time.Time
	var rep core.Report
	var last *nn.Sequential
	end := deadline(p.seconds * 0.7)
	for i := 0; i < 5 || time.Now().Before(end); i++ {
		ratios = append(ratios, pairOp(i,
			func() float64 {
				c, err := timedOp(func() error {
					_, _, err := d.pipeline(plainClients, ev)
					return err
				})
				o.op(err)
				return c.wall
			},
			func() float64 {
				t0 := time.Now()
				c, err := timedOp(func() (err error) {
					last, rep, err = d.pipeline(tracedClients, tev)
					return err
				})
				bounds = append(bounds, [2]time.Time{t0, time.Now()})
				o.op(err)
				return c.wall
			}))
	}
	spans := rec.take()
	o.metrics["obs.trace_overhead_ratio"] = median(ratios)
	if last == nil {
		fatal(errors.New("no traced pipeline completed"))
	}
	ta, asr := d.tr.ModelTA(last), d.tr.ModelAA(last)
	if ta != d.first.ta || asr != d.first.asr {
		o.broken = append(o.broken, "traced pipeline's TA/ASR differ from the untraced run's")
	}
	o.metrics["eval.defended_ta_pct"] = ta
	o.metrics["eval.defended_asr_pct"] = asr
	pipelineBreakdown(o, spans, bounds, rep)

	budget := time.Duration(p.seconds * 0.08 * float64(time.Second))
	replayInference(o, d.tr.Server.Model.Clone(), d.tr.Validation, metrics.DefaultBatch, budget)
	replayKernels(o, metrics.DefaultBatch, false, budget/2)
}

// pipelineBreakdown attributes each traced pipeline's time to report
// collection plus the prune sweep (first report to the end of the prune
// scope), the AW sweeps (the suffix scopes), and the evaluator calls by
// scope. rep is any traced pipeline's report: every op defends
// identically.
func pipelineBreakdown(o *outcome, spans []span, bounds [][2]time.Time, rep core.Report) {
	var prune, aw, pruneEvals, awEvals []float64
	evalTotal, wall := 0.0, 0.0
	for _, b := range bounds {
		wall += b[1].Sub(b[0]).Seconds()
		var firstReport, pruneEnd time.Time
		awSecs, pe, ae := 0.0, 0, 0
		for _, s := range spans {
			if s.start.Before(b[0]) || s.end.After(b[1]) {
				continue
			}
			switch s.kind {
			case "core.report":
				if firstReport.IsZero() || s.start.Before(firstReport) {
					firstReport = s.start
				}
			case "core.scope_prune":
				pruneEnd = s.end
			case "core.scope_suffix":
				awSecs += s.secs()
			case "metrics.eval_prune":
				pe++
			case "metrics.eval_suffix":
				ae++
			}
			switch s.kind {
			case "metrics.eval_prune", "metrics.eval_suffix", "metrics.eval_full", "metrics.begin":
				evalTotal += s.secs()
			}
		}
		prune = append(prune, pruneEnd.Sub(firstReport).Seconds())
		aw = append(aw, awSecs)
		pruneEvals = append(pruneEvals, float64(pe))
		awEvals = append(awEvals, float64(ae))
	}
	o.metrics["core.report_s.p50"] = median(durations(spans, "core.report"))
	o.metrics["core.prune_s.p50"] = median(prune)
	o.metrics["core.aw_s.p50"] = median(aw)
	o.metrics["core.prune_evals"] = median(pruneEvals)
	o.metrics["core.aw_evals"] = median(awEvals)
	o.metrics["core.prune_accept_ratio"] = float64(len(rep.Prune.Pruned)) / float64(len(rep.Prune.Steps))
	o.metrics["core.pruned_units"] = float64(len(rep.Prune.Pruned))
	o.metrics["core.zeroed_weights"] = float64(rep.AW.Zeroed)
	o.metrics["metrics.eval_prune_s.p50"] = median(durations(spans, "metrics.eval_prune"))
	o.metrics["metrics.eval_suffix_s.p50"] = median(durations(spans, "metrics.eval_suffix"))
	o.metrics["metrics.eval_full_s.p50"] = median(durations(spans, "metrics.eval_full"))
	o.metrics["metrics.eval_share"] = evalTotal / wall
	o.infof("phases per pipeline (median of %d): prune %.1f ms (collect + sweep), AW %.1f ms, pipeline %.1f ms",
		len(bounds), 1e3*median(prune), 1e3*median(aw), 1e3*wall/float64(len(bounds)))
}
